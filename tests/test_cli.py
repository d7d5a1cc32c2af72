"""Command-line interface: config plumbing, CSV output, exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest

from csipla.cli import main

TINY_INI = """\
[scenario]
n_b = 8
m_samples = 4

[code]
code_rate = 0.15

[sim]
trials = 25
calibration_trials = 25
channel_p = 0.2
seed = 7
"""


@pytest.fixture
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- quantizer ---------------------------------------------------------------


def test_quantizer_one_bit(capsys):
    code, out, _ = run_cli(["quantizer", "-n", "1"], capsys)
    assert code == 0
    assert "0.7978" in out and "-0.7978" in out


def test_quantizer_two_bits_lists_four_levels(capsys):
    code, out, _ = run_cli(["quantizer", "-n", "2"], capsys)
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 4
    assert [r.split()[2] for r in rows] == ["00", "01", "11", "10"]


def test_quantizer_requires_bit_width(capsys):
    with pytest.raises(SystemExit) as err:
        main(["quantizer"])
    assert err.value.code == 2


def test_quantizer_writes_file(tmp_path, capsys):
    out_file = tmp_path / "cb.txt"
    code, out, _ = run_cli(["quantizer", "-n", "1", "--out", str(out_file)], capsys)
    assert code == 0
    assert out == ""
    assert "0.7978" in out_file.read_text()


# -- trial ---------------------------------------------------------------------


def test_trial_traces_single_decision(tiny_ini, capsys):
    code, out, _ = run_cli(
        ["trial", "--config", tiny_ini, "--hypothesis", "h1"], capsys
    )
    assert code == 0
    assert "hypothesis,h1" in out
    assert "eta," in out and "decided_h0," in out


def test_trial_accepts_snr_override(tiny_ini, capsys):
    code, out, _ = run_cli(
        ["trial", "--config", tiny_ini, "--set", "snr_db=10"], capsys
    )
    assert code == 0
    assert '"sigma_z2": 0.1' in out


# -- roc -------------------------------------------------------------------------


def test_roc_emits_schema_and_threshold_rows(tiny_ini, capsys):
    code, out, _ = run_cli(["roc", "--config", tiny_ini, "--trials", "25"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].startswith("# meta=")
    assert lines[2] == "eta_th,pfa_emp,pd_emp,pfa_model,pd_model"
    k_info = round(0.15 * 2 * 2 * 8 * 4)
    assert len(lines) == 3 + k_info + 1


def test_roc_reruns_byte_identical(tiny_ini, capsys):
    _, first, _ = run_cli(["roc", "--config", tiny_ini], capsys)
    _, second, _ = run_cli(["roc", "--config", tiny_ini], capsys)
    assert first == second


def test_roc_writes_output_files(tiny_ini, tmp_path, capsys):
    base = str(tmp_path / "roc")
    code, out, _ = run_cli(
        ["roc", "--config", tiny_ini, "--trials", "10", "--out", base], capsys
    )
    assert code == 0
    assert (tmp_path / "roc.csv").read_text().startswith("# schema=1")
    meta = json.loads((tmp_path / "roc.meta.json").read_text())
    assert meta["seed"] == 7


def test_roc_deep_flag_multiplies_trials(tiny_ini, capsys):
    code, out, _ = run_cli(
        ["roc", "--config", tiny_ini, "--trials", "5", "--deep"], capsys
    )
    assert code == 0
    assert '"trials": 50' in out


# -- pdf -------------------------------------------------------------------------


def test_pdf_histogram_counts_sum_to_trials(tiny_ini, capsys):
    code, out, _ = run_cli(["pdf", "--config", tiny_ini, "--trials", "20"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert sum(int(r[1]) for r in rows) == 20
    assert sum(int(r[2]) for r in rows) == 20


# -- sweep ------------------------------------------------------------------------


def test_sweep_over_beta(tiny_ini, capsys):
    code, out, _ = run_cli(
        ["sweep", "--config", tiny_ini, "--param", "beta", "--values", "0.5,0.9"],
        capsys,
    )
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("beta,")]
    assert len(rows) == 2


def test_sweep_rejects_unknown_parameter(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--param", "bandwidth", "--values", "1"])
    assert err.value.code == 2


def test_sweep_rejects_fractional_quant_bits(tiny_ini, capsys):
    code, out, err = run_cli(
        ["sweep", "--config", tiny_ini, "--param", "quant_bits", "--values", "1.5"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "config error" in err and "integer" in err


def test_sweep_rejects_malformed_values(tiny_ini, capsys):
    code, _, err = run_cli(
        ["sweep", "--config", tiny_ini, "--param", "beta", "--values", "a,b"], capsys
    )
    assert code == 2
    assert "config error" in err


# -- output bytes -----------------------------------------------------------------


# sha256 of stdout on TINY_INI.  The meta line embeds the package version
# (csipla-0.1.0), so a version bump changes these hashes; any other change
# to them is a change to the numbers and must be explained.
GOLDEN_SHA256 = {
    "roc": "9bc3640115129a34e84e5b86542553923e5d0ff54eaa06d029b0f9730e127867",
    "pdf": "7f3372b3c50c345ed41812e1db3eedc2fd2f2a53f4073c14471e13a6a05dc552",
    "sweep": "ac0880d1124d7cc86e503651255c482b14e8e889a11ce9df7b586957a161de7c",
}


@pytest.mark.parametrize(
    "argv",
    [["roc"], ["pdf"], ["sweep", "--param", "snr_db", "--values", "0,10"]],
    ids=lambda argv: argv[0],
)
def test_output_bytes_are_pinned(argv, tiny_ini, capsys):
    code, out, _ = run_cli(argv + ["--config", tiny_ini], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv[0]]


# -- config handling ----------------------------------------------------------------


def test_zero_trials_rejected(tiny_ini, capsys):
    code, _, err = run_cli(["roc", "--config", tiny_ini, "--trials", "0"], capsys)
    assert code == 2
    assert "config error" in err


def test_unknown_override_key_lists_valid_ones(tiny_ini, capsys):
    code, _, err = run_cli(
        ["roc", "--config", tiny_ini, "--set", "bandwidth=1"], capsys
    )
    assert code == 2
    assert "code_rate" in err and "snr_db" in err


def test_override_requires_equals_sign(tiny_ini, capsys):
    code, _, err = run_cli(["roc", "--config", tiny_ini, "--set", "beta"], capsys)
    assert code == 2


def test_unknown_ini_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nbandwidth = 7\n")
    code, _, err = run_cli(["roc", "--config", str(path)], capsys)
    assert code == 2
    assert "bandwidth" in err


def test_ini_key_in_wrong_section_rejected(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[code]\nbeta = 0.5\n")
    code, _, err = run_cli(["roc", "--config", str(path)], capsys)
    assert code == 2
    assert "scenario" in err


def test_missing_config_file_rejected(capsys):
    code, _, err = run_cli(["roc", "--config", "/nonexistent.ini"], capsys)
    assert code == 2


def test_sigma_and_snr_conflict_rejected(tiny_ini, capsys):
    code, _, err = run_cli(
        ["roc", "--config", tiny_ini, "--set", "sigma_z2=0.1", "--set", "snr_db=10"],
        capsys,
    )
    assert code == 2
    assert "not both" in err


# -- module entry point ----------------------------------------------------------------


def test_module_runs_as_script():
    proc = subprocess.run(
        [sys.executable, "-m", "csipla.cli", "quantizer", "-n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 6
