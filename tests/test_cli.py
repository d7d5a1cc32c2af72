"""Command-line interface: config plumbing, CSV output, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import csipla
from csipla.cli import _build_config, build_parser, main
from csipla.sim import ExperimentConfig, Simulator

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


# The test configuration turns a RuntimeWarning into an error, so the 8-bit
# input also checks that the design finishes without one.
@pytest.mark.parametrize("bits", [2, 8])
def test_quantizer_lists_gray_labelled_levels(bits, capsys):
    code, out, _ = run_cli(["quantizer", "-n", str(bits)], capsys)
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    gray = [format(i ^ (i >> 1), f"0{bits}b") for i in range(1 << bits)]
    assert [r.split()[2] for r in rows] == gray


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


def test_sweep_takes_no_trials_flag(tiny_ini):
    # Sweep rows come from the calibration batches; a trial count would change nothing.
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--config", tiny_ini, "--param", "beta", "--values", "0.5",
              "--trials", "5"])
    assert err.value.code == 2


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


# sha256 of stdout, keyed by test id.  A `-default` input runs the default
# configuration with 200 calibration trials: these are the ROADMAP's
# byte-identity references.  `quantizer-2` dumps the 2-bit codebook.  Every
# other input runs on TINY_INI.  The meta line embeds the package version
# (csipla-0.1.0), so a version bump changes these hashes; any other change to
# them is a change to the numbers and must be explained.
_CAL200 = ["--set", "calibration_trials=200"]
PINNED = {
    "roc": (
        ["roc"], True,
        "9bc3640115129a34e84e5b86542553923e5d0ff54eaa06d029b0f9730e127867",
    ),
    "pdf": (
        ["pdf"], True,
        "7f3372b3c50c345ed41812e1db3eedc2fd2f2a53f4073c14471e13a6a05dc552",
    ),
    "sweep": (
        ["sweep", "--param", "snr_db", "--values", "0,10"], True,
        "ac0880d1124d7cc86e503651255c482b14e8e889a11ce9df7b586957a161de7c",
    ),
    "trial-h1-3": (
        ["trial", "--hypothesis", "h1", "--index", "3"], True,
        "d66717cefe1946fcb4d4f57bf609da70e4d444066298c8cac485617a086699eb",
    ),
    "roc-default": (
        ["roc", "--trials", "200"] + _CAL200, False,
        "66d338c303d6ca57a78edd641f3b52b44fa07c1aece839a51302a29130a0db19",
    ),
    "pdf-default": (
        ["pdf", "--trials", "200"] + _CAL200, False,
        "a9914987767d7bba657e76118c4a84a6853b336e61ad6290788a92633a6b819f",
    ),
    "sweep-default": (
        ["sweep", "--param", "snr_db", "--values", "0,10"] + _CAL200, False,
        "42d3f3d0802c40d157422edba5c09c4ff22ae061fa4d941026904e00f2512dea",
    ),
    "quantizer-2": (
        ["quantizer", "-n", "2"], False,
        "7c73c7c2269c8b07c59577dbba3b13e840ab8a2cdade5a017cce486fb53ac840",
    ),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_output_bytes_are_pinned(case, tiny_ini, capsys):
    argv, on_tiny_ini, digest = PINNED[case]
    if on_tiny_ini:
        argv = argv + ["--config", tiny_ini]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_readme_ini_example_builds_the_default_config(tmp_path):
    # Every value in the README's example is a default, and snr_db = 10
    # gives sigma_z2 = 0.1 exactly; its `;` comments must not reach a value.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    path = tmp_path / "readme.ini"
    path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    args = build_parser().parse_args(["roc", "--config", str(path)])
    assert _build_config(args) == ExperimentConfig()


def test_missing_config_file_rejected(capsys):
    code, _, err = run_cli(["roc", "--config", "/nonexistent.ini"], capsys)
    assert code == 2


# Each input is rejected before any trial runs or any codebook is designed,
# most when the configuration is built.  `ini` replaces TINY_INI as the
# --config file.
@pytest.mark.parametrize(
    "argv, ini",
    [
        (["roc", "--set", "list_size=0"], TINY_INI),
        (["roc", "--set", "quant_bits=3"], TINY_INI),  # block_len 192
        (["roc", "--set", "code_rate=0.001"], TINY_INI),  # K rounds to 0
        (["roc", "--set", "code_rate=0.99"], TINY_INI),  # payload plus CRC > N
        (["roc", "--set", "channel_p=0.7"], TINY_INI),
        (["roc", "--set", "channel_p=-1"], TINY_INI),
        (["roc", "--set", "channel_p=1e-6"], TINY_INI),
        (["roc", "--set", "channel_p=0.4995"], TINY_INI),
        (["roc", "--set", "sigma_z2=inf"], TINY_INI),
        (["roc", "--set", "alpha=nan"], TINY_INI),
        (["roc", "--set", "snr_db=-inf"], TINY_INI),
        (["roc", "--seed", "-1"], TINY_INI),
        (["trial", "--index", "-1"], TINY_INI),
        (["sweep", "--param", "quant_bits", "--values", "1,3"], TINY_INI),
        (["sweep", "--param", "quant_bits", "--values", "inf"], TINY_INI),
        (["sweep", "--param", "code_rate", "--values", "0.15,0.0001"], TINY_INI),
        (["sweep", "--param", "snr_db", "--values", "5000"], TINY_INI),
        (["roc"], "n_b = 8\n"),
        (["roc"], "[scenario]\nn_b = 8\nn_b = 4\n"),
        (["roc"], "\xff[scenario]\n"),
        (["quantizer", "-n", "0"], None),
        (["quantizer", "-n", "17"], None),
        (["roc", "--out", "no-such-dir/base"], TINY_INI),
        (["quantizer", "-n", "2", "--out", "no-such-dir/q.txt"], None),
    ],
    ids=[
        "list_size-0", "quant_bits-3", "rate-K0", "rate-over-N",
        "channel_p-0.7", "channel_p-minus1", "channel_p-1e-6", "channel_p-0.4995",
        "sigma_z2-inf", "alpha-nan",
        "snr_db-minus-inf", "seed-minus1", "index-minus1", "sweep-quant_bits-3",
        "sweep-quant_bits-inf", "sweep-rate-K0", "sweep-snr_db-5000",
        "ini-no-section", "ini-duplicate-key", "ini-not-utf8", "quantizer-n0",
        "quantizer-n17", "out-missing-dir", "quantizer-out-missing-dir",
    ],
)
def test_rejected_input_exits_2(argv, ini, tmp_path, capsys):
    if ini is not None:
        path = tmp_path / "cfg.ini"
        path.write_bytes(ini.encode("latin-1"))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "config error" in err


# An --out that names no file: a directory for `quantizer`, which writes to
# --out itself, and a path ending in a separator or a dot for the tables,
# which would otherwise write hidden files such as DIR/.csv.
@pytest.mark.parametrize(
    "argv, suffix",
    [(["quantizer", "-n", "1"], ""), (["roc"], os.sep), (["roc"], os.sep + ".")],
    ids=["quantizer-out-dir", "roc-out-dir-slash", "roc-out-dir-dot"],
)
def test_out_naming_no_file_exits_2(argv, suffix, tiny_ini, tmp_path, capsys):
    folder = tmp_path / "results"
    folder.mkdir()
    argv = argv + ["--out", str(folder) + suffix]
    if argv[0] != "quantizer":
        argv += ["--config", tiny_ini]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["results", "tiny.ini"]


def test_internal_fault_exits_1_with_traceback(tiny_ini, capsys, monkeypatch):
    def broken(self, trials=None):
        raise ValueError("injected fault")

    monkeypatch.setattr(Simulator, "roc_table", broken)
    code, out, err = run_cli(["roc", "--config", tiny_ini], capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" in err and "ValueError: injected fault" in err
    assert "config error" not in err


def test_sigma_and_snr_conflict_rejected(tiny_ini, capsys):
    code, _, err = run_cli(
        ["roc", "--config", tiny_ini, "--set", "sigma_z2=0.1", "--set", "snr_db=10"],
        capsys,
    )
    assert code == 2
    assert "not both" in err


# -- module entry point ----------------------------------------------------------------


def test_module_runs_as_script():
    # The child imports the csipla this test imported, installed or not.
    src = str(Path(csipla.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "csipla.cli", "quantizer", "-n", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 6
