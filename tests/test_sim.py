"""End-to-end simulator plumbing: seeding, calibration, tables, sweeps.

Heavy statistical claims live in the acceptance module; these tests pin the
mechanics on downsized scenarios (8 antennas, 4 samples) where a trial costs
well under a millisecond.
"""

import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csipla.sim
from csipla.channel import ConfigError, ScenarioConfig, sample_channel
from csipla.polar import construct_code
from csipla.sim import (
    H0,
    H1,
    SWEEP_PARAMETERS,
    ExperimentConfig,
    Simulator,
    render_csv,
    sweep,
    trial_rng,
    write_results,
)

TINY = ScenarioConfig(n_b=8, m_samples=4, rng_seed=99)


def tiny_cfg(**kw):
    base = dict(
        scenario=TINY,
        code_rate=0.15,
        trials=40,
        calibration_trials=40,
        channel_p_override=0.2,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# -- seed streams ----------------------------------------------------------


def test_trial_rng_reproducible_and_stream_separated():
    a = trial_rng(1, 0, 5).random(4)
    b = trial_rng(1, 0, 5).random(4)
    c = trial_rng(1, 1, 5).random(4)
    d = trial_rng(2, 0, 5).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# -- config validation -------------------------------------------------------


def test_block_length_accounting():
    cfg = tiny_cfg()
    assert cfg.block_len == 2 * 2 * 8 * 4  # bits * components * antennas * samples
    assert cfg.block_len == 128


def test_non_power_of_two_block_rejected():
    sc = ScenarioConfig(n_b=5, m_samples=3)
    # block_len = 1 * 2 * 3 * 5 = 30
    with pytest.raises(ValueError, match="got 30"):
        ExperimentConfig(scenario=sc, quant_bits=1, code_rate=0.2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"quant_bits": 0},
        {"code_rate": 0.0},
        {"code_rate": 1.0},
        {"target_pfa": 0.0},
        {"trials": 0},
        {"calibration_trials": 0},
        {"code_rate": 0.0001},  # K rounds to 0 at N = 2048
        {"code_rate": 0.999},  # payload plus CRC exceeds N
        {"target_pfa": 1.0},
        {"list_size": 0},
        {"channel_p_override": 0.0},
        {"channel_p_override": 0.5},
        {"channel_p_override": -1.0},
        {"channel_p_override": 1e-6},  # below the clamp range, not clamped quietly
        {"quant_bits": 32},  # N is a power of two, but 2**32 levels cannot be designed
    ],
)
def test_experiment_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


# -- noiseless special case ----------------------------------------------------


def test_static_noiseless_channel_gives_zero_eta_under_h0():
    # beta = 1 freezes the channel and sigma_z2 = 0 removes the estimation
    # noise, so re-authentication reproduces the enrollment bits exactly.
    sc = dataclasses.replace(TINY, beta=1.0, sigma_z2=0.0, alpha=0.0)
    sim = Simulator(tiny_cfg(scenario=sc))
    etas = sim.run_batch(H0, 25)
    assert np.array_equal(etas, np.zeros(25))


def test_static_noiseless_channel_separates_perfectly():
    sc = dataclasses.replace(TINY, beta=1.0, sigma_z2=0.0, alpha=0.0)
    sim = Simulator(tiny_cfg(scenario=sc))
    rows = sim.roc_table(40)
    assert any(r["pfa_emp"] == 0.0 and r["pd_emp"] == 1.0 for r in rows)


def test_roc_endpoints_and_monotonicity():
    sim = Simulator(tiny_cfg())
    rows = sim.roc_table(30)
    k = sim.code.k_info
    assert len(rows) == k + 1
    assert rows[-1]["eta_th"] == k
    # eta can never exceed k, so the last threshold rejects nothing
    assert rows[-1]["pfa_emp"] == 0.0 and rows[-1]["pd_emp"] == 0.0
    assert rows[-1]["pfa_model"] == 0.0 and rows[-1]["pd_model"] == 0.0
    for col in ("pfa_emp", "pd_emp", "pfa_model", "pd_model"):
        vals = [r[col] for r in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


# -- measurement power -------------------------------------------------------------

# Log-uniform over the positive floats, from the least subnormal to the largest.
_MAGNITUDE = st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(math.exp)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    sigma_h2=_MAGNITUDE,
    sigma_z2=_MAGNITUDE | st.just(0.0),
    alpha=_MAGNITUDE | st.just(0.0),
    beta=st.floats(0.0, 1.0),
    u_interferers=st.integers(0, 3),
)
def test_built_scenario_runs_without_float_warning(sigma_h2, sigma_z2, alpha, beta, u_interferers):
    # A scenario whose measurement power overflows or vanishes is rejected
    # when built; any other runs with every rate computed from finite powers.
    try:
        sc = ScenarioConfig(n_b=4, m_samples=2, sigma_h2=sigma_h2, sigma_z2=sigma_z2,
                            alpha=alpha, beta=beta, u_interferers=u_interferers)
    except ConfigError:
        return
    sim = Simulator(ExperimentConfig(scenario=sc, code_rate=0.15, trials=4,
                                     calibration_trials=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = sim.roc_table()
        summary = sim.summary()
    rates = [r[c] for r in rows for c in ("pfa_emp", "pd_emp", "pfa_model", "pd_model")]
    rates += [summary[c] for c in ("p0", "p1", "pfa_model", "pd_model", "pfa_emp", "pd_emp")]
    assert all(0.0 <= v <= 1.0 for v in rates)
    assert csipla.sim._CHANNEL_P_MIN <= summary["channel_p"] <= csipla.sim._CHANNEL_P_MAX


# -- trials and batches -----------------------------------------------------------


def test_run_trial_rejects_unknown_hypothesis():
    sim = Simulator(tiny_cfg())
    with pytest.raises(ValueError):
        sim.run_trial("h2", 0)
    # a valid hypothesis yields the statistic itself
    eta = sim.run_trial(H1, 0)
    assert isinstance(eta, int) and 0 <= eta <= sim.code.k_info


@pytest.mark.parametrize("hypothesis", [H0, H1])
def test_run_trial_is_the_evaluation_trial_of_that_index(hypothesis):
    sim = Simulator(tiny_cfg())
    batch = sim.run_batch(hypothesis, 6)
    assert [sim.run_trial(hypothesis, i) for i in range(6)] == batch.tolist()
    assert sim.run_trial(hypothesis, 4) == sim.run_batch(hypothesis, 5)[4]


@pytest.mark.parametrize("override, passes", [(0.2, 2), (None, 3)])
def test_calibrate_draws_a_crossover_pass_only_without_override(override, passes, monkeypatch):
    # Each calibration batch draws n trials' vectors; the quantize-only
    # crossover pass draws n more, and an override skips it.
    calls = []
    vectors = Simulator._vectors

    def counting(self, hypothesis, rng):
        calls.append(hypothesis)
        return vectors(self, hypothesis, rng)

    monkeypatch.setattr(Simulator, "_vectors", counting)
    sim = Simulator(tiny_cfg(channel_p_override=override, calibration_trials=7))
    sim.calibrate()
    assert len(calls) == passes * 7
    assert sim.channel_p is not None


def test_unknown_hypothesis_rejected_before_calibrating(monkeypatch):
    def calibrate(self):
        raise AssertionError("calibrated before the hypothesis was checked")

    monkeypatch.setattr(Simulator, "calibrate", calibrate)
    sim = Simulator(tiny_cfg())
    with pytest.raises(ValueError):
        sim.run_trial("h2", 0)
    with pytest.raises(ValueError):
        sim.run_batch("H0", 3)  # upper case is not H0


@pytest.mark.parametrize("n", [0, -3])
def test_trial_counts_below_one_rejected_before_calibrating(monkeypatch, n):
    # The tables take their count from run_batch, so they inherit its check.
    def calibrate(self):
        raise AssertionError("calibrated before the trial count was checked")

    monkeypatch.setattr(Simulator, "calibrate", calibrate)
    sim = Simulator(tiny_cfg())
    for call in (lambda: sim.run_batch(H0, n), lambda: sim.roc_table(n), lambda: sim.pdf_table(n)):
        with pytest.raises(ValueError, match="n_trials"):
            call()


def test_batches_reproducible_across_instances():
    a = Simulator(tiny_cfg()).run_batch(H0, 12)
    b = Simulator(tiny_cfg()).run_batch(H0, 12)
    assert np.array_equal(a, b)


def test_hypotheses_draw_distinct_streams():
    sim = Simulator(tiny_cfg())
    assert not np.array_equal(sim.run_batch(H0, 20), sim.run_batch(H1, 20))


def test_summary_reports_calibrated_operating_point():
    sim = Simulator(tiny_cfg())
    s = sim.summary()
    k = sim.code.k_info
    assert s["k_info"] == k
    assert 0 < s["p0"] <= 1 and 0 <= s["p1"] <= 1
    assert 0 <= s["eta_th"] <= k
    assert s["channel_p"] == 0.2  # override honored verbatim
    # the threshold is fitted to the calibration batch, so the empirical
    # false-alarm rate on that batch must meet the target
    assert s["pfa_emp"] <= sim.cfg.target_pfa
    # At beta = 0.8 a quarter of the legitimate decodes fail, so the H0
    # statistic is far heavier-tailed than Binomial(K, p0); the binomial
    # tail alone would put the threshold where 20% of this batch exceeds it.
    sim = Simulator(tiny_cfg(scenario=dataclasses.replace(TINY, beta=0.8)))
    s = sim.summary()
    assert s["p0"] > 0.05
    assert s["pfa_emp"] <= sim.cfg.target_pfa


def test_summary_model_rates_are_the_roc_row_at_threshold():
    sim = Simulator(tiny_cfg())
    s = sim.summary()
    row = sim.roc_table()[s["eta_th"]]
    assert row["eta_th"] == s["eta_th"]
    assert (row["pfa_model"], row["pd_model"]) == (s["pfa_model"], s["pd_model"])


def test_channel_p_estimated_when_not_overridden():
    cfg = tiny_cfg(channel_p_override=None, calibration_trials=20)
    s = Simulator(cfg).summary()
    # estimated lazily from quantize-only pairs, then clamped into the
    # range the decoder accepts
    assert 1e-4 <= s["channel_p"] <= 0.499


def test_enrollment_bits_independent_of_alpha():
    # Enrollment sees receiver noise only; the interferers transmit during
    # authentication.  So the interference weight must not reach the
    # enrollment bits of any stream.
    def enrolled(alpha):
        sim = Simulator(tiny_cfg(scenario=dataclasses.replace(TINY, alpha=alpha)))
        return sim._vectors(H0, trial_rng(TINY.rng_seed, 0, 3))[0]

    ref = enrolled(0.0)
    for alpha in (0.01, 0.8, 2.0):
        assert np.array_equal(enrolled(alpha), ref)


# -- feature vector layout -----------------------------------------------------------


def features_of(meas, monkeypatch):
    # The real vector _quantized hands to the quantizer, in units of its RMS.
    monkeypatch.setattr(csipla.sim, "quantize", lambda x, codebook: x)
    return Simulator(tiny_cfg())._quantized(np.asarray(meas, dtype=complex))


def unit_rms(x):
    x = np.asarray(x, dtype=float)
    return x / np.sqrt(np.mean(x * x))


def test_quantized_feature_layout(monkeypatch):
    # each gain contributes its real part, then its imaginary part
    assert np.array_equal(features_of([3.0 + 4.0j], monkeypatch), unit_rms([3.0, 4.0]))


def test_quantized_feature_sample_major_order(monkeypatch):
    # the samples follow one another, antennas in index order within each
    m0 = [1.0 + 2.0j, 3.0 + 4.0j]
    m1 = [5.0 + 6.0j, 7.0 + 8.0j]
    got = features_of(m0 + m1, monkeypatch)
    assert np.array_equal(got, unit_rms([1, 2, 3, 4, 5, 6, 7, 8]))


def test_quantized_feature_length():
    cfg = tiny_cfg()
    meas = sample_channel(TINY.m_samples * TINY.n_b, 1.0, np.random.default_rng(33))
    assert Simulator(cfg)._quantized(meas).size == cfg.block_len == 2 * 4 * 8 * 2


# -- distribution table --------------------------------------------------------------


def test_pdf_table_counts_and_models():
    sim = Simulator(tiny_cfg())
    rows = sim.pdf_table(30)
    k = sim.code.k_info
    assert len(rows) == k + 1
    assert sum(r["h0_count"] for r in rows) == 30
    assert sum(r["h1_count"] for r in rows) == 30
    assert sum(r["h0_model_pmf"] for r in rows) == pytest.approx(1.0, abs=1e-9)
    assert sum(r["h1_model_pmf"] for r in rows) == pytest.approx(1.0, abs=1e-9)


# -- sweeps -----------------------------------------------------------------------


def test_sweep_recalibrates_per_value():
    rows, meta = sweep(tiny_cfg(channel_p_override=None, calibration_trials=20),
                       "snr_db", [0.0, 20.0])
    assert [r["value"] for r in rows] == [0.0, 20.0]
    assert meta["sweep_parameter"] == "snr_db"
    # less noise, cleaner bits: the crossover estimate must drop
    assert rows[1]["channel_p"] < rows[0]["channel_p"]
    for r in rows:
        assert r["parameter"] == "snr_db"
        assert set(r) >= {"k_info", "p0", "p1", "eta_th", "pd_model", "pfa_model"}


def test_sweep_quant_bits_changes_block_length():
    rows, _ = sweep(tiny_cfg(), "quant_bits", [1, 2])
    assert rows[0]["k_info"] == round(0.15 * 64)
    assert rows[1]["k_info"] == round(0.15 * 128)


def test_sweep_rejects_fractional_quant_bits():
    # truncating 1.5 would run 1-bit labels under a value column of 1.5;
    # the bad value is caught before the first value is simulated
    with pytest.raises(ValueError, match="integer"):
        sweep(tiny_cfg(), "quant_bits", [1.0, 1.5])


@pytest.mark.parametrize(
    "parameter, values", [("quant_bits", [1, 3]), ("code_rate", [0.15, 0.0001])]
)
def test_sweep_rejects_bad_value_before_simulating(monkeypatch, parameter, values):
    # quant_bits 3 gives block_len 192 and code_rate 0.0001 no payload bit;
    # neither may cost the first value's simulation.
    built = []

    def counting(cfg):
        built.append(cfg)
        return Simulator(cfg)

    monkeypatch.setattr(csipla.sim, "Simulator", counting)
    with pytest.raises(ConfigError):
        sweep(tiny_cfg(), parameter, values)
    assert built == []


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError) as err:
        sweep(tiny_cfg(), "bandwidth", [1.0])
    for name in SWEEP_PARAMETERS:
        assert name in str(err.value)


@pytest.mark.parametrize("values", [[0.9], [0.5, 0.9]])
def test_sweep_builds_one_code_per_value(monkeypatch, values):
    # The base configuration's metadata takes K and the CRC length from the
    # code rule; no code is built for it.
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return construct_code(*args, **kwargs)

    cfg = tiny_cfg(code_rate=0.4)
    monkeypatch.setattr(csipla.sim, "construct_code", counting)
    _, meta = sweep(cfg, "beta", values)
    assert len(built) == len(values)
    code = construct_code(cfg.block_len, cfg.code_rate, list_size=cfg.list_size)
    assert (meta["k_info"], meta["crc_len"]) == (code.k_info, code.crc_len)


def test_sweep_is_deterministic():
    a, _ = sweep(tiny_cfg(), "beta", [0.5, 0.9])
    b, _ = sweep(tiny_cfg(), "beta", [0.5, 0.9])
    assert a == b


# -- rendering ---------------------------------------------------------------------


def test_render_csv_layout():
    text = render_csv(
        ["x", "flag"],
        [{"x": 0.5, "flag": True}, {"x": 1.0 / 3.0, "flag": False}],
        {"seed": 1},
    )
    lines = text.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].startswith("# meta=")
    assert json.loads(lines[1][len("# meta=") :]) == {"seed": 1}
    assert lines[2] == "x,flag"
    assert lines[3] == "0.5,true"
    assert lines[4] == "0.3333333333,false"


def test_rerunning_experiment_is_byte_identical():
    def render_once():
        sim = Simulator(tiny_cfg())
        rows = sim.roc_table(25)
        cols = list(rows[0])
        return render_csv(cols, rows, sim.metadata())

    assert render_once() == render_once()


def test_write_results_creates_csv_and_sidecar(tmp_path):
    sim = Simulator(tiny_cfg())
    rows = sim.roc_table(10)
    base = str(tmp_path / "out")
    write_results(base, list(rows[0]), rows, sim.metadata())
    csv_text = (tmp_path / "out.csv").read_text()
    assert csv_text.startswith("# schema=1\n")
    meta = json.loads((tmp_path / "out.meta.json").read_text())
    assert meta["schema"] == 1
    assert meta["version"].startswith("csipla-")
