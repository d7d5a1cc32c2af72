"""Acceptance checks for the end-to-end authentication pipeline.

One test per criterion, each printing one PASS/FAIL line per checked clause
so a verbose run doubles as the results table. All runs use the library's
default master seed; sweeps recalibrate per value on common random numbers,
and detection/false-alarm probabilities quoted as "closed form" come from
the calibrated binomial models, with empirical rates reported alongside.

The full module takes a few minutes: the sweeps recalibrate a 2048-bit list
decoder for every parameter value.
"""

import dataclasses
import math

import numpy as np
import pytest

from csipla.authenticator import (
    calibrate_threshold,
    pmf_vector,
    tail_vector,
    total_variation,
)
from csipla.channel import ScenarioConfig, snr_db_to_sigma_z2
from csipla.polar import (
    bec_erasure_probs,
    construct_code,
    extract_side_info,
    polar_transform,
    scl_decode,
)
from csipla.quantizer import design_codebook
from csipla.sim import H0, H1, ExperimentConfig, Simulator, render_csv, sweep


class ClauseRecorder:
    """Echo clause verdicts to the live terminal and tally them."""

    def __init__(self, capsys):
        self._capsys = capsys
        self._results = []

    def __call__(self, tag, ok, detail):
        ok = bool(ok)
        with self._capsys.disabled():
            print(f"{tag}: {'PASS' if ok else 'FAIL'}  [{detail}]", flush=True)
        self._results.append((tag, ok))
        return ok

    def finish(self):
        failed = [tag for tag, ok in self._results if not ok]
        assert not failed, f"failed clauses: {failed}"


@pytest.fixture
def report(capsys):
    return ClauseRecorder(capsys)


def default_cfg(**kw):
    return ExperimentConfig(**kw)


def test_c1_default_operating_point(report):
    # Defaults: 32 antennas, 16 samples, 2-bit labels, rate 0.01, 10 dB,
    # correlation 0.9. Checks the calibrated disagreement rates and how
    # closely the observed statistic tracks its binomial model.
    cfg = default_cfg(trials=4000)
    sim = Simulator(cfg)
    sim.calibrate()
    k = sim.code.k_info
    etas0 = sim.run_batch(H0, cfg.trials)
    etas1 = sim.run_batch(H1, cfg.trials)
    p0_hat = float(etas0.mean()) / k
    p1_hat = float(etas1.mean()) / k
    tv0 = total_variation(etas0, k, sim.p0)
    tv1 = total_variation(etas1, k, sim.p1)

    report("C1 trial budget >= 1000 per hypothesis", cfg.trials >= 1000,
           f"trials={cfg.trials}")
    report("C1 legitimate disagreement rate p0 <= 0.01",
           sim.p0 <= 0.01 and p0_hat <= 0.01,
           f"calibrated p0={sim.p0:.5f}, measured {p0_hat:.5f}")
    report("C1 impostor disagreement rate p1 = 0.4539 +/- 0.05",
           abs(p1_hat - 0.4539) <= 0.05 and abs(sim.p1 - 0.4539) <= 0.05,
           f"calibrated p1={sim.p1:.4f}, measured {p1_hat:.4f}")
    report("C1 H0 statistic matches Binomial(K, p0), TV <= 0.05",
           tv0 <= 0.05, f"TV={tv0:.4f}")
    report("C1 H1 statistic matches Binomial(K, p1), TV <= 0.05",
           tv1 <= 0.05, f"TV={tv1:.4f}")
    report.finish()


def test_c2_detection_at_5db(report):
    sc = dataclasses.replace(ScenarioConfig(), sigma_z2=snr_db_to_sigma_z2(5.0))
    cfg = default_cfg(scenario=sc, trials=2000)
    sim = Simulator(cfg)
    rows = sim.roc_table(cfg.trials)

    pd_emp = max((r["pd_emp"] for r in rows if r["pfa_emp"] <= 1e-2), default=0.0)
    pd_model2 = max((r["pd_model"] for r in rows if r["pfa_model"] <= 1e-2), default=0.0)
    pd_model3 = max((r["pd_model"] for r in rows if r["pfa_model"] <= 1e-3), default=0.0)

    report("C2 empirical PD >= 0.99 at empirical PFA <= 1e-2",
           pd_emp >= 0.99, f"PD={pd_emp:.4f}")
    report("C2 closed-form PD >= 0.99 at closed-form PFA <= 1e-2",
           pd_model2 >= 0.99, f"PD={pd_model2:.5f}")
    report("C2 closed-form PD >= 0.998 at closed-form PFA <= 1e-3",
           pd_model3 >= 0.998, f"PD={pd_model3:.5f}")
    report.finish()


def test_c3_detection_across_temporal_correlation(report):
    rows, _ = sweep(default_cfg(), "beta", [0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0])
    by = {r["value"]: r for r in rows}
    for beta in (0.4, 0.6, 0.8, 0.9, 1.0):
        pd = by[beta]["pd_model"]
        report(f"C3 closed-form PD >= 0.99 at beta={beta}", pd >= 0.99,
               f"PD={pd:.5f}")
    report("C3 marked degradation at beta=0.2", by[0.2]["pd_model"] <= 0.5,
           f"PD={by[0.2]['pd_model']:.5f}")
    report("C3 near-total loss at beta=0.1", by[0.1]["pd_model"] <= 0.1,
           f"PD={by[0.1]['pd_model']:.5f}")
    report.finish()


def test_c4_interference_weight_table(report):
    for qb in (2, 1):
        rows, _ = sweep(default_cfg(quant_bits=qb), "alpha",
                        [0.0, 0.01, 0.8, 1.6, 2.0])
        by = {r["value"]: r for r in rows}
        for alpha in (0.0, 0.01, 0.8):
            pd = by[alpha]["pd_model"]
            report(f"C4 {qb}-bit PD >= 0.99 at alpha={alpha}", pd >= 0.99,
                   f"PD={pd:.5f}")
        for alpha in (1.6, 2.0):
            pd = by[alpha]["pd_model"]
            report(f"C4 {qb}-bit PD <= 0.05 at alpha={alpha}", pd <= 0.05,
                   f"PD={pd:.5f}")
    report.finish()


def test_c5_code_rate_table(report):
    for qb in (2, 1):
        rows, _ = sweep(default_cfg(quant_bits=qb), "code_rate",
                        [0.01, 0.1, 0.2, 0.3, 0.4])
        by = {r["value"]: r for r in rows}
        pd = by[0.01]["pd_model"]
        report(f"C5 {qb}-bit PD >= 0.99 at rate 0.01", pd >= 0.99, f"PD={pd:.5f}")
        for rate in (0.1, 0.2, 0.3, 0.4):
            pd = by[rate]["pd_model"]
            report(f"C5 {qb}-bit PD <= 0.05 at rate {rate}", pd <= 0.05,
                   f"PD={pd:.5f}")
    report.finish()


def test_c6_numerical_property_suite(report):
    rng = np.random.default_rng(0)

    lengths = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
    per_len = 1000 // len(lengths) + 1
    ok = all(
        np.array_equal(polar_transform(polar_transform(x)), x)
        for n in lengths
        for x in rng.integers(0, 2, size=(per_len, n)).astype(np.uint8)
    )
    report("C6 transform is an involution (1000 random vectors, up to 2048)",
           ok, f"{per_len * len(lengths)} vectors")

    worst = max(
        float(np.max(np.abs(
            bec_erasure_probs(n)[0::2] + bec_erasure_probs(n)[1::2]
            - 2.0 * bec_erasure_probs(n // 2)
        )))
        for n in lengths[1:]
    )
    report("C6 erasure-probability pair sums conserved to 1e-12",
           worst <= 1e-12, f"max defect={worst:.2e}")

    code = construct_code(1024, 0.01, list_size=1)
    exact = 0
    for _ in range(1000):
        q = rng.integers(0, 2, size=1024).astype(np.uint8)
        r, side = extract_side_info(q, code)
        exact += int(np.array_equal(scl_decode(q, side, code, 0.05), r))
    report("C6 noiseless decode exact on 1000 random vectors",
           exact == 1000, f"{exact}/1000")

    worst = max(
        abs(float(pmf_vector(k, p).sum()) - 1.0)
        for k in (1, 10, 100, 1024)
        for p in (0.01, 0.4539, 0.5, 0.93)
    )
    report("C6 binomial PMF normalizes to 1e-12 for K up to 1024",
           worst <= 1e-12, f"max defect={worst:.2e}")

    cb = design_codebook(1)
    want = math.sqrt(2.0 / math.pi)
    err = float(np.max(np.abs(cb.levels - np.array([-want, want]))))
    report("C6 one-bit quantizer levels hit +/- sqrt(2/pi) within 1e-4",
           err <= 1e-4, f"err={err:.2e}")

    ok = True
    for n_bits in range(1, 7):
        labels = [tuple(row) for row in design_codebook(n_bits).label_bits]
        ok &= len(set(labels)) == 1 << n_bits
        ok &= all(
            sum(x != y for x, y in zip(a, b)) == 1
            for a, b in zip(labels, labels[1:])
        )
    report("C6 Gray labels adjacent for widths 1..6", ok, "wraparound included")

    ok = True
    for k in range(1, 21):
        for p0 in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45):
            for target in (1e-1, 1e-2, 1e-3, 1e-4):
                got = calibrate_threshold(k, p0, target)
                want_th = min(
                    t for t in range(k + 1) if tail_vector(k, p0)[t] <= target
                )
                ok &= got == want_th
    report("C6 calibrated threshold minimal (brute force, K <= 20)", ok,
           "480 parameter points")

    def render_once():
        sc = ScenarioConfig(n_b=8, m_samples=4, rng_seed=99)
        cfg = ExperimentConfig(scenario=sc, code_rate=0.15, trials=25,
                               calibration_trials=25, channel_p_override=0.2)
        sim = Simulator(cfg)
        rows = sim.roc_table(25)
        return render_csv(list(rows[0]), rows, sim.metadata())

    report("C6 rerunning an experiment is byte-identical",
           render_once() == render_once(), "CSV text compared")
    report.finish()


def test_c7_detection_monotone_in_snr(report):
    snrs = [0.0, 5.0, 10.0, 15.0, 20.0]
    pd = {}
    for qb in (2, 1):
        rows, _ = sweep(default_cfg(quant_bits=qb), "snr_db", snrs)
        pd[qb] = [r["pd_model"] for r in rows]
        # sweeps share seed streams across values, so paired comparisons are
        # low-variance; 1e-3 absorbs the residual calibration jitter
        mono = all(b >= a - 1e-3 for a, b in zip(pd[qb], pd[qb][1:]))
        report(f"C7 {qb}-bit PD non-decreasing in SNR", mono,
               " ".join(f"{v:.5f}" for v in pd[qb]))
        floor_ok = all(v >= 0.99 for s, v in zip(snrs, pd[qb]) if s >= 5.0)
        report(f"C7 {qb}-bit PD >= 0.99 from 5 dB", floor_ok,
               f"min={min(v for s, v in zip(snrs, pd[qb]) if s >= 5.0):.5f}")
    dom = all(p2 >= p1 - 0.01 for p2, p1 in zip(pd[2], pd[1]))
    report("C7 2-bit labels never trail 1-bit by more than 0.01", dom,
           "compared per SNR point")
    report.finish()
