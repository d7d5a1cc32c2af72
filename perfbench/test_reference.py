"""Tests of the benchmark's own reference code and checks.

    python3 -m pytest -q perfbench

They need numpy only; csipla is not imported.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import checks
import reference as ref
from tracing import Tracer, job_profile, patched

# -- exact binomial tails ----------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 5, 12, 20])
@pytest.mark.parametrize("p", [0.0, 1e-3, 0.1, 0.3, 0.5, 0.77, 1.0])
def test_tails_match_comb_sum(k, p):
    fp = Fraction(p)
    for t, got in enumerate(ref.binomial_tails(k, p)):
        want = sum(
            math.comb(k, i) * fp**i * (1 - fp) ** (k - i) for i in range(t + 1, k + 1)
        )
        assert got == float(want)


def test_tails_end_at_zero_and_fall():
    tails = ref.binomial_tails(30, 0.4)
    assert tails[-1] == 0.0
    assert all(b <= a for a, b in zip(tails, tails[1:]))


def test_min_threshold():
    tails = ref.binomial_tails(20, 0.01)
    t = ref.min_threshold(tails, 1e-3)
    assert tails[t] <= 1e-3 < tails[t - 1]


# -- channel closed form -------------------------------------------------------


def test_crossover_limits_and_default_point():
    assert ref.crossover_1bit(1.0, 1.0, 0.0, 3, 0.0) == 0.0
    assert ref.crossover_1bit(0.0, 1.0, 0.1, 3, 0.01) == 0.5
    # The default point, 10 dB: rho = 0.9 / sqrt(1.1 * 1.1003).
    assert ref.crossover_1bit(0.9, 1.0, 0.1, 3, 0.01) == pytest.approx(0.19504, abs=1e-5)


def test_crossover_matches_sampled_sign_flips():
    rng = np.random.default_rng(0)
    n, beta, s_z2, u, alpha = 400_000, 0.8, 0.3, 2, 0.4
    h = rng.standard_normal(n)
    x = h + math.sqrt(s_z2) * rng.standard_normal(n)
    y = (beta * h + math.sqrt(1 - beta * beta) * rng.standard_normal(n)
         + math.sqrt(s_z2) * rng.standard_normal(n)
         + alpha * rng.standard_normal((u, n)).sum(axis=0))
    flips = np.mean(np.sign(x) != np.sign(y))
    assert flips == pytest.approx(ref.crossover_1bit(beta, 1.0, s_z2, u, alpha), abs=3e-3)


# -- transform, CRC, list decoder ----------------------------------------------


def test_transform_is_kronecker_power_and_involution():
    g = np.array([[1]], dtype=np.uint8)
    for _ in range(3):
        g = np.kron(np.array([[1, 0], [1, 1]], dtype=np.uint8), g)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.integers(0, 2, 8).astype(np.uint8)
        x = ref.polar_transform(u)
        assert np.array_equal(x, u @ g % 2)
        assert np.array_equal(ref.polar_transform(x), u)


@pytest.mark.parametrize("poly", [[1, 0, 0, 1, 1], [1, 0, 0, 0, 0, 0, 1, 1, 1], [1, 1]])
def test_crc_makes_the_codeword_divisible(poly):
    rng = np.random.default_rng(2)
    for length in (1, 7, 20, 64):
        m = rng.integers(0, 2, length).astype(np.uint8)
        r = ref.crc(m, poly)
        assert r.size == len(poly) - 1
        assert not ref.crc(np.concatenate([m, r]), poly).any()


def test_crc_hand_value():
    # (x^3 + 1) x^4 = x^7 + x^4; with x^4 = x + 1 that is x^3 (x + 1) + x + 1
    # = x^4 + x^3 + x + 1 = x^3 modulo x^4 + x + 1.
    assert ref.crc([1, 0, 0, 1], [1, 0, 0, 1, 1]).tolist() == [1, 0, 0, 0]


def _info_set(n, k):
    z = np.array([0.5])
    while z.size < n:
        nxt = np.empty(2 * z.size)
        nxt[0::2], nxt[1::2] = 2 * z - z * z, z * z
        z = nxt
    return np.sort(np.argsort(z, kind="stable")[:k])


@pytest.mark.parametrize("n,k,list_size", [(8, 3, 1), (64, 10, 2), (256, 40, 4), (1024, 10, 2)])
def test_noiseless_decode_returns_payload(n, k, list_size):
    rng = np.random.default_rng(n)
    info = _info_set(n, k)
    for _ in range(5):
        q = rng.integers(0, 2, n).astype(np.uint8)
        got = ref.scl_decode(q, q, info, [1, 0, 0, 1, 1], list_size, 0.2)
        assert np.array_equal(got, ref.polar_transform(q)[info])


def test_pinned_leaf_then_tie_goes_to_bit_zero():
    # u = T(1, 0) = (1, 0); u0 is pinned to 1.  Against an all-zero
    # observation the free bit u1 sees LLR b - a = 0: both candidates tie
    # and the stable order keeps bit 0 first.
    got = ref.scl_decode(np.zeros(2, np.uint8), np.array([1, 0], np.uint8), [1], [1, 1], 1, 0.1)
    assert got.tolist() == [0]


def test_crc_picks_a_worse_path_that_checks():
    # Payload (1, 0) has parity 1.  Against (0, 0) the best path is (0, 0),
    # whose parity fails; with two paths the CRC picks (1, 0), with one the
    # decoder falls back to the best path.
    q_enroll = np.array([1, 0], np.uint8)
    q_auth = np.zeros(2, np.uint8)
    assert ref.scl_decode(q_auth, q_enroll, [0, 1], [1, 1], 2, 0.1).tolist() == [1, 0]
    assert ref.scl_decode(q_auth, q_enroll, [0, 1], [1, 1], 1, 0.1).tolist() == [0, 0]


# -- checks catch corrupted outputs --------------------------------------------


def _roc_case(k=20, p0=0.004, p1=0.45, target=1e-3):
    t0, t1 = ref.binomial_tails(k, p0), ref.binomial_tails(k, p1)
    eta_th = ref.min_threshold(t0, target)
    rows = [
        {"eta_th": t, "pfa_emp": max(0.0, 0.2 - 0.1 * t), "pd_emp": max(0.0, 1.0 - 0.1 * t),
         "pfa_model": t0[t], "pd_model": t1[t]}
        for t in range(k + 1)
    ]
    meta = {"k_info": k, "p0": p0, "p1": p1, "eta_th": eta_th, "target_pfa": target,
            "block_len": 2048, "channel_p": 0.2}
    summary = {"pfa_model": t0[eta_th], "pfa_emp": 0.0}
    return rows, meta, summary


def test_valid_roc_passes():
    assert checks.check_roc(*_roc_case()) == []


def test_corrupted_model_rate_is_caught():
    rows, meta, summary = _roc_case()
    rows[1]["pfa_model"] *= 1 + 1e-6
    assert checks.check_roc(rows, meta, summary)


def test_model_rate_above_one_is_within_tolerance_but_counted_elsewhere():
    rows, meta, summary = _roc_case()
    rows[0]["pd_model"] += 2.6e-13
    assert checks.check_roc(rows, meta, summary) == []


def test_corrupted_threshold_is_caught():
    rows, meta, summary = _roc_case()
    meta["eta_th"] -= 1
    assert checks.check_roc(rows, meta, summary)


def test_increasing_empirical_column_is_caught():
    rows, meta, summary = _roc_case()
    rows[5]["pd_emp"] = 0.9
    assert checks.check_roc(rows, meta, summary)


def test_table_not_zero_at_k_is_caught():
    rows, meta, summary = _roc_case()
    rows[-1]["pfa_emp"] = 0.01
    assert checks.check_roc(rows, meta, summary)


def test_p0_not_below_p1_under_capacity_is_caught():
    assert checks.check_capacity(0.01, 0.2, 0.5, 0.4)
    assert checks.check_capacity(0.4, 0.3, 0.5, 0.4) == []


class _Scenario:
    beta, sigma_h2, u_interferers, alpha = 0.9, 1.0, 3, 0.01


class _Config:
    scenario = _Scenario()
    block_len, calibration_trials, target_pfa = 1024, 100, 1e-3


def _sweep_rows(values, shift=0.0):
    t0 = ref.binomial_tails(10, 0.001)
    eta_th = ref.min_threshold(t0, 1e-3)
    return [
        {"value": v, "k_info": 10, "p0": 0.001, "p1": 0.5, "eta_th": eta_th,
         "pfa_model": t0[eta_th], "pd_model": ref.binomial_tails(10, 0.5)[eta_th],
         "pfa_emp": 0.0, "trials": 100,
         "channel_p": ref.crossover_1bit(0.9, 1.0, 10 ** (-v / 10), 3, 0.01) + shift}
        for v in values
    ]


def test_sweep_checks():
    values = (0.0, 5.0, 10.0, 15.0, 20.0)
    assert checks.check_sweep(_sweep_rows(values), _Config(), values) == []
    assert checks.check_sweep(_sweep_rows(values, shift=0.01), _Config(), values)
    rows = _sweep_rows(values)
    rows[3]["channel_p"], rows[4]["channel_p"] = rows[4]["channel_p"], rows[3]["channel_p"]
    assert checks.check_sweep(rows, _Config(), values)


# -- tracing -------------------------------------------------------------------


def test_profile_self_time_and_patch_restore():
    class Box:
        @staticmethod
        def leaf():
            return 1

    tracer = Tracer()
    original = Box.leaf
    with patched({(Box, "leaf"): tracer.wrap("polar.leaf", Box.leaf)}):
        with tracer.span("job"):
            with tracer.span("sim.outer"):
                Box.leaf()
                Box.leaf()
    assert Box.leaf is original
    calls, busy, sim_self, job_s = job_profile(tracer.spans)
    assert calls == {"polar.leaf": 2, "sim.outer": 1}
    assert sim_self == pytest.approx(busy["sim.outer"] - busy["polar.leaf"], abs=1e-12)
    assert job_s >= busy["sim.outer"]
