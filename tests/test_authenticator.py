"""Binomial disagreement model, tail probabilities, threshold calibration."""

import math

import numpy as np
import pytest

from csipla.authenticator import (
    calibrate_threshold,
    hamming_distance,
    pmf_vector,
    tail_vector,
    total_variation,
)


def direct_pmf(n, p, k):
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def exact_tails(n, p):
    """P(eta > t), t = 0..n, in rational arithmetic on the float's value.

    With p = a / b, every term is an integer over b^n, so the tails are
    integer suffix sums, each rounded once to a float.
    """
    a, b = p.as_integer_ratio()
    terms = [math.comb(n, k) * a**k * (b - a) ** (n - k) for k in range(n + 1)]
    tails, acc, den = [0.0] * (n + 1), 0, b**n
    for t in range(n - 1, -1, -1):
        acc += terms[t + 1]
        tails[t] = acc / den
    return tails


# -- Hamming statistic ------------------------------------------------------


def test_hamming_identical_is_zero():
    r = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    assert hamming_distance(r, r) == 0


def test_hamming_complement_is_full_length():
    r = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert hamming_distance(r, 1 - r) == 4


def test_hamming_hand_count():
    a = np.array([0, 0, 1, 1, 0], dtype=np.uint8)
    b = np.array([1, 0, 1, 0, 0], dtype=np.uint8)
    assert hamming_distance(a, b) == 2
    assert hamming_distance(b, a) == 2


def test_hamming_triangle_inequality():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = rng.integers(0, 2, size=(3, 32))
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


def test_hamming_rejects_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(np.zeros(4), np.zeros(5))


# -- binomial model -----------------------------------------------------------


def test_model_validates_parameters():
    with pytest.raises(ValueError):
        pmf_vector(0, 0.5)
    with pytest.raises(ValueError):
        pmf_vector(10, -0.1)
    with pytest.raises(ValueError):
        pmf_vector(10, 1.1)


def test_pmf_degenerate_rates():
    pmf0 = pmf_vector(10, 0.0)
    assert pmf0[0] == 1.0
    assert pmf0[3] == 0.0
    pmf1 = pmf_vector(10, 1.0)
    assert pmf1[10] == 1.0
    assert pmf1[0] == 0.0


def test_pmf_hand_values():
    assert pmf_vector(2, 0.5) == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)


def test_pmf_mode_matches_mean():
    # (n + 1) p = 4.99, so the mode sits at 4
    assert int(np.argmax(pmf_vector(10, 0.4539))) == 4


def test_pmf_matches_direct_formula():
    pmf = pmf_vector(30, 0.37)
    for k in range(31):
        assert pmf[k] == pytest.approx(direct_pmf(30, 0.37, k), rel=1e-12)


@pytest.mark.parametrize("k_len", [1, 10, 100, 1024])
def test_pmf_normalizes(k_len):
    for p in (0.01, 0.4539, 0.5, 0.93):
        assert abs(pmf_vector(k_len, p).sum() - 1.0) <= 1e-12


def test_pmf_normalizes_at_large_length():
    # log-space evaluation rounds per term, so the defect grows about
    # linearly in k_len; grant the jumbo case a proportional budget
    for p in (0.01, 0.5, 0.93):
        assert abs(pmf_vector(4096, p).sum() - 1.0) <= 1e-11


# -- closed-form error rates ---------------------------------------------------


def test_tail_probabilities_match_pmf_sums():
    pmf = pmf_vector(20, 0.3)
    tails = tail_vector(20, 0.3)
    for th in range(21):
        want = float(pmf[th + 1 :].sum())
        assert tails[th] == pytest.approx(want, abs=1e-12)


def test_tail_at_full_threshold_is_zero():
    assert tail_vector(10, 0.3)[10] == 0.0
    assert tail_vector(10, 0.9)[10] == 0.0


def test_tail_with_zero_rate_is_zero():
    assert tail_vector(10, 0.0)[0] == 0.0


def test_tail_never_exceeds_one():
    # The pmf terms are rounded before they are summed, so near p = 1/2 an
    # unclipped tail overshoots 1 at hundreds of thresholds of K = 819.
    tails = tail_vector(819, 0.50130)
    assert np.all(tails <= 1.0) and tails[-1] == 0.0
    assert np.all(np.diff(tails) <= 0.0)


@pytest.mark.parametrize("p", [0.0, 0.001, 0.1, 0.3, 0.5, 0.77, 0.99, 1.0])
def test_tail_vector_matches_exact_tails(p):
    for k_len in range(1, 41):
        got = tail_vector(k_len, p)
        want = exact_tails(k_len, p)
        assert got.shape == (k_len + 1,)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w


@pytest.mark.parametrize("p", [0.05, 0.49107, 0.50130])
def test_tail_vector_matches_exact_tails_at_high_rate(p):
    # K = 819 is the payload length at code rate 0.4, where the sum has the
    # most terms; the tolerance is perfbench's check of the ROC table.
    got = tail_vector(819, p)
    for g, w in zip(got, exact_tails(819, p)):
        assert abs(g - w) <= 1e-9 * w + 1e-300


def test_detection_hand_value():
    # P(eta > 0) = 1 - (1 - p)^10 with p = 0.4539
    want = 1.0 - (1.0 - 0.4539) ** 10
    assert tail_vector(10, 0.4539)[0] == pytest.approx(want, abs=1e-12)
    assert tail_vector(10, 0.4539)[0] == pytest.approx(0.9976410, abs=1e-6)


# -- threshold calibration -------------------------------------------------------


def test_calibrated_threshold_hand_case():
    # Binomial(10, 0.1): P(eta > 4) = 1.63e-3 > 1e-3 >= P(eta > 5) = 1.47e-4
    assert calibrate_threshold(10, 0.1, 1e-3) == 5
    assert tail_vector(10, 0.1)[4] > 1e-3
    assert tail_vector(10, 0.1)[5] <= 1e-3


def test_calibrated_threshold_is_minimal():
    # brute force the defining property over a parameter grid
    grid = [
        (k_len, p0, target)
        for k_len in range(1, 21)
        for p0 in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45)
        for target in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    grid += [(819, p0, target) for p0 in (0.05, 0.49107) for target in (1e-2, 1e-4)]
    for k_len, p0, target in grid:
        got = calibrate_threshold(k_len, p0, target)
        want = next(
            t for t in range(k_len + 1) if tail_vector(k_len, p0)[t] <= target
        )
        assert got == want


def test_calibrated_threshold_monotone_in_target():
    prev = -1
    for target in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6):
        th = calibrate_threshold(50, 0.2, target)
        assert th >= prev
        prev = th


def test_calibration_always_feasible_at_full_threshold():
    # eta can never exceed k_len, so eta_th = k_len satisfies any target
    assert calibrate_threshold(5, 0.99, 1e-9) == 5


def test_calibrated_threshold_holds_h0_batch_to_target():
    # Binomial(10, 0.01) alone gives eta_th = 1 at 5%, but this batch has
    # two failed decodes; one exceedance in 20 is the most 5% allows.
    etas = np.array([0] * 18 + [5, 9])
    assert calibrate_threshold(10, 0.01, 0.05) == 1
    th = calibrate_threshold(10, 0.01, 0.05, h0_etas=etas)
    assert th == 5
    assert np.mean(etas > th) <= 0.05 < np.mean(etas > th - 1)
    # a clean batch leaves the binomial threshold in charge
    assert calibrate_threshold(10, 0.01, 0.05, h0_etas=np.zeros(20, int)) == 1


def test_calibrated_threshold_rejects_out_of_range_batch():
    with pytest.raises(ValueError):
        calibrate_threshold(10, 0.1, 0.01, h0_etas=np.array([11]))
    with pytest.raises(ValueError):
        calibrate_threshold(10, 0.1, 0.01, h0_etas=np.array([], int))


def test_calibration_rejects_bad_target():
    with pytest.raises(ValueError):
        calibrate_threshold(10, 0.1, 0.0)
    with pytest.raises(ValueError):
        calibrate_threshold(10, 0.1, -1e-3)


# -- sample versus model distance --------------------------------------------------


def test_total_variation_zero_on_exact_match():
    etas = np.array([0] + [1, 1] + [2])  # empirical [0.25, 0.5, 0.25]
    assert total_variation(etas, 2, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_total_variation_hand_value():
    assert total_variation(np.array([0, 0, 0, 1]), 1, 0.5) == pytest.approx(0.25)


def test_total_variation_disjoint_is_one():
    assert total_variation(np.full(100, 4), 4, 0.0) == pytest.approx(1.0)


def test_total_variation_validates_input():
    with pytest.raises(ValueError):
        total_variation(np.array([], dtype=int), 4, 0.5)
    with pytest.raises(ValueError):
        total_variation(np.array([5]), 4, 0.5)
    with pytest.raises(ValueError):
        total_variation(np.array([-1]), 4, 0.5)
