"""Binomial disagreement model, tail probabilities, threshold calibration."""

import math

import numpy as np
import pytest

from csipla.authenticator import (
    BinomialModel,
    binomial_pmf,
    calibrate_threshold,
    closed_form_pd,
    closed_form_pfa,
    hamming_distance,
    pmf_vector,
    total_variation,
)


def direct_pmf(n, p, k):
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


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
        BinomialModel(0, 0.5)
    with pytest.raises(ValueError):
        BinomialModel(10, -0.1)
    with pytest.raises(ValueError):
        BinomialModel(10, 1.1)


def test_pmf_degenerate_rates():
    m0 = BinomialModel(10, 0.0)
    assert binomial_pmf(m0, 0) == 1.0
    assert binomial_pmf(m0, 3) == 0.0
    m1 = BinomialModel(10, 1.0)
    assert binomial_pmf(m1, 10) == 1.0
    assert binomial_pmf(m1, 0) == 0.0


def test_pmf_hand_values():
    m = BinomialModel(2, 0.5)
    assert pmf_vector(m) == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)


def test_pmf_mode_matches_mean():
    # (n + 1) p = 4.99, so the mode sits at 4
    m = BinomialModel(10, 0.4539)
    assert int(np.argmax(pmf_vector(m))) == 4


def test_pmf_matches_direct_formula():
    m = BinomialModel(30, 0.37)
    for k in range(31):
        assert binomial_pmf(m, k) == pytest.approx(direct_pmf(30, 0.37, k), rel=1e-12)


@pytest.mark.parametrize("k_len", [1, 10, 100, 1024])
def test_pmf_normalizes(k_len):
    for p in (0.01, 0.4539, 0.5, 0.93):
        assert abs(pmf_vector(BinomialModel(k_len, p)).sum() - 1.0) <= 1e-12


def test_pmf_normalizes_at_large_length():
    # log-space evaluation rounds per term, so the defect grows about
    # linearly in k_len; grant the jumbo case a proportional budget
    for p in (0.01, 0.5, 0.93):
        assert abs(pmf_vector(BinomialModel(4096, p)).sum() - 1.0) <= 1e-11


def test_pmf_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        binomial_pmf(BinomialModel(5, 0.5), 6)
    with pytest.raises(ValueError):
        binomial_pmf(BinomialModel(5, 0.5), -1)


# -- closed-form error rates ---------------------------------------------------


def test_tail_probabilities_match_pmf_sums():
    m = BinomialModel(20, 0.3)
    pmf = pmf_vector(m)
    for th in range(21):
        want = float(pmf[th + 1 :].sum())
        assert closed_form_pfa(20, 0.3, th) == pytest.approx(want, abs=1e-12)
        assert closed_form_pd(20, 0.3, th) == pytest.approx(want, abs=1e-12)


def test_tail_at_full_threshold_is_zero():
    assert closed_form_pfa(10, 0.3, 10) == 0.0
    assert closed_form_pd(10, 0.9, 10) == 0.0


def test_tail_with_zero_rate_is_zero():
    assert closed_form_pfa(10, 0.0, 0) == 0.0


def test_tail_never_exceeds_one():
    # The pmf terms are rounded before they are summed, so near p = 1/2 an
    # unclipped tail overshoots 1 at hundreds of thresholds of K = 819.
    assert all(closed_form_pd(819, 0.50130, t) <= 1.0 for t in range(820))


def test_detection_hand_value():
    # P(eta > 0) = 1 - (1 - p)^10 with p = 0.4539
    want = 1.0 - (1.0 - 0.4539) ** 10
    assert closed_form_pd(10, 0.4539, 0) == pytest.approx(want, abs=1e-12)
    assert closed_form_pd(10, 0.4539, 0) == pytest.approx(0.9976410, abs=1e-6)


# -- threshold calibration -------------------------------------------------------


def test_calibrated_threshold_hand_case():
    # Binomial(10, 0.1): P(eta > 4) = 1.63e-3 > 1e-3 >= P(eta > 5) = 1.47e-4
    assert calibrate_threshold(10, 0.1, 1e-3) == 5
    assert closed_form_pfa(10, 0.1, 4) > 1e-3
    assert closed_form_pfa(10, 0.1, 5) <= 1e-3


def test_calibrated_threshold_is_minimal():
    # brute force the defining property over a parameter grid
    targets = (1e-1, 1e-2, 1e-3, 1e-4)
    for k_len in range(1, 21):
        for p0 in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45):
            for target in targets:
                got = calibrate_threshold(k_len, p0, target)
                want = min(
                    t for t in range(k_len + 1) if closed_form_pfa(k_len, p0, t) <= target
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
    m = BinomialModel(2, 0.5)
    etas = np.array([0] + [1, 1] + [2])  # empirical [0.25, 0.5, 0.25]
    assert total_variation(etas, m) == pytest.approx(0.0, abs=1e-12)


def test_total_variation_hand_value():
    m = BinomialModel(1, 0.5)
    assert total_variation(np.array([0, 0, 0, 1]), m) == pytest.approx(0.25)


def test_total_variation_disjoint_is_one():
    m = BinomialModel(4, 0.0)
    assert total_variation(np.full(100, 4), m) == pytest.approx(1.0)


def test_total_variation_validates_input():
    m = BinomialModel(4, 0.5)
    with pytest.raises(ValueError):
        total_variation(np.array([], dtype=int), m)
    with pytest.raises(ValueError):
        total_variation(np.array([5]), m)
    with pytest.raises(ValueError):
        total_variation(np.array([-1]), m)
