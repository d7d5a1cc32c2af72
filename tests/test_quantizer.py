"""Lloyd-Max design, Gray labeling, and the quantization map."""

import math

import numpy as np
import pytest

from csipla.quantizer import (
    MAX_BITS,
    design_codebook,
    level_indices,
    quantize,
)


def truncated_gaussian_mean(a, b, mu, sigma):
    """Independent centroid oracle: E[X | a < X < b] for X ~ N(mu, sigma^2)."""
    pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    cdf = lambda t: 0.5 * (1 + math.erf(t / math.sqrt(2)))
    ta = -math.inf if a == -math.inf else (a - mu) / sigma
    tb = math.inf if b == math.inf else (b - mu) / sigma
    den = (cdf(tb) if tb < math.inf else 1.0) - (cdf(ta) if ta > -math.inf else 0.0)
    num = (pdf(ta) if ta > -math.inf else 0.0) - (pdf(tb) if tb < math.inf else 0.0)
    return mu + sigma * num / den


# -- Gray labels -----------------------------------------------------------


def labels(n_bits):
    """The designed codebook's Gray labels as strings, MSB first."""
    return ["".join(map(str, row)) for row in design_codebook(n_bits).label_bits]


def test_gray_code_two_bit_sequence():
    assert labels(2) == ["00", "01", "11", "10"]


def test_gray_code_three_bit_sequence():
    want = ["000", "001", "011", "010", "110", "111", "101", "100"]
    assert labels(3) == want


@pytest.mark.parametrize("n_bits", range(1, 7))
def test_gray_code_adjacent_labels_differ_in_one_bit(n_bits):
    got = labels(n_bits)
    assert len(set(got)) == 1 << n_bits
    for a, b in zip(got, got[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1
    # reflected construction also closes the cycle
    assert sum(x != y for x, y in zip(got[-1], got[0])) == 1


# -- codebook design -------------------------------------------------------


def test_one_bit_levels_converge_to_half_normal_mean():
    cb = design_codebook(1)
    want = math.sqrt(2.0 / math.pi)
    assert cb.levels == pytest.approx([-want, want], abs=1e-4)
    assert cb.boundaries == pytest.approx([0.0], abs=1e-6)


def test_two_bit_levels_match_published_values():
    cb = design_codebook(2)
    assert cb.levels == pytest.approx([-1.5104, -0.4528, 0.4528, 1.5104], abs=1e-3)


def test_boundaries_are_level_midpoints():
    for n_bits in range(1, 9):
        cb = design_codebook(n_bits)
        mids = 0.5 * (cb.levels[:-1] + cb.levels[1:])
        assert cb.boundaries == pytest.approx(mids, abs=1e-10)


# The oracle's cdf differences lose precision in the tail cells beyond 8 bits.
@pytest.mark.parametrize("n_bits", range(1, 9))
def test_levels_satisfy_centroid_condition(n_bits):
    cb = design_codebook(n_bits)
    edges = [-math.inf, *cb.boundaries.tolist(), math.inf]
    for i, level in enumerate(cb.levels):
        want = truncated_gaussian_mean(edges[i], edges[i + 1], 0.0, 1.0)
        assert level == pytest.approx(want, abs=1e-10)


def test_widest_design_is_increasing_and_antisymmetric():
    levels = design_codebook(MAX_BITS).levels
    assert np.all(np.diff(levels) > 0)
    assert np.array_equal(levels, -levels[::-1])


@pytest.mark.parametrize("n_bits", [0, MAX_BITS + 1])
def test_design_rejects_widths_outside_range(n_bits):
    with pytest.raises(ValueError, match="n_bits"):
        design_codebook(n_bits)


def test_design_is_locally_optimal():
    # Nudging any single level away from the converged point cannot lower
    # the mean squared error under the design density.
    cb = design_codebook(2)
    z = np.linspace(-6.0, 6.0, 12_001)
    w = np.exp(-0.5 * z * z)

    def mse(levels):
        d = np.min(np.abs(z[:, None] - levels[None, :]) ** 2, axis=1)
        return float((w * d).sum() / w.sum())

    best = mse(cb.levels)
    for i in range(cb.levels.size):
        for eps in (-0.01, 0.01):
            perturbed = cb.levels.copy()
            perturbed[i] += eps
            assert mse(perturbed) >= best - 1e-12


# -- quantization map ------------------------------------------------------


def test_quantize_levels_return_own_labels():
    cb = design_codebook(2)
    got = quantize(cb.levels, cb)
    assert np.array_equal(got, cb.label_bits.reshape(-1))


def test_quantize_one_bit_sign_rule():
    cb = design_codebook(1)
    assert np.array_equal(quantize(np.array([-5.0, 0.1]), cb), [0, 1])


def test_quantize_output_shape_and_dtype():
    cb = design_codebook(2)
    bits = quantize(np.random.default_rng(0).normal(size=1024), cb)
    assert bits.shape == (2048,)
    assert bits.dtype == np.uint8
    assert set(np.unique(bits)) <= {0, 1}


def test_level_indices_nearest_neighbor():
    cb = design_codebook(3)
    x = np.random.default_rng(1).normal(size=2000) * 2.0
    idx = level_indices(x, cb)
    brute = np.argmin(np.abs(x[:, None] - cb.levels[None, :]), axis=1)
    assert np.array_equal(idx, brute)


def test_level_indices_boundary_ties_go_low():
    cb = design_codebook(2)
    idx = level_indices(cb.boundaries, cb)
    assert np.array_equal(idx, [0, 1, 2])


def test_level_indices_monotone():
    cb = design_codebook(2)
    x = np.sort(np.random.default_rng(2).normal(size=500))
    idx = level_indices(x, cb)
    assert np.all(np.diff(idx) >= 0)


def test_quantize_clamps_outliers():
    cb = design_codebook(2)
    assert level_indices(np.array([-1e9]), cb)[0] == 0
    assert level_indices(np.array([1e9]), cb)[0] == cb.levels.size - 1


def test_reconstruct_quantize_is_idempotent():
    # Re-quantizing a reconstruction level returns that same level.
    cb = design_codebook(2)
    x = np.random.default_rng(4).normal(size=100)
    once = cb.levels[level_indices(x, cb)]
    twice = cb.levels[level_indices(once, cb)]
    assert np.array_equal(once, twice)


def test_label_bits_match_gray_strings():
    # Oracle: the reflected construction, each width the previous one's
    # labels behind a 0 and then, in reverse order, behind a 1.
    want = [""]
    for n_bits in range(1, 9):
        want = ["0" + w for w in want] + ["1" + w for w in reversed(want)]
        cb = design_codebook(n_bits)
        assert cb.label_bits.shape == (1 << n_bits, n_bits)
        assert cb.label_bits.dtype == np.uint8
        assert labels(n_bits) == want
