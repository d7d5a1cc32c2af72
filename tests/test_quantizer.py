"""Lloyd-Max design, Gray labeling, and the quantization map."""

import math

import numpy as np
import pytest

from csipla.quantizer import (
    design_codebook,
    gray_code,
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


def test_gray_code_two_bit_sequence():
    assert [gray_code(i, 2) for i in range(4)] == ["00", "01", "11", "10"]


def test_gray_code_three_bit_sequence():
    want = ["000", "001", "011", "010", "110", "111", "101", "100"]
    assert [gray_code(i, 3) for i in range(8)] == want


@pytest.mark.parametrize("n_bits", range(1, 7))
def test_gray_code_adjacent_labels_differ_in_one_bit(n_bits):
    labels = [gray_code(i, n_bits) for i in range(1 << n_bits)]
    assert len(set(labels)) == 1 << n_bits
    for a, b in zip(labels, labels[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1
    # reflected construction also closes the cycle
    assert sum(x != y for x, y in zip(labels[-1], labels[0])) == 1


def test_gray_code_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gray_code(0, 0)
    with pytest.raises(ValueError):
        gray_code(4, 2)
    with pytest.raises(ValueError):
        gray_code(-1, 2)


# -- codebook design -------------------------------------------------------


def test_initial_levels_are_slice_midpoints():
    # max_iters=0 exposes the starting point: midpoints of 2^n equal slices
    # of [mu - 3 sigma, mu + 3 sigma].
    with pytest.warns(RuntimeWarning):
        cb = design_codebook(1, max_iters=0)
    assert np.allclose(cb.levels, [-1.5, 1.5])
    with pytest.warns(RuntimeWarning):
        cb = design_codebook(2, max_iters=0)
    assert np.allclose(cb.levels, [-2.25, -0.75, 0.75, 2.25])


def test_one_bit_levels_converge_to_half_normal_mean():
    cb = design_codebook(1)
    want = math.sqrt(2.0 / math.pi)
    assert cb.levels == pytest.approx([-want, want], abs=1e-4)
    assert cb.boundaries == pytest.approx([0.0], abs=1e-6)


def test_two_bit_levels_match_published_values():
    cb = design_codebook(2)
    assert cb.levels == pytest.approx([-1.5104, -0.4528, 0.4528, 1.5104], abs=1e-3)


def test_boundaries_are_level_midpoints():
    for n_bits in (1, 2, 3):
        cb = design_codebook(n_bits)
        mids = 0.5 * (cb.levels[:-1] + cb.levels[1:])
        assert np.allclose(cb.boundaries, mids, atol=1e-12)


@pytest.mark.parametrize("n_bits", [1, 2, 3])
def test_levels_satisfy_centroid_condition(n_bits):
    cb = design_codebook(n_bits)
    edges = [-math.inf, *cb.boundaries.tolist(), math.inf]
    for i, level in enumerate(cb.levels):
        want = truncated_gaussian_mean(edges[i], edges[i + 1], 0.0, 1.0)
        assert level == pytest.approx(want, abs=1e-5)


def test_design_commutes_with_affine_map():
    base = design_codebook(2)
    scaled = design_codebook(2, mu=2.0, sigma=3.0)
    assert np.allclose(scaled.levels, 2.0 + 3.0 * base.levels, atol=1e-8)
    assert np.allclose(scaled.boundaries, 2.0 + 3.0 * base.boundaries, atol=1e-8)


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


def test_design_rejects_bad_sigma():
    with pytest.raises(ValueError):
        design_codebook(2, sigma=0.0)


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
    cb = design_codebook(3)
    for i, label in enumerate(cb.gray_labels):
        assert label == gray_code(i, 3)
        assert np.array_equal(cb.label_bits[i], [int(b) for b in label])
