"""Fading draws, AR(1) evolution and measurement models."""

import numpy as np
import pytest

from csipla.channel import (
    ConfigError,
    ScenarioConfig,
    gauss_markov_step,
    measurement,
    sample_channel,
    sigma_z2_to_snr_db,
    snr_db_to_sigma_z2,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- fading draws ---------------------------------------------------------


def test_sample_channel_is_circular_gaussian():
    h = sample_channel(200_000, 1.0, rng())
    assert h.dtype.kind == "c"
    assert abs(h.mean()) < 0.02
    # E|h|^2 = sigma_h2, split evenly between the two components.
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)
    assert h.real.var() == pytest.approx(0.5, abs=0.01)
    assert h.imag.var() == pytest.approx(0.5, abs=0.01)


def test_sample_channel_scales_with_variance():
    h = sample_channel(200_000, 4.0, rng(1))
    assert np.mean(np.abs(h) ** 2) == pytest.approx(4.0, abs=0.08)


def test_sample_channel_deterministic_per_seed():
    a = sample_channel(64, 1.0, rng(7))
    b = sample_channel(64, 1.0, rng(7))
    assert np.array_equal(a, b)


# -- first-order Gauss-Markov step ---------------------------------------


def test_gauss_markov_beta_one_is_identity():
    h = sample_channel(256, 1.0, rng(2))
    assert np.array_equal(gauss_markov_step(h, 1.0, 1.0, rng(3)), h)


def test_gauss_markov_beta_zero_is_fresh_draw():
    h = sample_channel(200_000, 1.0, rng(4))
    nxt = gauss_markov_step(h, 0.0, 1.0, rng(5))
    corr = np.mean(nxt * np.conj(h))
    assert abs(corr) < 0.02
    assert np.mean(np.abs(nxt) ** 2) == pytest.approx(1.0, abs=0.02)


def test_gauss_markov_preserves_stationary_moments():
    # One step from a stationary draw keeps E|h|^2 = sigma_h2 and produces
    # complex correlation beta * sigma_h2 with the previous state.
    beta = 0.7
    h = sample_channel(200_000, 1.0, rng(6))
    nxt = gauss_markov_step(h, beta, 1.0, rng(7))
    assert np.mean(np.abs(nxt) ** 2) == pytest.approx(1.0, abs=0.02)
    assert np.mean(nxt * np.conj(h)).real == pytest.approx(beta, abs=0.02)


def test_gauss_markov_chain_stays_stationary():
    h = sample_channel(20_000, 2.0, rng(8))
    g = rng(9)
    for _ in range(20):
        h = gauss_markov_step(h, 0.9, 2.0, g)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(2.0, abs=0.08)


@pytest.mark.parametrize("beta", [-0.1, 1.1, 2.0])
def test_gauss_markov_rejects_invalid_beta(beta):
    h = sample_channel(8, 1.0, rng(10))
    with pytest.raises(ValueError):
        gauss_markov_step(h, beta, 1.0, rng(11))


# -- measurements ---------------------------------------------------------


def test_enrollment_noiseless_returns_channel():
    h = sample_channel(128, 1.0, rng(12))
    assert np.array_equal(measurement(h, [], 0.5, 0.0, rng(13)), h)


def test_enrollment_noise_power():
    h = sample_channel(200_000, 1.0, rng(14))
    y = measurement(h, [], 0.5, 0.25, rng(15))
    assert np.mean(np.abs(y - h) ** 2) == pytest.approx(0.25, abs=0.01)


def test_auth_without_interference_matches_enrollment():
    # alpha = 0 must reduce to the enrollment model, which has no
    # interferers for any alpha to weight, draw for draw.
    h = sample_channel(128, 1.0, rng(16))
    ints = [sample_channel(128, 1.0, rng(17)) for _ in range(3)]
    y_auth = measurement(h, ints, 0.0, 0.1, rng(42))
    y_enr = measurement(h, [], 0.5, 0.1, rng(42))
    assert np.array_equal(y_auth, y_enr)


def test_auth_unit_weight_superposition():
    h = sample_channel(64, 1.0, rng(19))
    y = measurement(h, [h], 1.0, 0.0, rng(20))
    assert np.allclose(y, 2.0 * h)


def test_auth_interference_power():
    # U interferers at weight alpha add U * alpha^2 * sigma_h2 of power.
    n, alpha, u = 200_000, 0.5, 3
    h = sample_channel(n, 1.0, rng(21))
    ints = [sample_channel(n, 1.0, rng(22 + i)) for i in range(u)]
    y = measurement(h, ints, alpha, 0.0, rng(25))
    assert np.mean(np.abs(y - h) ** 2) == pytest.approx(u * alpha**2, abs=0.02)


def test_auth_rejects_mismatched_interferer_length():
    h = sample_channel(64, 1.0, rng(30))
    bad = sample_channel(32, 1.0, rng(31))
    with pytest.raises(ValueError):
        measurement(h, [bad], 0.1, 0.0, rng(32))


# -- SNR bookkeeping ------------------------------------------------------


def test_snr_conversion_values():
    assert snr_db_to_sigma_z2(10.0) == pytest.approx(0.1)
    assert snr_db_to_sigma_z2(0.0) == pytest.approx(1.0)
    assert sigma_z2_to_snr_db(0.1) == pytest.approx(10.0)


def test_snr_conversion_round_trip():
    for snr in [-3.0, 0.0, 5.0, 12.5]:
        assert sigma_z2_to_snr_db(snr_db_to_sigma_z2(snr)) == pytest.approx(snr)


# -- scenario configuration -----------------------------------------------


def test_scenario_defaults():
    sc = ScenarioConfig()
    assert sc.n_b == 32
    assert sc.beta == 0.9
    assert sc.sigma_z2 == pytest.approx(0.1)
    assert sc.u_interferers == 3
    assert sc.alpha == 0.01
    assert sc.m_samples == 16
    assert sc.rng_seed == 12345
    assert sc.snr_db == pytest.approx(10.0)
    assert sc.n_features == 2 * 32 * 16


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_b": 0},
        {"m_samples": 0},
        {"beta": 1.5},
        {"beta": -0.2},
        {"sigma_h2": 0.0},
        {"sigma_z2": -0.1},
        {"u_interferers": -1},
        {"rng_seed": -1},
        {"sigma_z2": float("inf")},
        {"sigma_h2": float("inf")},
        {"alpha": float("nan")},
    ],
)
def test_scenario_rejects_invalid(kwargs):
    with pytest.raises(ConfigError):
        ScenarioConfig(**kwargs)
