"""Multiuser fading model and CSI measurement synthesis.

Channel gains follow a first-order Gauss-Markov process in the slot index,
so consecutive slots stay correlated while the marginal distribution remains
complex Gaussian with fixed variance.  Enrollment measurements see only
receiver noise; authentication measurements additionally pick up weighted
interference from concurrently transmitting users.  A measurement's float64
view (each gain's real part followed by its imaginary part) is the real
feature vector that downstream stages quantize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def snr_db_to_sigma_z2(snr_db: float, sigma_h2: float = 1.0) -> float:
    """Noise variance that realizes a target per-antenna SNR in dB."""
    return sigma_h2 / (10.0 ** (snr_db / 10.0))


def sigma_z2_to_snr_db(sigma_z2: float, sigma_h2: float = 1.0) -> float:
    """Inverse of :func:`snr_db_to_sigma_z2`."""
    if sigma_z2 <= 0:
        raise ValueError("sigma_z2 must be positive to express an SNR")
    return 10.0 * math.log10(sigma_h2 / sigma_z2)


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical parameters of one simulated deployment.

    Attributes
    ----------
    n_b : int
        Number of receive antennas (complex gains per channel vector).
    beta : float
        Slot-to-slot Gauss-Markov correlation, in [0, 1].
    sigma_h2 : float
        Stationary variance of each complex channel gain.
    sigma_z2 : float
        Measurement noise variance; SNR = sigma_h2 / sigma_z2.
    u_interferers : int
        Number of concurrently transmitting users whose weighted channels
        leak into measurements taken while they are active.
    alpha : float
        Interference weight applied to every interferer's channel.
    m_samples : int
        Measurements collected per phase; each carries an independent
        fading realization, and the feature vector concatenates them.
    rng_seed : int
        Master seed from which all per-trial streams are derived.
    """

    n_b: int = 32
    beta: float = 0.9
    sigma_h2: float = 1.0
    sigma_z2: float = 0.1
    u_interferers: int = 3
    alpha: float = 0.01
    m_samples: int = 16
    rng_seed: int = 12345

    def __post_init__(self):
        if self.n_b < 1:
            raise ValueError("n_b must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.sigma_h2 <= 0:
            raise ValueError("sigma_h2 must be positive")
        if self.sigma_z2 < 0:
            raise ValueError("sigma_z2 must be non-negative")
        if self.u_interferers < 0:
            raise ValueError("u_interferers must be >= 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.m_samples < 1:
            raise ValueError("m_samples must be >= 1")

    @property
    def snr_db(self) -> float:
        return sigma_z2_to_snr_db(self.sigma_z2, self.sigma_h2)

    @property
    def n_features(self) -> int:
        """Length of the real feature vector: 2 * m_samples * n_b."""
        return 2 * self.m_samples * self.n_b


def _complex_gaussian(n: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    if variance == 0.0:
        return np.zeros(n, dtype=complex)
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def sample_channel(n_b: int, sigma_h2: float, rng: np.random.Generator) -> np.ndarray:
    """Draw a stationary channel vector, i.i.d. CN(0, sigma_h2) per antenna."""
    if n_b < 1:
        raise ValueError("n_b must be >= 1")
    if sigma_h2 <= 0:
        raise ValueError("sigma_h2 must be positive")
    return _complex_gaussian(n_b, sigma_h2, rng)


def gauss_markov_step(
    h_prev: np.ndarray, beta: float, sigma_h2: float, rng: np.random.Generator
) -> np.ndarray:
    """Advance a channel vector by one slot.

    h(t+1) = beta * h(t) + sqrt(1 - beta^2) * n with n ~ CN(0, sigma_h2), so
    the stationary variance is preserved and the lag-l autocorrelation decays
    as beta**l.  beta = 1 freezes the channel, beta = 0 decorrelates it.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    innovation = _complex_gaussian(h_prev.size, sigma_h2, rng)
    return beta * h_prev + math.sqrt(1.0 - beta * beta) * innovation


def enrollment_measurement(
    h_a: np.ndarray, sigma_z2: float, rng: np.random.Generator
) -> np.ndarray:
    """Noisy CSI estimate of the legitimate channel, no interference."""
    return h_a + _complex_gaussian(h_a.size, sigma_z2, rng)


def auth_measurement(
    h_u: np.ndarray,
    interferers: list[np.ndarray],
    alpha,
    sigma_z2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Noisy CSI estimate during authentication.

    Parameters
    ----------
    h_u : ndarray
        Channel of the user under test (legitimate or impersonating).
    interferers : list of ndarray
        Channel vectors of concurrently transmitting users.
    alpha : float or sequence of float
        Interference weight; a scalar applies uniformly, a sequence gives
        one weight per interferer.
    """
    weights = np.broadcast_to(np.asarray(alpha, dtype=float), (len(interferers),))
    out = h_u + _complex_gaussian(h_u.size, sigma_z2, rng)
    for w, h_i in zip(weights, interferers):
        if h_i.shape != h_u.shape:
            raise ValueError(
                f"interferer shape {h_i.shape} does not match user channel {h_u.shape}"
            )
        out = out + w * h_i
    return out

