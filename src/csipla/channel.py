"""Multiuser fading model and CSI measurement synthesis.

Channel gains follow a first-order Gauss-Markov process in the slot index,
so consecutive slots stay correlated while the marginal distribution remains
complex Gaussian with fixed variance.  One measurement model serves both
phases: receiver noise plus weighted interference from the users transmitting
at the time, none at enrollment and the U interferers at authentication.  A measurement's float64
view (each gain's real part followed by its imaginary part) is the real
feature vector that downstream stages quantize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """A configuration that no run can use, rejected when it is built."""


def snr_db_to_sigma_z2(snr_db: float, sigma_h2: float = 1.0) -> float:
    """Noise variance that realizes a target per-antenna SNR in dB."""
    try:
        return sigma_h2 / (10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"snr_db {snr_db} is out of range") from exc


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

    Each check raises :class:`ConfigError`.  A field's config file section
    is ``[scenario]`` unless its ``section`` metadata names another.
    """

    n_b: int = 32
    beta: float = 0.9
    sigma_h2: float = 1.0
    sigma_z2: float = 0.1
    u_interferers: int = 3
    alpha: float = 0.01
    m_samples: int = 16
    rng_seed: int = field(default=12345, metadata={"section": "sim"})

    def __post_init__(self):
        if self.n_b < 1:
            raise ConfigError("n_b must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError("beta must lie in [0, 1]")
        if not 0.0 < self.sigma_h2 < math.inf:
            raise ConfigError("sigma_h2 must be positive and finite")
        if not 0.0 <= self.sigma_z2 < math.inf:
            raise ConfigError("sigma_z2 must be non-negative and finite")
        if self.u_interferers < 0:
            raise ConfigError("u_interferers must be >= 0")
        if not 0.0 <= self.alpha < math.inf:
            raise ConfigError("alpha must be non-negative and finite")
        if self.m_samples < 1:
            raise ConfigError("m_samples must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")

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


def measurement(
    h_u: np.ndarray,
    interferers: list[np.ndarray],
    alpha: float,
    sigma_z2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Noisy CSI estimate of one user's channel while `interferers` transmit.

    Parameters
    ----------
    h_u : ndarray
        Channel of the user under test (legitimate or impersonating).
    interferers : list of ndarray
        Channel vectors of concurrently transmitting users; enrollment
        passes none.
    alpha : float
        Interference weight applied to every interferer's channel.
    """
    out = h_u + _complex_gaussian(h_u.size, sigma_z2, rng)
    for h_i in interferers:
        if h_i.shape != h_u.shape:
            raise ValueError(
                f"interferer shape {h_i.shape} does not match user channel {h_u.shape}"
            )
        out = out + alpha * h_i
    return out
