"""Binomial hypothesis test on the reconciliation disagreement count.

Under either hypothesis the per-bit disagreement between the enrolled and
the freshly decoded payload is modeled as Bernoulli with rate p0 (legitimate
re-authentication) or p1 (impersonation), making the Hamming statistic
binomial over the K payload bits.  Acceptance is eta <= eta_th with the
boundary included.
"""

from __future__ import annotations

import math

import numpy as np


def hamming_distance(r1: np.ndarray, r2: np.ndarray) -> int:
    a = np.asarray(r1)
    b = np.asarray(r2)
    if a.shape != b.shape:
        raise ValueError("bit vectors differ in length")
    return int(np.count_nonzero(a != b))


def pmf_vector(k_len: int, p: float) -> np.ndarray:
    """P(eta = k) of eta ~ Binomial(k_len, p) for k = 0..k_len.

    Each term is evaluated in log space so large k_len stays finite.
    """
    if k_len < 1:
        raise ValueError("k_len must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        pmf = np.zeros(k_len + 1)
        pmf[int(p) * k_len] = 1.0
        return pmf
    log_n, log_p, log_q = math.lgamma(k_len + 1), math.log(p), math.log1p(-p)
    return np.array([
        math.exp(
            log_n - math.lgamma(k + 1) - math.lgamma(k_len - k + 1)
            + k * log_p + (k_len - k) * log_q
        )
        for k in range(k_len + 1)
    ])


def total_variation(etas: np.ndarray, k_len: int, p: float) -> float:
    """TV distance between an empirical eta sample and Binomial(k_len, p).

    0.5 * sum_k |empirical_pmf(k) - model_pmf(k)| over k = 0..k_len; this is
    how closely the measured disagreement histogram tracks the closed form.
    """
    etas = np.asarray(etas, dtype=int)
    if etas.size == 0:
        raise ValueError("need at least one observation")
    if etas.min() < 0 or etas.max() > k_len:
        raise ValueError(f"eta values must lie in [0, {k_len}]")
    empirical = np.bincount(etas, minlength=k_len + 1) / etas.size
    return 0.5 * float(np.abs(empirical - pmf_vector(k_len, p)).sum())


def tail_vector(k_len: int, p: float) -> np.ndarray:
    """P(eta > t) for t = 0..k_len, in one pass over the pmf.

    The reverse cumulative sum adds the pmf from k_len down, smallest terms
    first for p <= 1/2, and is non-increasing in t by construction.  The
    terms are rounded, so a tail near 1 can overshoot it by a few ulps; the
    vector is clipped to [0, 1].
    """
    tails = np.zeros(k_len + 1)
    tails[:-1] = np.cumsum(pmf_vector(k_len, p)[:0:-1])[::-1]
    return np.clip(tails, 0.0, 1.0)


def calibrate_threshold(
    k_len: int, p0: float, target_pfa: float, h0_etas: np.ndarray | None = None
) -> int:
    """Smallest eta_th whose false-alarm probability meets the target.

    The tail is non-increasing in eta_th and reaches 0 at eta_th = k_len,
    so a solution always exists: the first index of the tail vector that
    meets the target.
    Given `h0_etas`, a batch of legitimate statistics, the threshold must
    also hold that batch's false-alarm rate mean(h0_etas > eta_th) to the
    target: failed decodes make the H0 statistic heavier-tailed than
    Binomial(k_len, p0), and a threshold from the binomial tail alone can
    then miss the target on the very batch p0 was fitted to.
    """
    if target_pfa <= 0:
        raise ValueError("target_pfa must be positive")
    tails = tail_vector(k_len, p0)
    th = int(np.argmax(tails <= target_pfa))
    if h0_etas is None:
        return th
    etas = np.asarray(h0_etas, dtype=int)
    if etas.size == 0 or etas.min() < 0 or etas.max() > k_len:
        raise ValueError(f"h0_etas must be a non-empty batch in [0, {k_len}]")
    # exceed[t] = #{eta > t}; both conditions are monotone in t, so the
    # smallest threshold meeting both is the larger of the two minima.
    exceed = etas.size - np.cumsum(np.bincount(etas, minlength=k_len + 1))
    return max(th, int(np.argmax(exceed / etas.size <= target_pfa)))
