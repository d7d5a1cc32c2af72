"""Binomial hypothesis test on the reconciliation disagreement count.

Under either hypothesis the per-bit disagreement between the enrolled and
the freshly decoded payload is modeled as Bernoulli with rate p0 (legitimate
re-authentication) or p1 (impersonation), making the Hamming statistic
binomial over the K payload bits.  Acceptance is eta <= eta_th with the
boundary included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def hamming_distance(r1: np.ndarray, r2: np.ndarray) -> int:
    a = np.asarray(r1)
    b = np.asarray(r2)
    if a.shape != b.shape:
        raise ValueError("bit vectors differ in length")
    return int(np.count_nonzero(a != b))


@dataclass(frozen=True)
class BinomialModel:
    """Disagreement-count model: eta ~ Binomial(k_len, p)."""

    k_len: int
    p: float

    def __post_init__(self):
        if self.k_len < 1:
            raise ValueError("k_len must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


def binomial_pmf(model: BinomialModel, k: int) -> float:
    """P(eta = k), evaluated in log space so large k_len stays finite."""
    n, p = model.k_len, model.p
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}]")
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log_comb + k * math.log(p) + (n - k) * math.log1p(-p))


def pmf_vector(model: BinomialModel) -> np.ndarray:
    return np.array([binomial_pmf(model, k) for k in range(model.k_len + 1)])


def total_variation(etas: np.ndarray, model: BinomialModel) -> float:
    """TV distance between an empirical eta sample and the binomial model.

    0.5 * sum_k |empirical_pmf(k) - model_pmf(k)| over k = 0..k_len; this is
    how closely the measured disagreement histogram tracks the closed form.
    """
    etas = np.asarray(etas, dtype=int)
    if etas.size == 0:
        raise ValueError("need at least one observation")
    if etas.min() < 0 or etas.max() > model.k_len:
        raise ValueError(f"eta values must lie in [0, {model.k_len}]")
    empirical = np.bincount(etas, minlength=model.k_len + 1) / etas.size
    return 0.5 * float(np.abs(empirical - pmf_vector(model)).sum())


def _tail_sum(model: BinomialModel, eta_th: int) -> float:
    # P(eta > eta_th).  fsum adds exactly, but the pmf terms it adds are
    # already rounded, so a tail near 1 can overshoot it by a few ulps.
    if not 0 <= eta_th <= model.k_len:
        raise ValueError(f"eta_th must lie in [0, {model.k_len}]")
    return min(
        1.0,
        math.fsum(binomial_pmf(model, k) for k in range(eta_th + 1, model.k_len + 1)),
    )


def closed_form_pfa(k_len: int, p0: float, eta_th: int) -> float:
    """False-alarm probability: tail of Binomial(k_len, p0) above eta_th."""
    return _tail_sum(BinomialModel(k_len, p0), eta_th)


def closed_form_pd(k_len: int, p1: float, eta_th: int) -> float:
    """Detection probability: tail of Binomial(k_len, p1) above eta_th."""
    return _tail_sum(BinomialModel(k_len, p1), eta_th)


def calibrate_threshold(
    k_len: int, p0: float, target_pfa: float, h0_etas: np.ndarray | None = None
) -> int:
    """Smallest eta_th whose false-alarm probability meets the target.

    The tail is non-increasing in eta_th and reaches 0 at eta_th = k_len,
    so a solution always exists; binary search keeps large k_len cheap.
    Given `h0_etas`, a batch of legitimate statistics, the threshold must
    also hold that batch's false-alarm rate mean(h0_etas > eta_th) to the
    target: failed decodes make the H0 statistic heavier-tailed than
    Binomial(k_len, p0), and a threshold from the binomial tail alone can
    then miss the target on the very batch p0 was fitted to.
    """
    if target_pfa <= 0:
        raise ValueError("target_pfa must be positive")
    model = BinomialModel(k_len, p0)
    lo, hi = 0, k_len
    if _tail_sum(model, lo) <= target_pfa:
        hi = lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_sum(model, mid) <= target_pfa:
            hi = mid
        else:
            lo = mid
    if h0_etas is None:
        return hi
    etas = np.asarray(h0_etas, dtype=int)
    if etas.size == 0 or etas.min() < 0 or etas.max() > k_len:
        raise ValueError(f"h0_etas must be a non-empty batch in [0, {k_len}]")
    # exceed[t] = #{eta > t}; both conditions are monotone in t, so the
    # smallest threshold meeting both is the larger of the two minima.
    exceed = etas.size - np.cumsum(np.bincount(etas, minlength=k_len + 1))
    return max(hi, int(np.argmax(exceed / etas.size <= target_pfa)))
