"""Scalar Lloyd-Max quantizer with Gray-coded labels.

The codebook is designed offline for a Gaussian component density and shared
verbatim by both protocol phases: enrollment and authentication must index
the same reconstruction levels or the reconciled bit vectors would diverge
for reasons unrelated to the channel.  Levels are refined by the classic
two-step iteration (boundaries at level midpoints, levels at cell centroids)
with centroids evaluated analytically from the Gaussian pdf/cdf rather than
from sampled data.  Labels use the reflected binary Gray code so a slip into
an adjacent cell corrupts exactly one bit.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gray_code(index: int, n_bits: int) -> str:
    """Reflected binary Gray label of `index`, most-significant bit first."""
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if not 0 <= index < (1 << n_bits):
        raise ValueError(f"index {index} out of range for {n_bits} bits")
    g = index ^ (index >> 1)
    return format(g, f"0{n_bits}b")


def _gray_matrix(n_bits: int) -> np.ndarray:
    """All Gray labels as a (2**n_bits, n_bits) uint8 matrix, row i = label i."""
    labels = [gray_code(i, n_bits) for i in range(1 << n_bits)]
    return np.array([[int(b) for b in lab] for lab in labels], dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class QuantizerCodebook:
    """Designed quantizer: levels, cell boundaries and per-level bit labels.

    `boundaries` has one entry fewer than `levels`; cell i is the interval
    (boundaries[i-1], boundaries[i]] with the outer cells unbounded.  A
    sample exactly on a boundary is equidistant from the two neighboring
    levels and resolves to the lower one.
    """

    n_bits: int
    mu: float
    sigma: float
    levels: np.ndarray
    boundaries: np.ndarray
    gray_labels: tuple[str, ...]
    label_bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.levels.size != (1 << self.n_bits):
            raise ValueError("level count must be 2**n_bits")
        if np.any(np.diff(self.levels) <= 0):
            raise ValueError("levels must be strictly increasing")
        if self.boundaries.size != self.levels.size - 1:
            raise ValueError("need exactly len(levels) - 1 boundaries")


def _gaussian_cell_mean(a: float, b: float, mu: float, sigma: float) -> float:
    """Mean of N(mu, sigma^2) restricted to the cell (a, b), tails allowed."""

    def pdf(t):
        return _INV_SQRT_2PI * math.exp(-0.5 * t * t)

    def cdf(t):
        return 0.5 * (1.0 + math.erf(t / _SQRT2))

    ta = -math.inf if a == -math.inf else (a - mu) / sigma
    tb = math.inf if b == math.inf else (b - mu) / sigma
    mass = (1.0 if tb == math.inf else cdf(tb)) - (0.0 if ta == -math.inf else cdf(ta))
    num = (0.0 if ta == -math.inf else pdf(ta)) - (0.0 if tb == math.inf else pdf(tb))
    return mu + sigma * num / mass


def design_codebook(
    n_bits: int,
    mu: float = 0.0,
    sigma: float = 1.0,
    max_iters: int = 200,
) -> QuantizerCodebook:
    """Design a Lloyd-Max codebook for a Gaussian component density.

    Initial levels are the midpoints of 2**n_bits equal subintervals of
    [mu - 3 sigma, mu + 3 sigma].  Each iteration moves boundaries to level
    midpoints and levels to the analytic centroid of their cell.  Iteration
    stops when no level moves by more than 1e-6 * sigma; hitting `max_iters`
    first only raises a warning, since a slightly unconverged codebook is
    still a valid quantizer.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    n_levels = 1 << n_bits
    edges = np.linspace(mu - 3.0 * sigma, mu + 3.0 * sigma, n_levels + 1)
    levels = 0.5 * (edges[:-1] + edges[1:])

    converged = False
    delta = math.inf
    for _ in range(max_iters):
        boundaries = 0.5 * (levels[:-1] + levels[1:])
        cells = [-math.inf, *boundaries.tolist(), math.inf]
        new_levels = np.array(
            [
                _gaussian_cell_mean(cells[i], cells[i + 1], mu, sigma)
                for i in range(n_levels)
            ]
        )
        delta = float(np.max(np.abs(new_levels - levels)))
        levels = new_levels
        if delta < 1e-6 * sigma:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"Lloyd-Max did not converge within {max_iters} iterations "
            f"(last max level movement {delta:.3e})",
            RuntimeWarning,
        )

    boundaries = 0.5 * (levels[:-1] + levels[1:])
    labels = tuple(gray_code(i, n_bits) for i in range(n_levels))
    return QuantizerCodebook(
        n_bits=n_bits,
        mu=mu,
        sigma=sigma,
        levels=levels,
        boundaries=boundaries,
        gray_labels=labels,
        label_bits=_gray_matrix(n_bits),
    )


def level_indices(x: np.ndarray, codebook: QuantizerCodebook) -> np.ndarray:
    """Index of the nearest level for each sample, boundary ties going low."""
    return np.searchsorted(codebook.boundaries, np.asarray(x, dtype=float), side="left")


def quantize(x: np.ndarray, codebook: QuantizerCodebook) -> np.ndarray:
    """Map samples to the concatenation of their Gray labels.

    Returns a uint8 bit vector of length n_bits * len(x), each sample
    contributing its label most-significant bit first.  Out-of-range samples
    clamp to the nearest extreme level, as the nearest-neighbor rule implies.
    The caller is responsible for feeding data whose component statistics
    match the (mu, sigma) the codebook was designed for.
    """
    idx = level_indices(x, codebook)
    return codebook.label_bits[idx].reshape(-1)


def dump_codebook(codebook: QuantizerCodebook) -> str:
    """Plain-text table: one `level lower_boundary gray_label` row per level."""
    buf = io.StringIO()
    buf.write(
        f"# n_bits={codebook.n_bits} mu={codebook.mu!r} sigma={codebook.sigma!r}\n"
    )
    buf.write("# level lower_boundary gray_label\n")
    lowers = [-math.inf, *codebook.boundaries.tolist()]
    for level, lower, label in zip(codebook.levels.tolist(), lowers, codebook.gray_labels):
        buf.write(f"{level!r} {lower!r} {label}\n")
    return buf.getvalue()
