"""Scalar Lloyd-Max quantizer with Gray-coded labels.

The codebook is designed offline for a Gaussian component density and shared
verbatim by both protocol phases: enrollment and authentication must index
the same reconstruction levels or the reconciled bit vectors would diverge
for reasons unrelated to the channel.  Newton's method solves the Lloyd-Max
conditions on the symmetric upper half, at every width up to MAX_BITS.
Labels use the reflected binary Gray code so a slip into an adjacent cell
corrupts exactly one bit.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

MAX_BITS = 16  # widest label width designed: 2**16 levels


def _gray_matrix(n_bits: int) -> np.ndarray:
    """Gray labels i ^ (i >> 1) as a (2**n_bits, n_bits) uint8 matrix, MSB first."""
    i = np.arange(1 << n_bits)
    g = i ^ (i >> 1)
    return ((g[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class QuantizerCodebook:
    """Designed quantizer: levels, cell boundaries and per-level bit labels.

    `boundaries` has one entry fewer than `levels`; cell i is the interval
    (boundaries[i-1], boundaries[i]] with the outer cells unbounded.  A
    sample exactly on a boundary is equidistant from the two neighboring
    levels and resolves to the lower one.
    """

    n_bits: int
    levels: np.ndarray
    boundaries: np.ndarray
    label_bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.levels.size != (1 << self.n_bits):
            raise ValueError("level count must be 2**n_bits")
        if np.any(np.diff(self.levels) <= 0):
            raise ValueError("levels must be strictly increasing")
        if self.boundaries.size != self.levels.size - 1:
            raise ValueError("need exactly len(levels) - 1 boundaries")


def _pdf(t: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * t * t)


def _newton_step(y: list[float]) -> tuple[float, list[float]]:
    """Largest centroid residual of the upper-half levels `y`, and the step.

    Cell i is (t[i], t[i+1]] = (a, b], t[0] = 0, of mass M (upper-tail erfc
    differences stay exact far into the tail) and centroid c.  dc/da =
    pdf(a)(c - a)/M, dc/db = pdf(b)(b - c)/M, and each boundary moves by half
    of each neighbouring level's step, so a Thomas pass solves the Jacobian.
    """
    t = [0.0, *(0.5 * (u + v) for u, v in zip(y, y[1:])), math.inf]
    worst, sweep = 0.0, [(0.0, 0.0)]
    for i, level in enumerate(y):
        a, b = t[i], t[i + 1]
        pa, pb = _pdf(a), _pdf(b)
        mass = 0.5 * (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2))
        c = (pa - pb) / mass
        ga = pa * (c - a) / mass if i else 0.0
        gb = pb * (b - c) / mass if b < math.inf else 0.0
        worst = max(worst, abs(level - c))
        cp, dp = sweep[-1]
        w = 1.0 - 0.5 * (ga + gb) + 0.5 * ga * cp
        sweep.append((-0.5 * gb / w, (level - c + 0.5 * ga * dp) / w))
    step = [0.0]
    for cp, dp in reversed(sweep[1:]):
        step.append(dp - cp * step[-1])
    return worst, step[:0:-1]


def design_codebook(n_bits: int) -> QuantizerCodebook:
    """Design a Lloyd-Max codebook for a zero-mean, unit-variance Gaussian.

    Newton's method solves the centroid conditions for the upper half, from
    the midpoints of 2**n_bits equal slices of [-3, 3]; it keeps the best
    levels once the largest residual stops falling.
    """
    if not 1 <= n_bits <= MAX_BITS:
        raise ValueError(f"n_bits must be in [1, {MAX_BITS}], got {n_bits}")
    half = 1 << (n_bits - 1)
    y = [(j + 0.5) * 3.0 / half for j in range(half)]
    best, best_res = y, math.inf
    while True:
        res, step = _newton_step(y)
        if not res < best_res:
            break
        best, best_res = y, res
        y = [u - s for u, s in zip(y, step)]
    levels = np.array([-u for u in reversed(best)] + best)
    return QuantizerCodebook(
        n_bits=n_bits,
        levels=levels,
        boundaries=0.5 * (levels[:-1] + levels[1:]),
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
    The caller is responsible for feeding zero-mean, unit-variance data,
    the statistics the codebook was designed for.
    """
    idx = level_indices(x, codebook)
    return codebook.label_bits[idx].reshape(-1)


def dump_codebook(codebook: QuantizerCodebook) -> str:
    """Plain-text table: one `level lower_boundary gray_label` row per level."""
    buf = io.StringIO()
    buf.write(f"# n_bits={codebook.n_bits}\n")
    buf.write("# level lower_boundary gray_label\n")
    lowers = [-math.inf, *codebook.boundaries.tolist()]
    for level, lower, bits in zip(codebook.levels.tolist(), lowers, codebook.label_bits):
        buf.write(f"{level!r} {lower!r} {''.join(map(str, bits))}\n")
    return buf.getvalue()
