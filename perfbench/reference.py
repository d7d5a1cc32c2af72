"""Computations the benchmark checks csipla's outputs against.

Nothing here imports csipla.  Each function restates one rule of the
method from its definition:

* exact binomial tails, summed in integer arithmetic from the binary value
  of the float rate and rounded once;
* the 1-bit crossover closed form arccos(rho) / pi of two jointly Gaussian
  components;
* the Arikan transform, a CRC by polynomial long division, and a
  CRC-aided successive-cancellation list decoder written as a recursion
  over the code tree.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def binomial_tails(k: int, p: float) -> list[float]:
    """P(X > t) for X ~ Binomial(k, p), t = 0..k, each correctly rounded.

    p is a binary float a / 2^e, so P(X = i) is
    X_i / 2^(e k) with the integer X_i = comb(k, i) a^i (2^e - a)^(k - i):
    the tails are integer sums over one power-of-two denominator, rounded
    once to a float.  X_(i-1) = X_i i b / ((k - i + 1) a), b = 2^e - a,
    is an exact integer division.
    """
    if k < 1 or not 0.0 <= p <= 1.0:
        raise ValueError(f"need k >= 1 and p in [0, 1], got k={k}, p={p}")
    if p == 0.0:
        return [0.0] * (k + 1)
    frac = Fraction(p)
    a, d = frac.numerator, frac.denominator
    e, b = d.bit_length() - 1, d - a
    tails = [0.0] * (k + 1)
    above = 0  # X_(t+1) + ... + X_k, built from the top term down
    x = a**k
    for t in range(k, 0, -1):
        above += x
        tails[t - 1] = _scaled_float(above, e * k)
        x = x * t * b // ((k - t + 1) * a)
    return tails


def _scaled_float(n: int, shift: int) -> float:
    """n / 2^shift rounded once to the nearest float (n >= 0)."""
    excess = n.bit_length() - 64
    if excess <= 0:
        return n / (1 << shift)
    # Keep 64 leading bits; a sticky low bit stands for the dropped ones,
    # so rounding the 64-bit integer to 53 bits rounds n itself.
    top = n >> excess | (n & ((1 << excess) - 1) != 0)
    return math.ldexp(float(top), excess - shift)


def min_threshold(tails: list[float], target: float) -> int:
    """Smallest t whose tail P(X > t) is at most target."""
    return next(t for t, v in enumerate(tails) if v <= target)


def crossover_1bit(beta, sigma_h2, sigma_z2, u_interferers, alpha) -> float:
    """Flip probability of a sign quantizer between enrolment and auth.

    Enrolment sees h + z; authentication one slot later sees
    beta h + sqrt(1 - beta^2) w + z' + alpha sum_i h_i.  Each real
    component pair is jointly Gaussian with correlation rho, and
    P(sign differs) = arccos(rho) / pi.  The per-vector RMS scaling before
    quantization does not move a sign.
    """
    rho = beta * sigma_h2 / math.sqrt(
        (sigma_h2 + sigma_z2)
        * (sigma_h2 * (1.0 + u_interferers * alpha * alpha) + sigma_z2)
    )
    return math.acos(rho) / math.pi


def bsc_capacity(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 1.0
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)


def polar_transform(u: np.ndarray) -> np.ndarray:
    """x = u F^{(x)n}, F = [[1, 0], [1, 1]], natural order.

    With u = (u1, u2): x = (T(u1) xor T(u2), T(u2)).
    """
    u = np.asarray(u, dtype=np.uint8)
    if u.size == 1:
        return u.copy()
    half = u.size // 2
    left, right = polar_transform(u[:half]), polar_transform(u[half:])
    return np.concatenate([left ^ right, right])


def crc(bits, poly) -> np.ndarray:
    """Remainder of m(x) x^c over GF(2) by the generator, MSB first."""
    gen = int("".join(str(int(v)) for v in poly), 2)
    c = len(poly) - 1
    reg = int("".join(str(int(v)) for v in bits) or "0", 2) << c
    for shift in range(reg.bit_length() - 1, c - 1, -1):
        if reg >> shift & 1:
            reg ^= gen << (shift - c)
    return np.array([reg >> i & 1 for i in range(c - 1, -1, -1)], dtype=np.uint8)


def _softplus(x):
    return np.logaddexp(0.0, x)


def scl_decode(q_auth, q_enroll, info_positions, crc_poly, list_size, channel_p):
    """CRC-aided SC list decode of q_auth against the enrolment q_enroll.

    Every position outside `info_positions` is pinned to the enrolment
    value of u = T(q_enroll).  The channel LLR of bit j is
    (1 - 2 q_j) ln((1 - p) / p).  The check update is min-sum and the
    variable update is b +/- a.  A subtree with no free position adds its
    whole-codeword penalty sum softplus(-(1 - 2 x) llr) at its root.  At a
    free bit each path forks; candidates are ordered all-paths-bit-0 then
    all-paths-bit-1 and the `list_size` lowest metrics survive under a
    stable sort.  The result is the payload of the lowest-metric path whose
    CRC matches the enrolment payload's, else of the lowest-metric path.
    """
    q = np.asarray(q_auth, dtype=np.uint8)
    u_enroll = polar_transform(q_enroll)
    info = np.asarray(info_positions)
    free = np.zeros(q.size, dtype=bool)
    free[info] = True
    slot = {int(pos): j for j, pos in enumerate(info)}
    mag = math.log((1.0 - channel_p) / channel_p)
    state = {
        "pm": np.zeros(1),
        "u": np.zeros((1, info.size), dtype=np.uint8),
    }

    def rec(llr, lo):
        # Returns (perm, x): the parent row of each surviving path and the
        # paths' codeword bits of this subtree.
        size = llr.shape[1]
        if not free[lo : lo + size].any():
            x = polar_transform(u_enroll[lo : lo + size])
            sign = 1.0 - 2.0 * x.astype(float)
            state["pm"] = state["pm"] + _softplus(-sign * llr).sum(axis=1)
            return np.arange(llr.shape[0]), np.broadcast_to(x, llr.shape)
        if size == 1:
            pm, lam = state["pm"], llr[:, 0]
            cand = np.concatenate([pm + _softplus(-lam), pm + _softplus(lam)])
            keep = np.arange(cand.size)
            if cand.size > list_size:
                keep = np.argsort(cand, kind="stable")[:list_size]
            parents = keep % pm.size
            bit = (keep >= pm.size).astype(np.uint8)
            state["pm"] = cand[keep]
            state["u"] = state["u"][parents]
            state["u"][:, slot[lo]] = bit
            return parents, bit[:, None]
        half = size // 2
        a, b = llr[:, :half], llr[:, half:]
        perm1, x1 = rec(np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b)), lo)
        a, b = a[perm1], b[perm1]
        perm2, x2 = rec(np.where(x1 == 1, b - a, b + a), lo + half)
        x1 = x1[perm2]
        return perm1[perm2], np.concatenate([x1 ^ x2, x2], axis=1)

    rec(((1.0 - 2.0 * q.astype(float)) * mag)[None, :], 0)
    want = crc(u_enroll[info], crc_poly)
    paths = state["u"]
    for row in np.argsort(state["pm"], kind="stable"):
        if np.array_equal(crc(paths[row], crc_poly), want):
            return paths[row].copy()
    return paths[np.argmin(state["pm"])].copy()
