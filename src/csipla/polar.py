"""Polar-code machinery for one-way reconciliation of quantized CSI bits.

Conventions, fixed once and relied on everywhere:

* The transform is the plain Arikan kernel power F^{(x)n} in natural bit
  order (no bit-reversal permutation).  Over GF(2) it is an involution, so
  encoding and "decoding" of noiseless data are the same operation.
* Synthetic-channel quality comes from the erasure-probability recursion of
  a binary erasure channel started at z = 0.5: position order follows the
  index binary expansion MSB-first with children 2z - z^2 (worse) and z^2
  (better), which matches the natural-order transform above.
* The K reconciled payload bits sit on the K most reliable positions and
  every other position is frozen.  Enrollment publishes the frozen-position
  values of u = transform(q) and a c-bit CRC of the payload; the decoder
  pins the frozen values and list-decodes only the K payload positions,
  using the CRC purely to pick among surviving paths.  Decoding never
  raises on a CRC miss: returning the best wrong path is what makes
  impersonation visible to the downstream hypothesis test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Generator polynomials, MSB first: x^4 + x + 1 and x^8 + x^2 + x + 1.
CRC4_POLY = np.array([1, 0, 0, 1, 1], dtype=np.uint8)
CRC8_POLY = np.array([1, 0, 0, 0, 0, 0, 1, 1, 1], dtype=np.uint8)


def _check_block_len(block_len: int):
    if block_len < 2 or block_len & (block_len - 1):
        raise ValueError(f"block_len must be a power of two >= 2, got {block_len}")


def bec_erasure_probs(block_len: int) -> np.ndarray:
    """Erasure probability of each synthetic channel, natural position order.

    One doubling step maps a parent with erasure z to children 2z - z^2 and
    z^2 at twice the index; their sum is exactly 2z, which pins down the
    recursion independent of any reliability heuristics.
    """
    _check_block_len(block_len)
    z = np.array([0.5])
    while z.size < block_len:
        nxt = np.empty(2 * z.size)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    return z


def bec_reliability(block_len: int) -> np.ndarray:
    """Positions sorted most-reliable first (ascending z, ties by index)."""
    return np.argsort(bec_erasure_probs(block_len), kind="stable")


def _as_bits(values) -> np.ndarray:
    """`values` as uint8, refusing any value but 0 and 1 whatever the dtype
    (a bare cast would turn 0.9 into 0 and -1 into 255)."""
    arr = np.asarray(values)
    if arr.dtype == np.uint8:
        binary = arr.size == 0 or arr.max() <= 1
    else:
        binary = bool(np.all((arr == 0) | (arr == 1)))
    if not binary:
        raise ValueError("bits must be 0/1 valued")
    return arr.astype(np.uint8, copy=False)


def polar_transform(bits: np.ndarray) -> np.ndarray:
    """Apply F^{(x)n} over GF(2) along the last axis (its own inverse).

    Accepts any leading batch shape; the last axis length must be a power
    of two (length 1 is the identity).
    """
    x = _as_bits(bits).copy()
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError(f"transform length must be a power of two, got {n}")
    step = 1
    while step < n:
        shaped = x.reshape(x.shape[:-1] + (-1, 2, step))
        shaped[..., 0, :] ^= shaped[..., 1, :]
        step *= 2
    return x


@dataclass(frozen=True, eq=False)
class PolarCode:
    """Frozen description of one reconciliation code instance.

    `info_positions` holds the K most reliable positions and
    `frozen_positions` every other one.  `crc_len` sets only the length of
    the payload CRC; no position is set aside for it.  `crc_matrix` is a
    derived artifact cached here because it depends only on K and the CRC
    polynomial.
    """

    block_len: int
    k_info: int
    crc_len: int
    crc_poly: np.ndarray
    list_size: int
    info_positions: np.ndarray
    frozen_positions: np.ndarray
    crc_matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class SideInfo:
    """Public helper data produced at enrollment for one bit vector.

    frozen_values are the enrollment u-values at every non-payload position;
    the decoder pins them.  crc_bits is the CRC of the enrollment payload and
    only arbitrates between list paths.
    """

    frozen_values: np.ndarray
    crc_bits: np.ndarray


def code_dimensions(block_len: int, rate: float):
    """(K, CRC length) of the code :func:`construct_code` builds.

    K = round(rate * block_len) payload bits.  The CRC length is 4 (poly
    x^4+x+1) when K < 20 and 8 (poly x^8+x^2+x+1) otherwise.
    """
    _check_block_len(block_len)
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    k_info = int(round(rate * block_len))
    if k_info < 1:
        raise ValueError(f"rate {rate} rounds to zero payload bits")
    crc_len = 4 if k_info < 20 else 8
    if k_info + crc_len > block_len:
        raise ValueError("payload plus CRC exceeds the block length")
    return k_info, crc_len


def construct_code(block_len: int, rate: float, list_size: int = 8) -> PolarCode:
    """Build the code for a payload rate; see :func:`code_dimensions`."""
    if list_size < 1:
        raise ValueError("list_size must be >= 1")
    k_info, crc_len = code_dimensions(block_len, rate)
    crc_poly = CRC4_POLY if crc_len == 4 else CRC8_POLY

    order = bec_reliability(block_len)
    info = np.sort(order[:k_info])
    frozen = np.sort(order[k_info:])

    # CRC is linear (zero init, no final XOR): row i is the CRC of unit
    # message i, x^(K-1-i+c) mod g.  The last row is x^c mod g and each row
    # above is the one below times x mod g: one shift-register pass.
    gen = int("".join(str(v) for v in crc_poly), 2)
    reg = gen ^ (1 << crc_len)
    regs = np.empty(k_info, dtype=np.int64)
    for i in range(k_info - 1, -1, -1):
        regs[i] = reg
        reg <<= 1
        if reg >> crc_len:
            reg ^= gen
    crc_matrix = ((regs[:, None] >> np.arange(crc_len - 1, -1, -1)) & 1).astype(np.uint8)

    return PolarCode(
        block_len=block_len,
        k_info=k_info,
        crc_len=crc_len,
        crc_poly=crc_poly,
        list_size=list_size,
        info_positions=info,
        frozen_positions=frozen,
        crc_matrix=crc_matrix,
    )


def extract_side_info(q_enroll: np.ndarray, code: PolarCode):
    """Enrollment-side processing of one quantized bit vector.

    Returns (r, side): the K reconciled payload bits in ascending position
    order and the SideInfo the verifier stores for later decoding.
    """
    q = np.asarray(q_enroll)
    if q.size != code.block_len:
        raise ValueError(f"expected {code.block_len} bits, got {q.size}")
    u = polar_transform(q)
    r = u[code.info_positions]
    # The CRC is linear: one mat-vec mod 2 (uint8 sums wrap modulo 256,
    # which keeps their parity).
    side = SideInfo(frozen_values=u[code.frozen_positions], crc_bits=(r @ code.crc_matrix) & 1)
    return r, side


@dataclass(frozen=True)
class DecodeDetail:
    """List-decoder outcome beyond the returned bits (for diagnostics)."""

    selected_passed_crc: bool
    crc_pass_count: int
    path_count: int


def scl_decode(
    q_auth: np.ndarray, side: SideInfo, code: PolarCode, channel_p: float
) -> np.ndarray:
    """CRC-aided successive-cancellation list decode of an observed vector.

    The 0/1 observation is treated as the enrollment vector passed through a
    memoryless binary symmetric channel with crossover `channel_p`, giving
    per-bit LLR (1 - 2 q) * ln((1-p)/p).  Returns the K payload bits of the
    best CRC-consistent path, falling back to the overall best path when no
    path checks out (a wrong answer is itself the authentication signal).
    """
    return scl_decode_detail(q_auth, side, code, channel_p)[0]


# Sign form of a bit, (-1)^x: XOR of bits is the product of their signs.
_SIGN = np.array([1, -1], dtype=np.int8)
# Subtrees of at most this many positions that hold a payload position are
# decoded on Python floats.  Their pinned chunks then have at most 4
# positions, which numpy sums from 0.0 left to right as the kernel does; at
# 8 terms numpy switches to pairwise summation.
_KERNEL_SIZE = 8


def scl_decode_detail(q_auth, side, code, channel_p):
    """Like :func:`scl_decode` but also returns a :class:`DecodeDetail`."""
    if not 0.0 < channel_p < 0.5:
        raise ValueError(f"channel_p must lie strictly inside (0, 0.5), got {channel_p}")
    q = _as_bits(q_auth)
    block_len = code.block_len
    if q.size != block_len:
        raise ValueError(f"expected {block_len} bits, got {q.size}")
    n = block_len.bit_length() - 1
    cap = code.list_size

    mag = math.log((1.0 - channel_p) / channel_p)
    if not math.isfinite(mag):
        raise ValueError(f"channel_p {channel_p} gives an infinite channel LLR")
    chan = (1.0 - 2.0 * q.astype(float)) * mag

    # Pinned subtrees contribute path metric against their known codeword
    # chunk transform(u_chunk).  One pass of the n butterfly stages over the
    # pinned values, in sign form, serves every subtree: row s of `stages`
    # holds the vector after s stages, in which each aligned chunk of 2^s
    # positions holds that chunk's own transform.  Free positions stay +1;
    # no pinned chunk contains one.
    stages = np.ones((n + 1, block_len), dtype=np.int8)
    stages[0, code.frozen_positions] = _SIGN[side.frozen_values]
    for s in range(1, n + 1):
        half = 1 << (s - 1)
        prev = stages[s - 1].reshape(-1, 2, half)
        cur = stages[s].reshape(-1, 2, half)
        np.multiply(prev[:, 0], prev[:, 1], out=cur[:, 0])
        cur[:, 1] = prev[:, 1]
    neg_stages = stages * -1.0
    # free_before[i] counts the payload positions below i: a subtree is
    # pinned when the count does not change across it, and its payload
    # columns run from its count at lo to its count at lo + size.
    free_before = np.searchsorted(code.info_positions, np.arange(block_len + 1)).tolist()

    # Row i of pm and payload is path i, in the row order of the LLR array
    # handed to the subtree being decoded.
    pm = np.zeros(1)
    payload = np.zeros((1, code.k_info), dtype=np.uint8)

    exp, log1p, copysign = math.exp, math.log1p, math.copysign

    def kern(llr, lo, s):
        # rec on Python lists, one float operation for each of numpy's and
        # in the same order: `llr` and the codeword hold one list per path,
        # and `bits` each path's payload bits in the subtree so far.
        # softplus(v) is (v if v > 0 else 0) + log1p(exp(-|v|)), which is
        # np.logaddexp(0, v) bit for bit.
        nonlocal pml, bits
        size = 1 << s
        if free_before[lo + size] == free_before[lo]:
            signs = stages[s, lo : lo + size].tolist()
            for i, row in enumerate(llr):
                total = 0.0
                for x, v in zip(signs, row):
                    v = v if x < 0 else -v
                    total += (v if v > 0 else 0.0) + log1p(exp(-abs(v)))
                pml[i] += total
            return None, [signs] * len(llr)
        if s == 0:
            # All paths with bit 0, then all with bit 1: softplus(-lam) and
            # softplus(lam) share their log1p term.  The first `cap` under a
            # stable sort when there are more.
            count = len(llr)
            cand = pml + pml
            for i, ((lam,), m) in enumerate(zip(llr, pml)):
                t = log1p(exp(-abs(lam)))
                cand[i] = (0.0 if lam >= 0 else -lam) + t + m
                cand[i + count] = (lam if lam > 0 else 0.0) + t + m
            keep = range(2 * count)
            if 2 * count > cap:
                keep = sorted(keep, key=cand.__getitem__)[:cap]
            pml = [cand[k] for k in keep]
            picks = [divmod(k, count) for k in keep]
            bits = [bits[row] + [bit] for bit, row in picks]
            return [row for _, row in picks], [[1 - 2 * bit] for bit, _ in picks]
        if s == 1:
            f = [[copysign(min(abs(a), abs(b)), a * b)] for a, b in llr]
            rows, x_left = kern(f, lo, 0)
            if rows is not None:
                llr = [llr[r] for r in rows]
            g = [[b + x * a] for (x,), (a, b) in zip(x_left, llr)]
            right_rows, x_right = kern(g, lo + 1, 0)
            if right_rows is not None:
                rows = right_rows if rows is None else [rows[r] for r in right_rows]
                x_left = [x_left[r] for r in right_rows]
            return rows, [[a * b, b] for (a,), (b,) in zip(x_left, x_right)]
        half = size >> 1
        f = [[copysign(min(abs(a), abs(b)), a * b) for a, b in zip(r, r[half:])] for r in llr]
        rows, x_left = kern(f, lo, s - 1)
        if rows is not None:
            llr = [llr[r] for r in rows]
        g = [[b + x * a for x, a, b in zip(xs, r, r[half:])] for xs, r in zip(x_left, llr)]
        right_rows, x_right = kern(g, lo + half, s - 1)
        if right_rows is not None:
            rows = right_rows if rows is None else [rows[r] for r in right_rows]
            x_left = [x_left[r] for r in right_rows]
        return rows, [[a * b for a, b in zip(xl, xr)] + xr for xl, xr in zip(x_left, x_right)]

    def rec(llr, lo, s):
        # Decodes positions lo .. lo + 2^s - 1 from `llr`, one row per path.
        # Returns the row of `llr` each surviving path descends from (None
        # when no path forked) and the subtree's codeword in sign form.
        nonlocal pm, payload, pml, bits
        size = 1 << s
        if free_before[lo + size] == free_before[lo]:
            pm += np.logaddexp(0.0, neg_stages[s, lo : lo + size] * llr).sum(axis=1)
            return None, stages[s, lo : lo + size]
        if size <= _KERNEL_SIZE:
            pml, bits = pm.tolist(), [[]] * pm.size
            rows, x = kern(llr.tolist(), lo, s)
            pm = np.array(pml)
            payload = payload.take(rows, axis=0)
            payload[:, free_before[lo] : free_before[lo + size]] = bits
            return np.array(rows), np.array(x, dtype=np.int8)
        half = size >> 1
        # f: sign(a) sign(b) min(|a|, |b|), up to the sign of a zero.
        abs_llr = np.abs(llr)
        f = np.minimum(abs_llr[:, :half], abs_llr[:, half:])
        np.copysign(f, llr[:, :half] * llr[:, half:], out=f)
        rows, x_left = rec(f, lo, s - 1)
        if rows is not None:
            llr = llr.take(rows, axis=0)
        # g: b - a where the left partial sum is 1, else b + a.
        right_rows, x_right = rec(llr[:, half:] + x_left * llr[:, :half], lo + half, s - 1)
        if right_rows is not None:
            if rows is None:
                rows = right_rows
            else:
                rows = rows[right_rows]
                x_left = x_left.take(right_rows, axis=0)
        x = np.empty((pm.size, size), dtype=np.int8)
        np.multiply(x_left, x_right, out=x[:, :half])
        x[:, half:] = x_right
        return rows, x

    pml = bits = None
    rec(chan[None, :], 0, n)
    # rec and kern reach themselves through their closure cells; without
    # this the cycles would keep each decode's arrays alive until the
    # cyclic collector runs.
    del rec, kern

    order = np.argsort(pm, kind="stable")
    # uint8 sums wrap modulo 256, which keeps their parity.
    crcs = (payload @ code.crc_matrix) & 1
    passed = np.all(crcs == side.crc_bits, axis=1)
    pass_count = int(passed.sum())
    for rank in order:
        if passed[rank]:
            return payload[rank].copy(), DecodeDetail(True, pass_count, pm.size)
    return payload[order[0]].copy(), DecodeDetail(False, pass_count, pm.size)
