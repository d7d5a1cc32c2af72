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


def polar_transform(bits: np.ndarray) -> np.ndarray:
    """Apply F^{(x)n} over GF(2) along the last axis (its own inverse).

    Accepts any leading batch shape; the last axis length must be a power
    of two (length 1 is the identity).
    """
    arr = np.asarray(bits)
    if arr.size and arr.max() > 1:
        raise ValueError("bits must be 0/1 valued")
    x = arr.astype(np.uint8).copy()
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError(f"transform length must be a power of two, got {n}")
    step = 1
    while step < n:
        shaped = x.reshape(x.shape[:-1] + (-1, 2, step))
        shaped[..., 0, :] ^= shaped[..., 1, :]
        step *= 2
    return x


def crc_compute(bits: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """CRC of a bit message: remainder of m(x) * x^c modulo the generator.

    Zero initial register, no final XOR.  `poly` lists the generator
    coefficients MSB first including the leading term, so its length is
    c + 1.
    """
    poly = np.asarray(poly, dtype=np.uint8)
    if poly.size < 2 or poly[0] != 1:
        raise ValueError("poly must start with its leading 1 coefficient")
    m = np.asarray(bits, dtype=np.uint8)
    c = poly.size - 1
    work = np.concatenate([m, np.zeros(c, dtype=np.uint8)])
    for i in range(m.size):
        if work[i]:
            work[i : i + c + 1] ^= poly
    return work[m.size :].copy()


@dataclass(frozen=True, eq=False)
class PolarCode:
    """Frozen description of one reconciliation code instance.

    `info_positions` holds the K most reliable positions and
    `frozen_positions` every other one.  `crc_len` sets only the length of
    the payload CRC; no position is set aside for it.  `decode_steps` and
    `crc_matrix` are derived artifacts cached here because they depend only
    on the position sets.
    """

    block_len: int
    k_info: int
    crc_len: int
    crc_poly: np.ndarray
    list_size: int
    info_positions: np.ndarray
    frozen_positions: np.ndarray
    decode_steps: tuple = field(repr=False)
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


def _build_decode_steps(free_mask: np.ndarray, n: int) -> tuple:
    """Schedule: maximal fully-pinned subtrees collapse to one step each.

    Each entry is (kind, lo, depth, size) with kind "seg" for a pinned
    subtree processed in one shot and "free" for a single list-decoded bit.
    """
    steps = []

    def rec(d, seg):
        size = 1 << (n - d)
        lo = seg * size
        if not free_mask[lo : lo + size].any():
            steps.append(("seg", lo, d, size))
            return
        if size == 1:
            steps.append(("free", lo, n, 1))
            return
        rec(d + 1, 2 * seg)
        rec(d + 1, 2 * seg + 1)

    rec(0, 0)
    return tuple(steps)


def construct_code(
    block_len: int,
    rate: float,
    crc_len: int | None = None,
    list_size: int = 8,
) -> PolarCode:
    """Build the code for a payload rate.

    K = round(rate * block_len) payload bits.  The CRC length defaults to 4
    (poly x^4+x+1) when K < 20 and 8 (poly x^8+x^2+x+1) otherwise.
    """
    _check_block_len(block_len)
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    if list_size < 1:
        raise ValueError("list_size must be >= 1")
    k_info = int(round(rate * block_len))
    if k_info < 1:
        raise ValueError(f"rate {rate} rounds to zero payload bits")
    if crc_len is None:
        crc_len = 4 if k_info < 20 else 8
    if crc_len == 4:
        crc_poly = CRC4_POLY
    elif crc_len == 8:
        crc_poly = CRC8_POLY
    else:
        raise ValueError("crc_len must be 4 or 8")
    if k_info + crc_len > block_len:
        raise ValueError("payload plus CRC exceeds the block length")

    order = bec_reliability(block_len)
    info = np.sort(order[:k_info])
    frozen = np.sort(order[k_info:])

    free_mask = np.zeros(block_len, dtype=bool)
    free_mask[info] = True
    n = block_len.bit_length() - 1
    steps = _build_decode_steps(free_mask, n)

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
        decode_steps=steps,
        crc_matrix=crc_matrix,
    )


def extract_side_info(q_enroll: np.ndarray, code: PolarCode):
    """Enrollment-side processing of one quantized bit vector.

    Returns (r, side): the K reconciled payload bits in ascending position
    order and the SideInfo the verifier stores for later decoding.
    """
    q = np.asarray(q_enroll, dtype=np.uint8)
    if q.size != code.block_len:
        raise ValueError(f"expected {code.block_len} bits, got {q.size}")
    u = polar_transform(q)
    r = u[code.info_positions].copy()
    side = SideInfo(
        frozen_values=u[code.frozen_positions].copy(),
        crc_bits=crc_compute(r, code.crc_poly),
    )
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

    The observation is treated as the enrollment vector passed through a
    memoryless binary symmetric channel with crossover `channel_p`, giving
    per-bit LLR (1 - 2 q) * ln((1-p)/p).  Returns the K payload bits of the
    best CRC-consistent path, falling back to the overall best path when no
    path checks out (a wrong answer is itself the authentication signal).
    """
    return scl_decode_detail(q_auth, side, code, channel_p)[0]


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def scl_decode_detail(q_auth, side, code, channel_p):
    """Like :func:`scl_decode` but also returns a :class:`DecodeDetail`."""
    if not 0.0 < channel_p < 0.5:
        raise ValueError(f"channel_p must lie strictly inside (0, 0.5), got {channel_p}")
    q = np.asarray(q_auth, dtype=np.uint8)
    block_len = code.block_len
    if q.size != block_len:
        raise ValueError(f"expected {block_len} bits, got {q.size}")
    n = block_len.bit_length() - 1
    cap = code.list_size
    k_info = code.k_info

    mag = math.log((1.0 - channel_p) / channel_p)
    chan = (1.0 - 2.0 * q.astype(float)) * mag

    pinned_vals = np.zeros(block_len, dtype=np.uint8)
    pinned_vals[code.frozen_positions] = side.frozen_values

    # Pinned subtrees contribute path metric against their known codeword
    # chunk transform(u_chunk); precompute chunks and their sign patterns.
    seg_bits = {}
    seg_sign = {}
    for kind, lo, d, size in code.decode_steps:
        if kind == "seg":
            x = polar_transform(pinned_vals[lo : lo + size])
            seg_bits[lo] = x
            seg_sign[lo] = 1.0 - 2.0 * x.astype(float)

    # Per-path state, rows 0..nact-1 active.  Depth-d LLR/partial-sum levels
    # hold only the segment currently being traversed, so one path's state
    # is O(block_len).  All of it lives in two buffers, one row per path:
    # LLR levels 1..n in `fstate`, partial-sum levels 1..n and the payload in
    # `ustate`; the per-level arrays are views, so a fork copies two buffers.
    fstate = np.zeros((cap, block_len - 1))
    ustate = np.zeros((cap, 2 * (block_len - 1) + k_info), dtype=np.uint8)
    llr, sums = [None], [None]
    off = 0
    for d in range(1, n + 1):
        width = 1 << (n - d)
        llr.append(fstate[:, off : off + width])
        sums.append(ustate[:, 2 * off : 2 * (off + width)].reshape(cap, 2, width))
        off += width
    u_info = ustate[:, 2 * off :]
    pm = np.zeros(cap)
    nact = 1

    chan_row = chan[np.newaxis, :]
    info_slot = {int(p): j for j, p in enumerate(code.info_positions)}

    def descend(phi, d_top):
        # Refresh LLR levels d0..d_top; d0 is the shallowest level whose
        # segment starts at phi (phi = 0 restarts the full left spine).
        if phi == 0:
            d0 = 1
        else:
            d0 = n - ((phi & -phi).bit_length() - 1)
        for d in range(d0, d_top + 1):
            half = 1 << (n - d)
            seg = phi >> (n - d)
            if d == 1:
                a = chan_row[:, :half]
                b = chan_row[:, half:]
            else:
                parent = llr[d - 1]
                a = parent[:nact, :half]
                b = parent[:nact, half:]
            tgt = llr[d]
            if seg & 1 == 0:
                tgt[:nact] = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
            else:
                s_left = sums[d][:nact, 0]
                tgt[:nact] = np.where(s_left == 1, b - a, b + a)

    def propagate(d, s):
        # Fold completed right children into parent partial sums.
        while d > 1 and (s & 1):
            half = 1 << (n - d)
            left = sums[d][:nact, 0]
            right = sums[d][:nact, 1]
            tgt = sums[d - 1][:nact, (s >> 1) & 1]
            np.bitwise_xor(left, right, out=tgt[:, :half])
            tgt[:, half:] = right
            s >>= 1
            d -= 1

    for kind, lo, d_t, size in code.decode_steps:
        descend(lo, d_t)
        if kind == "free":
            lam = llr[n][:nact, 0]
            cand = np.concatenate([pm[:nact] + _softplus(-lam), pm[:nact] + _softplus(lam)])
            if cand.size <= cap:
                keep = np.arange(cand.size)
            else:
                keep = np.argsort(cand, kind="stable")[:cap]
            parents = keep % nact
            chosen = (keep >= nact).astype(np.uint8)
            k = keep.size
            fstate[:k] = fstate.take(parents, axis=0)
            ustate[:k] = ustate.take(parents, axis=0)
            pm[:k] = cand[keep]
            u_info[:k, info_slot[lo]] = chosen
            nact = k
            sums[n][:nact, lo & 1, 0] = chosen
            propagate(n, lo)
        else:
            lam = llr[d_t][:nact]
            pm[:nact] += _softplus(-seg_sign[lo] * lam).sum(axis=1)
            s = lo >> (n - d_t)
            sums[d_t][:nact, s & 1, :] = seg_bits[lo]
            propagate(d_t, s)

    order = np.argsort(pm[:nact], kind="stable")
    crcs = (u_info[:nact].astype(np.int64) @ code.crc_matrix.astype(np.int64)) & 1
    passed = np.all(crcs == side.crc_bits, axis=1)
    pass_count = int(passed.sum())
    for rank in order:
        if passed[rank]:
            return u_info[rank].copy(), DecodeDetail(True, pass_count, nact)
    return u_info[order[0]].copy(), DecodeDetail(False, pass_count, nact)
