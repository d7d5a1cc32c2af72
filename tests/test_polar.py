"""Code construction, the GF(2) transform, CRC, and list decoding.

The decoder checks lean on independent in-test oracles: a long-division
CRC, a plain recursive successive-cancellation decoder, and a recursive
CRC-aided list decoder, both with the same min-sum conventions as the
production decoder.  That decoder is a recursion over the code tree too,
but the oracles share none of its arithmetic shortcuts: they work in 0/1
bits, take np.sign products and np.where updates, encode each pinned
subtree on its own, and compute the CRC bit by bit.
"""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csipla.sim as sim
from csipla.polar import (
    CRC4_POLY,
    CRC8_POLY,
    bec_erasure_probs,
    bec_reliability,
    construct_code,
    extract_side_info,
    polar_transform,
    scl_decode,
    scl_decode_detail,
)

LENGTHS = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]


def crc_remainder(bits, poly):
    """Schoolbook polynomial long division over GF(2)."""
    buf = list(int(b) for b in bits) + [0] * (len(poly) - 1)
    for i in range(len(bits)):
        if buf[i]:
            for j, pj in enumerate(poly):
                buf[i + j] ^= int(pj)
    return np.array(buf[len(bits):], dtype=np.uint8)


def sc_reference(chan_llr, pinned, block_len):
    """Recursive successive cancellation, list size one.

    Mirrors the production conventions exactly: min-sum check update with
    np.sign (so a zero input propagates), g-update b -/+ a keyed on the left
    partial sum, and ties at zero LLR resolving to bit 0.
    """
    decided = np.zeros(block_len, dtype=np.uint8)

    def rec(llrs, lo):
        n = llrs.size
        if n == 1:
            u = pinned[lo] if pinned[lo] >= 0 else (0 if llrs[0] >= 0 else 1)
            decided[lo] = u
            return np.array([u], dtype=np.uint8)
        half = n // 2
        a, b = llrs[:half], llrs[half:]
        left = rec(np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b)), lo)
        right = rec(np.where(left == 1, b - a, b + a), lo + half)
        return np.concatenate([left ^ right, right])

    rec(np.asarray(chan_llr, dtype=float), 0)
    return decided


def encode_reference(u):
    """Codeword of u under the natural-order kernel, by its recursion."""
    if u.size == 1:
        return u.copy()
    left, right = encode_reference(u[: u.size // 2]), encode_reference(u[u.size // 2 :])
    return np.concatenate([left ^ right, right])


def scl_reference(chan_llr, pinned, crc_poly, crc_want, list_size):
    """Recursive CRC-aided successive-cancellation list decoder.

    Paths are the rows of every array.  A subtree with no free position
    (pinned >= 0 throughout) charges each path its whole-codeword penalty
    sum softplus(-(1 - 2x) llr) at its root; otherwise it splits into the
    min-sum check update and the b -/+ a variable update.  At a free leaf
    the candidates are every path with bit 0, then every path with bit 1,
    and the `list_size` lowest metrics survive a stable sort.  Returns the
    payload of the best path whose CRC matches `crc_want` (else of the best
    path) and the (selected passed, paths passing, paths alive) triple.
    """
    free = np.flatnonzero(np.asarray(pinned) < 0)
    column = {int(pos): j for j, pos in enumerate(free)}
    metric = np.zeros(1)
    payload = np.zeros((1, free.size), dtype=np.uint8)

    def penalty(llr, sign):
        return np.logaddexp(0.0, -sign * llr)

    def rec(llr, lo):
        # Returns, for the paths alive afterwards, the row of `llr` each
        # descends from and the codeword bits of this subtree.
        nonlocal metric, payload
        rows, size = llr.shape
        if np.all(pinned[lo : lo + size] >= 0):
            x = encode_reference(pinned[lo : lo + size].astype(np.uint8))
            metric = metric + penalty(llr, 1.0 - 2.0 * x).sum(axis=1)
            return np.arange(rows), np.tile(x, (rows, 1))
        if size == 1:
            lam = llr[:, 0]
            cand = np.concatenate([metric + penalty(lam, 1.0), metric + penalty(lam, -1.0)])
            keep = np.arange(cand.size)
            if cand.size > list_size:
                keep = np.argsort(cand, kind="stable")[:list_size]
            origin, bit = keep % rows, (keep >= rows).astype(np.uint8)
            metric, payload = cand[keep], payload[origin]
            payload[:, column[lo]] = bit
            return origin, bit[:, None]
        half = size // 2
        a, b = llr[:, :half], llr[:, half:]
        from_left, x_left = rec(np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b)), lo)
        a, b = a[from_left], b[from_left]
        from_right, x_right = rec(np.where(x_left == 1, b - a, b + a), lo + half)
        x_left = x_left[from_right]
        return from_left[from_right], np.concatenate([x_left ^ x_right, x_right], axis=1)

    rec(np.asarray(chan_llr, dtype=float)[None, :], 0)
    ranked = np.argsort(metric, kind="stable")
    passed = [np.array_equal(crc_remainder(row, crc_poly), crc_want) for row in payload]
    best = next((r for r in ranked if passed[r]), ranked[0])
    return payload[best], (passed[best], sum(passed), len(passed))


# -- synthetic channel reliabilities ---------------------------------------


def test_bec_probs_length_two():
    assert np.array_equal(bec_erasure_probs(2), [0.75, 0.25])


def test_bec_probs_length_four():
    assert np.array_equal(bec_erasure_probs(4), [0.9375, 0.5625, 0.4375, 0.0625])


@pytest.mark.parametrize("n", LENGTHS[1:])
def test_bec_probs_pairwise_conservation(n):
    # The split z -> (2z - z^2, z^2) preserves the pair sum 2z exactly.
    child = bec_erasure_probs(n)
    parent = bec_erasure_probs(n // 2)
    assert np.allclose(child[0::2] + child[1::2], 2.0 * parent, atol=1e-12)


def test_bec_probs_are_probabilities():
    # extreme synthetic channels saturate in float64 at large sizes, so the
    # bounds are closed; the total is pinned by the pairwise conservation law
    z = bec_erasure_probs(256)
    assert np.all(z >= 0) and np.all(z <= 1)
    assert z.sum() == pytest.approx(128.0, abs=1e-9)


def test_reliability_length_two():
    assert np.array_equal(bec_reliability(2), [1, 0])


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_reliability_sorts_by_erasure_prob(n):
    order = bec_reliability(n)
    assert np.array_equal(np.sort(order), np.arange(n))
    z = bec_erasure_probs(n)
    assert np.all(np.diff(z[order]) >= 0)


def test_reliability_extremes_without_saturation():
    # small enough that no erasure probability rounds to exactly 0 or 1:
    # the all-odd index is strictly best, the all-even index strictly worst
    for n in (4, 64):
        order = bec_reliability(n)
        assert order[0] == n - 1
        assert order[-1] == 0


# -- polar transform --------------------------------------------------------


def test_transform_length_two_by_hand():
    for a in (0, 1):
        for b in (0, 1):
            got = polar_transform(np.array([a, b], dtype=np.uint8))
            assert np.array_equal(got, [a ^ b, b])


def test_transform_is_involution():
    rng = np.random.default_rng(0)
    per_len = 1000 // len(LENGTHS) + 1
    for n in LENGTHS:
        x = rng.integers(0, 2, size=(per_len, n)).astype(np.uint8)
        for row in x:
            assert np.array_equal(polar_transform(polar_transform(row)), row)


def test_transform_is_linear():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, size=64).astype(np.uint8)
    y = rng.integers(0, 2, size=64).astype(np.uint8)
    assert np.array_equal(
        polar_transform(x ^ y), polar_transform(x) ^ polar_transform(y)
    )


def test_transform_batched_matches_rowwise():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2, size=(5, 16)).astype(np.uint8)
    batched = polar_transform(x)
    for i in range(5):
        assert np.array_equal(batched[i], polar_transform(x[i]))


def test_transform_rejects_bad_input():
    with pytest.raises(ValueError):
        polar_transform(np.array([0, 1, 1], dtype=np.uint8))
    with pytest.raises(ValueError):
        polar_transform(np.array([0, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        polar_transform(np.array([], dtype=np.uint8))


# -- CRC ---------------------------------------------------------------------


# The CRC length follows K, so each polynomial is reached through its own
# payload lengths: CRC-4 below K = 20, CRC-8 from K = 20 on.
CRC_SIZES = ((CRC4_POLY, (1, 2, 5, 16, 19)), (CRC8_POLY, (20, 40, 819)))
CRC_CASES = [(k, len(poly) - 1) for poly, sizes in CRC_SIZES for k in sizes]


def crc_of(msg, poly):
    """The pipeline's CRC of a payload: one mat-vec mod 2 with the code's matrix."""
    code = construct_code(2048, msg.size / 2048, list_size=8)
    assert code.k_info == msg.size and np.array_equal(code.crc_poly, poly)
    return (msg @ code.crc_matrix) & 1


def test_crc_of_zeros_is_zero():
    for poly, sizes in CRC_SIZES:
        for size in sizes:
            msg = np.zeros(size, dtype=np.uint8)
            assert np.array_equal(crc_of(msg, poly), np.zeros(len(poly) - 1))


def test_crc_hand_worked_value():
    # 1011 0000 divided by 10011 leaves remainder 1110
    got = crc_of(np.array([1, 0, 1, 1], dtype=np.uint8), CRC4_POLY)
    assert np.array_equal(got, [1, 1, 1, 0])


def test_crc_matches_long_division_oracle():
    rng = np.random.default_rng(3)
    for poly, sizes in CRC_SIZES:
        for size in sizes:
            for _ in range(20):
                msg = rng.integers(0, 2, size=size).astype(np.uint8)
                assert np.array_equal(crc_of(msg, poly), crc_remainder(msg, poly))


def test_crc_detects_single_bit_errors():
    # x^i mod g never vanishes, and the exponents stay below the order of x,
    # so all single-bit messages map to distinct nonzero remainders: every
    # row of the CRC matrix is nonzero, and these rows are distinct.
    for poly, length in ((CRC4_POLY, 12), (CRC8_POLY, 20)):
        seen = set()
        for i in range(length):
            msg = np.zeros(length, dtype=np.uint8)
            msg[i] = 1
            crc = tuple(crc_of(msg, poly).tolist())
            assert any(crc), f"position {i} aliases the zero message"
            seen.add(crc)
        assert len(seen) == length
    for k_info in (19, 819):
        assert construct_code(2048, k_info / 2048, list_size=8).crc_matrix.any(axis=1).all()


@pytest.mark.parametrize("k_info, crc_len", CRC_CASES)
def test_crc_matrix_rows_are_unit_message_crcs(k_info, crc_len):
    # The decoder checks a payload u by (u @ crc_matrix) mod 2, which holds
    # only if row i is the CRC of the i-th unit message.
    code = construct_code(2048, k_info / 2048, list_size=8)
    assert (code.k_info, code.crc_len) == (k_info, crc_len)
    want = [crc_remainder(row, code.crc_poly) for row in np.eye(k_info, dtype=np.uint8)]
    assert code.crc_matrix.dtype == np.uint8
    assert np.array_equal(code.crc_matrix, want)


# -- code construction -------------------------------------------------------


def test_construct_code_default_shape():
    code = construct_code(1024, 0.01, list_size=8)
    assert code.block_len == 1024
    assert code.k_info == 10
    assert code.crc_len == 4  # short payloads get the 4-bit CRC
    assert code.list_size == 8


def test_construct_code_auto_crc_switches_at_twenty():
    assert construct_code(1024, 0.0186, list_size=8).crc_len == 4  # K = 19
    assert construct_code(1024, 0.02, list_size=8).crc_len == 8  # K = 20
    assert construct_code(2048, 0.01, list_size=8).crc_len == 8  # K = 20


def test_construct_code_k_is_rounded():
    assert construct_code(2048, 0.01, list_size=8).k_info == 20
    assert construct_code(2048, 0.0137, list_size=8).k_info == 28


def test_construct_code_positions_partition_block():
    # The CRC takes no positions: exactly the K payload positions are
    # list-decoded and every other position is frozen.
    for block_len, rate, crc_len in ((1024, 0.0186, 4), (1024, 0.02, 8), (2048, 0.4, 8)):
        code = construct_code(block_len, rate, list_size=8)
        assert code.crc_len == crc_len
        assert code.info_positions.size == code.k_info
        merged = np.concatenate([code.info_positions, code.frozen_positions])
        assert np.array_equal(np.sort(merged), np.arange(block_len))
        for arr in (code.info_positions, code.frozen_positions):
            assert np.all(np.diff(arr) > 0)


def test_construct_code_uses_most_reliable_positions():
    code = construct_code(1024, 0.01, list_size=8)
    want = set(bec_reliability(1024)[: code.k_info].tolist())
    assert set(code.info_positions.tolist()) == want
    assert set(code.frozen_positions.tolist()) == set(range(1024)) - want


@pytest.mark.parametrize(
    "kwargs",
    [
        {"block_len": 12, "rate": 0.1},
        {"block_len": 1, "rate": 0.5},
        {"block_len": 64, "rate": 0.001},  # rounds to zero payload bits
        {"block_len": 16, "rate": 0.9},  # payload + CRC exceed the block
        {"block_len": 64, "rate": 1.0},  # rate outside (0, 1)
        {"block_len": 64, "rate": 0.1, "list_size": 0},
    ],
)
def test_construct_code_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        construct_code(**{"list_size": 8, **kwargs})


# -- side information ---------------------------------------------------------


def test_side_info_of_zero_vector_is_zero():
    code = construct_code(64, 0.2, list_size=8)
    r, side = extract_side_info(np.zeros(64, dtype=np.uint8), code)
    assert not r.any()
    assert not side.frozen_values.any()
    assert not side.crc_bits.any()


def test_side_info_structure():
    rng = np.random.default_rng(5)
    code = construct_code(256, 0.1, list_size=8)
    q = rng.integers(0, 2, size=256).astype(np.uint8)
    r, side = extract_side_info(q, code)
    u = polar_transform(q)
    assert np.array_equal(r, u[code.info_positions])
    assert side.frozen_values.size == 256 - code.k_info
    assert np.array_equal(side.frozen_values, u[code.frozen_positions])
    assert np.array_equal(side.crc_bits, crc_remainder(u[code.info_positions], code.crc_poly))


@pytest.mark.parametrize("k_info, crc_len", CRC_CASES)
def test_side_info_crc_matches_long_division(k_info, crc_len):
    rng = np.random.default_rng(12)
    code = construct_code(2048, k_info / 2048, list_size=8)
    assert (code.k_info, code.crc_len) == (k_info, crc_len)
    for _ in range(5):
        q = rng.integers(0, 2, size=2048).astype(np.uint8)
        r, side = extract_side_info(q, code)
        assert np.array_equal(r, polar_transform(q)[code.info_positions])
        assert np.array_equal(side.crc_bits, crc_remainder(r, code.crc_poly))


def test_side_info_rejects_wrong_length():
    code = construct_code(64, 0.2, list_size=8)
    with pytest.raises(ValueError):
        extract_side_info(np.zeros(32, dtype=np.uint8), code)


# -- decoding ------------------------------------------------------------------


def payload_of(q, code):
    return polar_transform(q)[code.info_positions]


def test_noiseless_decode_is_exact():
    # With the authentication vector equal to the enrollment vector, the
    # pinned values already force the transmitted path: zero residual errors.
    rng = np.random.default_rng(6)
    code = construct_code(1024, 0.01, list_size=1)
    for _ in range(1000):
        q = rng.integers(0, 2, size=1024).astype(np.uint8)
        _, side = extract_side_info(q, code)
        got = scl_decode(q, side, code, 0.05)
        assert np.array_equal(got, payload_of(q, code))


def test_noiseless_decode_exact_with_lists_and_dense_code():
    rng = np.random.default_rng(7)
    for code in (construct_code(1024, 0.01, list_size=8), construct_code(64, 0.25, list_size=4)):
        for _ in range(50):
            q = rng.integers(0, 2, size=code.block_len).astype(np.uint8)
            _, side = extract_side_info(q, code)
            assert np.array_equal(scl_decode(q, side, code, 0.1), payload_of(q, code))


def test_decode_matches_recursive_reference():
    # Exact agreement with an independently written successive-cancellation
    # decoder, across sizes, rates and flip levels.
    rng = np.random.default_rng(8)
    cases = [(16, 0.3), (64, 0.3), (64, 0.05), (256, 0.05)]
    for block_len, rate in cases:
        code = construct_code(block_len, rate, list_size=1)
        pinned = np.full(block_len, -1, dtype=int)
        for _ in range(75):
            q = rng.integers(0, 2, size=block_len).astype(np.uint8)
            _, side = extract_side_info(q, code)
            flips = rng.random(block_len) < rng.uniform(0.0, 0.4)
            q_auth = (q ^ flips).astype(np.uint8)
            channel_p = rng.uniform(0.02, 0.45)

            mag = math.log((1 - channel_p) / channel_p)
            chan_llr = (1 - 2 * q_auth.astype(float)) * mag
            pinned[:] = -1
            pinned[code.frozen_positions] = side.frozen_values
            want = sc_reference(chan_llr, pinned, block_len)[code.info_positions]

            got = scl_decode(q_auth, side, code, channel_p)
            assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 8),
    k_frac=st.floats(0.0, 1.0),
    # Below about 1e-308, ln((1 - p) / p) overflows to an infinite LLR.
    channel_p=st.floats(1e-300, 0.5, exclude_max=True),
    list_size=st.sampled_from([1, 2, 3, 4, 8]),
    flip_p=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_list_decode_matches_recursive_reference(
    n, k_frac, channel_p, list_size, flip_p, seed
):
    # Bits and CRC pass count agree with the recursive list decoder, while
    # the list grows, fills and prunes.  Examples are derandomized so that
    # every run draws the same ones.
    block_len = 1 << n
    # The largest K whose CRC still fits: CRC-4 below K = 20, CRC-8 from 20.
    k_max = block_len - 8 if block_len >= 28 else min(19, block_len - 4)
    k_info = 1 + int(k_frac * (k_max - 1))
    code = construct_code(block_len, k_info / block_len, list_size=list_size)
    rng = np.random.default_rng(seed)
    q = rng.integers(0, 2, size=block_len).astype(np.uint8)
    _, side = extract_side_info(q, code)
    q_auth = (q ^ (rng.random(block_len) < flip_p)).astype(np.uint8)

    pinned = np.full(block_len, -1, dtype=int)
    pinned[code.frozen_positions] = side.frozen_values
    mag = math.log((1 - channel_p) / channel_p)
    chan_llr = (1 - 2 * q_auth.astype(float)) * mag
    want, (passed, pass_count, paths) = scl_reference(
        chan_llr, pinned, code.crc_poly, side.crc_bits, list_size
    )

    got, count = scl_decode_detail(q_auth, side, code, channel_p)
    assert np.array_equal(got, want)
    assert count == pass_count
    assert passed == (pass_count > 0) and paths == min(list_size, 2**k_info)


@pytest.mark.parametrize(
    "quant_bits, code_rate, list_size",
    [(2, 0.01, 2), (1, 0.01, 2), (2, 0.4, 2), (2, 0.4, 4)],
    ids=["N2048-K20", "N1024-K10", "N2048-K819", "N2048-K819-L4"],
)
def test_list_decode_matches_recursive_reference_on_simulator_trials(
    monkeypatch, quant_bits, code_rate, list_size
):
    # The workload shapes, with the simulator's own inputs: every channel LLR
    # has the same magnitude, so exact zeros and tied metrics are common.
    # At L=4 the list is full after two free leaves; from then on each of
    # the 817 later leaves sorts 8 candidates and keeps 4.
    decodes = []

    def recording(q_auth, side, code, channel_p):
        decodes.append((np.array(q_auth, dtype=np.uint8), side, code, channel_p))
        return scl_decode(q_auth, side, code, channel_p)

    cfg = sim.ExperimentConfig(
        quant_bits=quant_bits, code_rate=code_rate, list_size=list_size, calibration_trials=20
    )
    simulator = sim.Simulator(cfg)
    assert simulator.code.list_size == list_size
    simulator.calibrate()
    channel_p = simulator.channel_p
    monkeypatch.setattr(sim, "scl_decode", recording)
    for hypothesis, stream in ((sim.H0, 0), (sim.H1, 1)):
        simulator._trials(hypothesis, stream, 10)
    assert len(decodes) == 20

    mag = math.log((1 - channel_p) / channel_p)
    for q_auth, side, code, p in decodes:
        assert p == channel_p
        pinned = np.full(code.block_len, -1, dtype=int)
        pinned[code.frozen_positions] = side.frozen_values
        chan_llr = (1 - 2 * q_auth.astype(float)) * mag
        want, (passed, pass_count, paths) = scl_reference(
            chan_llr, pinned, code.crc_poly, side.crc_bits, code.list_size
        )
        got, count = scl_decode_detail(q_auth, side, code, p)
        assert np.array_equal(got, want)
        assert count == pass_count
        assert passed == (pass_count > 0) and paths == min(code.list_size, 2**code.k_info)


def test_float_softplus_is_logaddexp_bit_for_bit():
    # The decoder's kernel for small subtrees takes softplus(v) on Python
    # floats as below, and at a free leaf shares the log1p term between
    # softplus(-lam) and softplus(lam).  Its metrics equal the numpy
    # recursion's only while both forms equal np.logaddexp(0, v) bit for
    # bit, which rests on libm and numpy agreeing: log1p(1.0) is numpy's
    # 0 + LOGE2, for one.
    edges = [0.0, 5e-324, 1e-300, 1e-17, 1.0, 36.7, 37.0, 709.7, 710.0, 1e300]
    rng = np.random.default_rng(15)
    random = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-20, 3, 100_000)
    v = np.concatenate([edges, np.negative(edges), random])
    want = np.logaddexp(0.0, v)
    direct = [(x if x > 0 else 0.0) + math.log1p(math.exp(-abs(x))) for x in v.tolist()]
    # softplus(x) as a free leaf takes it for lam = -x.
    shared = [(0.0 if -x >= 0 else x) + math.log1p(math.exp(-abs(-x))) for x in v.tolist()]
    assert np.array_equal(np.array(direct).view(np.int64), want.view(np.int64))
    assert np.array_equal(np.array(shared).view(np.int64), want.view(np.int64))


def test_decode_degrades_with_flip_probability():
    rng = np.random.default_rng(9)
    code = construct_code(512, 0.05, list_size=2)
    k = code.k_info

    def mismatch_rate(flip_p, trials=60):
        total = 0
        for _ in range(trials):
            q = rng.integers(0, 2, size=512).astype(np.uint8)
            _, side = extract_side_info(q, code)
            q_auth = (q ^ (rng.random(512) < flip_p)).astype(np.uint8)
            got = scl_decode(q_auth, side, code, 0.2)
            total += int(np.sum(got != payload_of(q, code)))
        return total / (trials * k)

    assert mismatch_rate(0.01) <= 0.02
    assert mismatch_rate(0.45) >= 0.25


def test_decode_of_unrelated_vector_looks_like_coin_flips():
    rng = np.random.default_rng(10)
    code = construct_code(1024, 0.01, list_size=2)
    total = 0
    for _ in range(200):
        q = rng.integers(0, 2, size=1024).astype(np.uint8)
        _, side = extract_side_info(q, code)
        other = rng.integers(0, 2, size=1024).astype(np.uint8)
        got = scl_decode(other, side, code, 0.2)
        total += int(np.sum(got != payload_of(q, code)))
    frac = total / (200 * code.k_info)
    assert 0.3 <= frac <= 0.65


def test_crc_arbitration_and_detail_counters():
    rng = np.random.default_rng(11)
    code = construct_code(256, 0.1, list_size=2)
    passes = 0
    for _ in range(300):
        q = rng.integers(0, 2, size=256).astype(np.uint8)
        _, side = extract_side_info(q, code)
        other = rng.integers(0, 2, size=256).astype(np.uint8)
        _, count = scl_decode_detail(other, side, code, 0.2)
        assert 0 <= count <= code.list_size
        passes += int(count > 0)
    # an unrelated vector decodes to garbage; its CRC should almost never
    # match the enrollment checksum (roughly list_size / 2^8 of the time)
    assert passes / 300 <= 0.1

    q = rng.integers(0, 2, size=256).astype(np.uint8)
    _, side = extract_side_info(q, code)
    got, count = scl_decode_detail(q, side, code, 0.2)
    assert count > 0
    assert np.array_equal(got, payload_of(q, code))


def test_decode_validates_inputs():
    code = construct_code(64, 0.2, list_size=8)
    q = np.zeros(64, dtype=np.uint8)
    _, side = extract_side_info(q, code)
    for bad_p in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            scl_decode(q, side, code, bad_p)
    with pytest.raises(ValueError):
        scl_decode(np.zeros(32, dtype=np.uint8), side, code, 0.1)


@pytest.mark.parametrize(
    "q_auth",
    [np.full(64, 2, np.uint8), np.full(64, 7, np.int64), np.full(64, -1, np.int64)],
    ids=["uint8-2", "int64-7", "int64-minus1"],
)
def test_decode_rejects_non_binary_observation(q_auth):
    # As uint8 these read 2, 7 and 255; polar_transform rejects the same
    # vectors at enrollment.
    code = construct_code(64, 0.2, list_size=2)
    _, side = extract_side_info(np.zeros(64, dtype=np.uint8), code)
    with pytest.raises(ValueError, match="0/1"):
        scl_decode_detail(q_auth, side, code, 0.1)


@pytest.mark.parametrize("value", [0.9, 1.9])
@pytest.mark.parametrize("entry", ["polar_transform", "extract_side_info", "scl_decode"])
def test_non_integral_bits_rejected(entry, value):
    # A uint8 cast alone turns 0.9 into 0 and 1.9 into 1.
    code = construct_code(64, 0.2, list_size=2)
    _, side = extract_side_info(np.zeros(64, dtype=np.uint8), code)
    call = {
        "polar_transform": polar_transform,
        "extract_side_info": lambda q: extract_side_info(q, code),
        "scl_decode": lambda q: scl_decode(q, side, code, 0.1),
    }[entry]
    with pytest.raises(ValueError, match="0/1"):
        call(np.full(64, value))


@pytest.mark.parametrize("dtype", [np.float64, np.int64, bool])
def test_exact_bits_of_any_dtype_accepted(dtype):
    code = construct_code(64, 0.2, list_size=2)
    rng = np.random.default_rng(14)
    q = rng.integers(0, 2, size=64).astype(np.uint8)
    q_auth = q ^ (rng.random(64) < 0.1)
    r, side = extract_side_info(q, code)
    assert np.array_equal(polar_transform(q.astype(dtype)), polar_transform(q))
    r_other, side_other = extract_side_info(q.astype(dtype), code)
    assert np.array_equal(r_other, r)
    assert np.array_equal(side_other.frozen_values, side.frozen_values)
    assert np.array_equal(side_other.crc_bits, side.crc_bits)
    assert np.array_equal(
        scl_decode(q_auth.astype(dtype), side, code, 0.1),
        scl_decode(q_auth.astype(np.uint8), side, code, 0.1),
    )


def test_decode_leaves_no_reference_cycle():
    # Arrays caught in a cycle wait for the cyclic collector, which raised
    # peak memory by more than half on the default workload.
    code = construct_code(2048, 0.01, list_size=2)
    rng = np.random.default_rng(13)
    q = rng.integers(0, 2, size=2048).astype(np.uint8)
    _, side = extract_side_info(q, code)
    q_auth = (q ^ (rng.random(2048) < 0.1)).astype(np.uint8)
    gc.collect()
    gc.disable()
    try:
        scl_decode_detail(q_auth, side, code, 0.1)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("channel_p", [5e-324, 1e-310])
def test_decode_rejects_infinite_channel_llr(channel_p):
    # ln((1 - p) / p) overflows below about 2.2e-308; the min-sum updates
    # would then compute inf - inf and return NaN metrics.
    code = construct_code(64, 0.2, list_size=2)
    q = np.zeros(64, dtype=np.uint8)
    _, side = extract_side_info(q, code)
    with pytest.raises(ValueError, match="infinite"):
        scl_decode_detail(q, side, code, channel_p)
