"""Kernel equivalence against the scalar oracle, packing round-trips, costs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squant.kernels import (
    CostCounter,
    accumulation_depth_limit,
    gemm_i4_packed,
    gemm_i8,
    gemm_mixed,
    pack_int4,
    scalar_reference_gemm,
    unpack_int4,
)
from squant.seeding import substream


def random_case(rng, max_dim=64, full_range=True):
    m = int(rng.integers(1, max_dim + 1))
    k = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    w = rng.integers(-8, 8, size=(m, k)).astype(np.int8)
    x = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
    if full_range:
        # force the extremes into every case
        w.reshape(-1)[int(rng.integers(w.size))] = -8
        w.reshape(-1)[int(rng.integers(w.size))] = 7
        x.reshape(-1)[int(rng.integers(x.size))] = -128
        x.reshape(-1)[int(rng.integers(x.size))] = 127
    return w, x


class TestPacking:
    def test_worked_example_units(self):
        wp = pack_int4(np.array([[1, -2], [3, 4]], dtype=np.int8))
        # unit = hi * 2^16 + lo, arithmetic (not OR-masked)
        np.testing.assert_array_equal(wp.packed, [[3 * 65536 + 1, 4 * 65536 - 2]])
        assert not wp.pad_row

    def test_zero_matrix(self):
        wp = pack_int4(np.zeros((4, 3), dtype=np.int8))
        assert not wp.packed.any()

    def test_odd_rows_padded(self):
        wp = pack_int4(np.ones((3, 2), dtype=np.int8))
        assert wp.pair_rows == 2
        assert wp.pad_row
        assert wp.logical_rows == 3

    def test_roundtrip_exact(self):
        rng = substream(3, "pack-rt")
        for _ in range(50):
            m, k = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            w = rng.integers(-8, 8, size=(m, k)).astype(np.int8)
            np.testing.assert_array_equal(unpack_int4(pack_int4(w)), w)

    def test_extreme_values_roundtrip(self):
        w = np.array([[-8, 7], [7, -8], [-8, -8]], dtype=np.int8)
        np.testing.assert_array_equal(unpack_int4(pack_int4(w)), w)

    @pytest.mark.parametrize("rows", [6, 7])
    def test_stored_operands_match_unpack(self, rows):
        w = substream(3, f"pack-ops-{rows}").integers(-8, 8, size=(rows, 9)).astype(np.int8)
        w[0, 0], w[-1, -1] = -8, 7
        wp = pack_int4(w)
        w[:] = 0  # the stored forms do not alias the input
        plain = unpack_int4(wp)
        assert wp.codes.dtype == np.int8
        np.testing.assert_array_equal(wp.codes, plain)
        pairs = np.vstack([plain, np.zeros((rows % 2, 9), dtype=np.int8)]).astype(np.int64)
        assert wp.lanes.dtype == np.float64
        np.testing.assert_array_equal(wp.lanes, pairs[1::2] * 2**24 + pairs[0::2])

    def test_range_error_names_index(self):
        w = np.zeros((3, 3), dtype=np.int8)
        w[1, 2] = 8
        with pytest.raises(ValueError, match=r"8 at \(1, 2\)"):
            pack_int4(w)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="int8"):
            pack_int4(np.zeros((2, 2), dtype=np.int32))


class TestGemmI8:
    def test_identity_widens(self):
        rng = substream(3, "i8-id")
        x = rng.integers(-128, 128, size=(5, 7)).astype(np.int8)
        out = gemm_i8(np.eye(5, dtype=np.int8), x, CostCounter())
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, x.astype(np.int32))

    def test_worked_example(self):
        w = np.array([[1, -2], [3, 4]], dtype=np.int8)
        x = np.array([[5], [-6]], dtype=np.int8)
        cost = CostCounter()
        np.testing.assert_array_equal(gemm_i8(w, x, cost), [[17], [-9]])
        assert cost.mul_count == 2 * 2 * 1

    def test_matches_scalar_oracle(self):
        rng = substream(3, "i8-oracle")
        for _ in range(100):
            w, x = random_case(rng, max_dim=16)
            np.testing.assert_array_equal(
                gemm_i8(w, x, CostCounter()), scalar_reference_gemm(w, x)
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dims"):
            gemm_i8(np.zeros((2, 3), dtype=np.int8), np.zeros((2, 3), dtype=np.int8), CostCounter())

    def test_depth_bound_enforced(self):
        k = accumulation_depth_limit(8, 8) + 1
        w = np.zeros((1, k), dtype=np.int8)
        x = np.zeros((k, 1), dtype=np.int8)
        with pytest.raises(ValueError, match="accumulation bound"):
            gemm_i8(w, x, CostCounter())


class TestGemmI4Packed:
    def test_worked_example_with_counts(self):
        w = np.array([[1, -2], [3, 4]], dtype=np.int8)
        x = np.array([[5], [-6]], dtype=np.int8)
        cost_p, cost_b = CostCounter(), CostCounter()
        out = gemm_i4_packed(pack_int4(w), x, cost_p)
        np.testing.assert_array_equal(out, [[17], [-9]])
        gemm_i8(w, x, cost_b)
        assert cost_p.mul_count == 2 and cost_b.mul_count == 4

    def test_zero_activations(self):
        wp = pack_int4(substream(3, "i4-z").integers(-8, 8, size=(6, 5)).astype(np.int8))
        out = gemm_i4_packed(wp, np.zeros((5, 3), dtype=np.int8), CostCounter())
        assert not out.any()

    def test_bitexact_vs_byte_kernel(self):
        rng = substream(3, "i4-oracle")
        for _ in range(200):
            w, x = random_case(rng, max_dim=32)
            got = gemm_i4_packed(pack_int4(w), x, CostCounter())
            want = gemm_i8(w, x, CostCounter())
            np.testing.assert_array_equal(got, want)

    def test_extreme_value_split_exact(self):
        # the low lane tops out at -8 * -128 = 1024, still inside 15 bits
        w = np.array([[-8, -8], [7, -8]], dtype=np.int8)
        x = np.array([[-128, 127], [-128, 127]], dtype=np.int8)
        got = gemm_i4_packed(pack_int4(w), x, CostCounter())
        np.testing.assert_array_equal(got, scalar_reference_gemm(w, x))

    def test_odd_rows(self):
        rng = substream(3, "i4-odd")
        w = rng.integers(-8, 8, size=(7, 9)).astype(np.int8)
        x = rng.integers(-128, 128, size=(9, 4)).astype(np.int8)
        got = gemm_i4_packed(pack_int4(w), x, CostCounter())
        assert got.shape == (7, 4)
        np.testing.assert_array_equal(got, gemm_i8(w, x, CostCounter()))

    def test_cost_formula(self):
        for m in (1, 2, 5, 8):
            w = np.ones((m, 3), dtype=np.int8)
            x = np.ones((3, 4), dtype=np.int8)
            cost = CostCounter()
            gemm_i4_packed(pack_int4(w), x, cost)
            pairs = (m + 1) // 2
            assert cost.mul_count == pairs * 3 * 4
            assert cost.add_count == 3 * pairs * 3 * 4

    def test_halving_even_rows(self):
        w = np.ones((16, 8), dtype=np.int8)
        x = np.ones((8, 8), dtype=np.int8)
        cp, cb = CostCounter(), CostCounter()
        gemm_i4_packed(pack_int4(w), x, cp)
        gemm_i8(w, x, cb)
        assert cp.mul_count * 2 == cb.mul_count


def extreme_operands(m, k, n, w_lo, w_hi):
    """Operands at the int8 extremes, so each sum is near the largest K allows.

    Even rows end in an odd product (odd * 127), which makes their sums odd:
    a float format too narrow for such a sum must round it.
    """
    w = np.full((m, k), w_lo, dtype=np.int8)
    x = np.full((k, n), -128, dtype=np.int8)
    w[::2, -1] = w_hi  # odd * 127 is odd
    x[-1] = 127
    x[:-1, 1::2] = 127  # mixed-sign columns
    return w, x


class TestExactnessBoundaries:
    """Worst-case operands on each side of each float exactness switch."""

    @pytest.mark.parametrize("k", [1024, 1025])
    def test_byte_kernel_float32_switch(self, k):
        w, x = extreme_operands(3, k, 2, -128, 127)
        want = scalar_reference_gemm(w, x)
        assert (int(np.abs(want).max()) > 1 << 24) == (k > 1024)  # past float32's exact integers
        np.testing.assert_array_equal(gemm_i8(w, x, CostCounter()), want)

    @pytest.mark.parametrize("k", [8191, 8192, 8193])
    def test_packed_kernel_chunk_boundary(self, k):
        w, x = extreme_operands(4, k, 2, -8, 7)
        np.testing.assert_array_equal(
            gemm_i4_packed(pack_int4(w), x, CostCounter()), scalar_reference_gemm(w, x)
        )

    def test_packed_kernel_odd_rows_across_chunks(self):
        rng = substream(3, "i4-odd-chunks")
        w = rng.choice(np.array([-8, 7], dtype=np.int8), size=(5, 8193))
        x = rng.choice(np.array([-128, 127], dtype=np.int8), size=(8193, 3))
        got = gemm_i4_packed(pack_int4(w), x, CostCounter())
        assert got.shape == (5, 3)
        np.testing.assert_array_equal(got, scalar_reference_gemm(w, x))


class TestDepthLimit:
    def test_byte_kernel_exact_at_limit(self):
        k = accumulation_depth_limit(8, 8)
        w = np.full((1, k), -128, dtype=np.int8)
        x = np.full((k, 1), -128, dtype=np.int8)
        assert int(gemm_i8(w, x, CostCounter())[0, 0]) == k * 128 * 128

    def test_packed_kernel_exact_at_limit(self):
        k = accumulation_depth_limit(4, 8)
        w = np.full((2, k), -8, dtype=np.int8)
        x = np.full((k, 1), -128, dtype=np.int8)
        got = gemm_i4_packed(pack_int4(w), x, CostCounter())
        assert got[:, 0].tolist() == [k * 8 * 128] * 2

    def test_packed_kernel_limit_plus_one_raises(self):
        k = accumulation_depth_limit(4, 8) + 1
        wp = pack_int4(np.zeros((2, k), dtype=np.int8))
        with pytest.raises(ValueError, match="accumulation bound"):
            gemm_i4_packed(wp, np.zeros((k, 1), dtype=np.int8), CostCounter())


def mixed_operands(rng, m, k, bits):
    """4-bit weights [m, k] and token codes [k, N]: full int8 range for 8-bit tokens, [-8, 7] for 4-bit ones."""
    bits = np.asarray(bits)
    w = rng.integers(-8, 8, size=(m, k)).astype(np.int8)
    x = rng.integers(-8, 8, size=(k, bits.size)).astype(np.int8)
    x[:, bits == 8] = rng.integers(-128, 128, size=(k, int((bits == 8).sum())))
    return w, x


def assert_token_sums(w, x, bits):
    """gemm_mixed gives each token's int32 sums of the scalar oracle, in token order; returns its cost."""
    cost = CostCounter()
    out = gemm_mixed(pack_int4(w), x, bits, cost)
    assert out.dtype == np.int32 and out.shape == (w.shape[0], x.shape[1])
    for t in range(x.shape[1]):
        np.testing.assert_array_equal(out[:, t], scalar_reference_gemm(w, x[:, t : t + 1])[:, 0])
    return cost


class TestGemmMixed:
    def test_lo_empty_is_the_byte_kernel(self):
        rng = substream(3, "mix-lo0")
        bits = np.full(4, 8)
        w, x = mixed_operands(rng, 6, 5, bits)
        cost = assert_token_sums(w, x, bits)
        byte = CostCounter()
        gemm_i8(w, x, byte)
        assert cost == byte

    def test_hi_empty_is_the_packed_kernel(self):
        rng = substream(3, "mix-hi0")
        bits = np.full(5, 4)
        w, x = mixed_operands(rng, 4, 3, bits)
        cost = assert_token_sums(w, x, bits)
        packed = CostCounter()
        gemm_i4_packed(pack_int4(w), x, packed)
        assert cost == packed

    def test_odd_rows_drop_the_pad_row(self):
        rng = substream(3, "mix-odd")
        bits = np.array([8, 4, 4, 8, 4])
        for m in (1, 3, 7):
            assert_token_sums(*mixed_operands(rng, m, 6, bits), bits)

    def test_columns_stay_in_token_order(self):
        rng = substream(3, "mix-order")
        for _ in range(20):
            m, k, n = (int(v) for v in rng.integers(1, 12, size=3))
            bits = rng.permutation(np.repeat([8, 4], [n // 2, n - n // 2]))
            assert_token_sums(*mixed_operands(rng, m, k, bits), bits)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 9),
        k=st.integers(1, 9),
        bits=st.lists(st.sampled_from([4, 8]), min_size=1, max_size=9),
        seed=st.integers(0, 2**16),
    )
    def test_token_sums_match_the_oracle(self, m, k, bits, seed):
        bits = np.array(bits)
        w, x = mixed_operands(substream(seed, "mix-prop"), m, k, bits)
        cost = assert_token_sums(w, x, bits)
        # the cost is each group's kernel on that group alone
        want = CostCounter()
        gemm_i8(w, x[:, bits == 8], want)
        if (bits == 4).any():
            gemm_i4_packed(pack_int4(w), x[:, bits == 4], want)
        assert cost == want

    @pytest.mark.parametrize("bits", [8, 4])
    @pytest.mark.parametrize("m,k,n", [(1, 1, 1), (6, 5, 4), (7, 9, 11), (16, 32, 33)])
    def test_uniform_plan_is_one_call_with_the_split_path_counts(self, m, k, n, bits):
        rng = substream(3, f"mix-uniform-{m}-{k}-{n}-{bits}")
        plan = np.full(n, bits)
        w, x = mixed_operands(rng, m, k, plan)
        cost = assert_token_sums(w, x, plan)
        # the counts of splitting the tokens in two groups of the same kernel
        split = CostCounter()
        kernel = gemm_i8 if bits == 8 else gemm_i4_packed
        first = w if bits == 8 else pack_int4(w)
        for cols in (slice(0, n // 2), slice(n // 2, n)):
            kernel(first, x[:, cols], split)
        assert cost == split
        if bits == 4:
            x[0, 0] = 8  # the range check holds on the one-call path too
            with pytest.raises(ValueError, match="outside"):
                gemm_mixed(pack_int4(w), x, plan, CostCounter())

    def test_mixed_cost_between_uniform_paths(self):
        m, k, n = 8, 6, 10
        rng = substream(3, "mix-cost")
        w = rng.integers(-8, 8, size=(m, k)).astype(np.int8)
        wp = pack_int4(w)
        x8 = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
        x4 = rng.integers(-8, 8, size=(k, n)).astype(np.int8)
        c_mixed = CostCounter()
        x = np.concatenate([x8[:, : n // 2], x4[:, n // 2 :]], axis=1)
        gemm_mixed(wp, x, np.repeat([8, 4], [n // 2, n - n // 2]), c_mixed)
        c4, c8 = CostCounter(), CostCounter()
        gemm_i4_packed(wp, x4, c4)
        gemm_i8(w, x8, c8)
        assert c4.mul_count < c_mixed.mul_count < c8.mul_count

    def test_group_width_mismatch(self):
        wp = pack_int4(np.zeros((2, 3), dtype=np.int8))
        bad = np.zeros((4, 2), dtype=np.int8)
        with pytest.raises(ValueError, match="do not match K"):
            gemm_mixed(wp, bad, np.full(2, 8), CostCounter())

    def test_lo_group_range_checked(self):
        wp = pack_int4(np.zeros((2, 3), dtype=np.int8))
        x_lo = np.full((3, 2), 9, dtype=np.int8)
        with pytest.raises(ValueError, match="outside"):
            gemm_mixed(wp, x_lo, np.full(2, 4), CostCounter())

    def test_bits_must_be_four_or_eight(self):
        wp = pack_int4(np.zeros((2, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="4 or 8"):
            gemm_mixed(wp, np.zeros((3, 2), dtype=np.int8), np.array([8, 6]), CostCounter())


class TestReadOnlyOperands:
    def test_no_kernel_writes_into_its_operands(self):
        rng = substream(3, "ro-operands")
        w, x = random_case(rng, max_dim=24)
        x4 = np.clip(x, -8, 7)
        wp = pack_int4(w)
        bits = np.where(rng.uniform(size=x.shape[1]) < 0.5, 8, 4)
        x_mixed = np.where(bits == 8, x, x4).astype(np.int8)
        operands = (w, x, x4, x_mixed, bits, wp.packed, wp.codes, wp.lanes)
        before = [a.copy() for a in operands]
        for a in operands:
            a.flags.writeable = False
        ref = scalar_reference_gemm(w, x)
        np.testing.assert_array_equal(gemm_i8(w, x, CostCounter()), ref)
        np.testing.assert_array_equal(gemm_i4_packed(wp, x4, CostCounter()), scalar_reference_gemm(w, x4))
        np.testing.assert_array_equal(gemm_mixed(wp, x_mixed, bits, CostCounter()), scalar_reference_gemm(w, x_mixed))
        np.testing.assert_array_equal(unpack_int4(wp), w)
        for a, b in zip(operands, before):
            np.testing.assert_array_equal(a, b)


class TestScalarOracle:
    def test_identity_copy(self):
        x = substream(3, "so-id").integers(-128, 128, size=(4, 6)).astype(np.int8)
        np.testing.assert_array_equal(
            scalar_reference_gemm(np.eye(4, dtype=np.int8), x), x.astype(np.int32)
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dims"):
            scalar_reference_gemm(np.zeros((2, 3), dtype=np.int8), np.zeros((4, 2), dtype=np.int8))
