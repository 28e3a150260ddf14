"""Integer GeMM kernels with an instruction cost model.

Three multiply paths over int8 operands, each bit-exact to the int32 sum:

- ``gemm_i8``: plain byte-level kernel, one multiply per MAC.
- ``gemm_i4_packed``: weights from adjacent rows are packed into one 32-bit
  unit (high row at bit offset 16), so one multiply against a shared
  activation serves two output rows. The product splits exactly because the
  low-lane partial product is bounded by 8*128 = 1024 < 2^15.
- ``gemm_mixed``: per-token dispatch in token order: a site's 8-bit token
  columns go through the byte kernel and its 4-bit columns through the
  packed kernel, and the int32 sums come back in the order the tokens came
  in.

Every kernel returns int32 sums and takes no scale: the caller dequantizes
each token's column by alpha_w * alpha_token, in one place
(``model._linear_int``).

Both kernels run as float BLAS products of the integer codes. That is exact
for the reason behind the Ozaki scheme (Ozaki, Ogita, Oishi & Rump, Numer.
Algorithms 2012): every product and every partial sum, in whatever order BLAS
adds them, is an integer below the float format's 2^p, so nothing rounds.

- The byte kernel's sums are bounded by K * 128 * 128, which is at most 2^24
  for K <= 1024; it runs float32 there and float64 above. The choice depends
  on K and the int8 range only, never on the data.
- The packed kernel keeps one multiply per row pair. It reads each unit's
  lanes re-spaced to ``hi * 2^24 + lo`` in float64 and runs one product per
  K-chunk of at most 8191 rows, so the low-lane sum stays below
  8191 * 1024 < 2^23 and the whole sum below 2^53. Each chunk's sums split
  like one product does: ``lo`` sign-extends the low 24 bits and
  ``hi = (S - lo) >> 24``.

``pack_int4`` builds, next to the int32 units, the two forms these products
read: the float64 lanes for the packed kernel and the int8 codes (pad row
dropped) that ``gemm_mixed`` hands the byte kernel. A weight matrix packed
once is multiplied any number of times with no per-call unpacking or lane
split; ``unpack_int4`` still derives the codes from the units, as the inverse
the tests hold those stored forms to.

Cost convention: one accumulate-add per partial product. The packed split
additionally charges one subtract per unit product, giving
add_count = 3 * ceil(M/2) * K * N versus M * K * N for the byte kernel.
Shifts and masks are not counted. The counts model the target SIMD
instruction, not the numpy calls that compute the same result.

Packing stores ``unit = hi * 2^16 + lo`` arithmetically rather than OR-ing
masked lanes: with a negative low lane the OR form leaves a +1 borrow in the
high half, which would corrupt ``hi = (p - low) >> 16`` by one activation per
unit. The arithmetic form keeps the split branch-free and exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostCounter",
    "PackedInt4Matrix",
    "accumulation_depth_limit",
    "gemm_i4_packed",
    "gemm_i8",
    "gemm_mixed",
    "pack_int4",
    "scalar_reference_gemm",
    "unpack_int4",
]


@dataclass
class CostCounter:
    """Multiply/add tallies for one kernel call (or one dispatch of calls)."""

    mul_count: int = 0
    add_count: int = 0

    def reset(self) -> None:
        self.mul_count = 0
        self.add_count = 0


@dataclass
class PackedInt4Matrix:
    """Row-pair packed 4-bit weights, one int32 unit per (pair, column).

    ``codes`` and ``lanes`` are what the kernels multiply; ``pack_int4``
    builds them from the same rows as ``packed``.
    """

    logical_rows: int
    cols: int
    packed: np.ndarray  # int32 [ceil(rows/2), cols]
    pad_row: bool
    codes: np.ndarray  # int8 [rows, cols], the byte kernel's operand
    lanes: np.ndarray  # float64 [ceil(rows/2), cols], each unit as hi * 2^24 + lo

    @property
    def pair_rows(self) -> int:
        return self.packed.shape[0]


# K up to which K * 128 * 128 <= 2^24, the largest integer span float32 holds exactly
_F32_EXACT_DEPTH = (1 << 24) // (128 * 128)
# packed-kernel K-chunk: 8191 * 1024 < 2^23 keeps the low lane inside 24 bits
_PACKED_CHUNK = 8191


def accumulation_depth_limit(weight_bits: int, act_bits: int) -> int:
    """Largest K for which int32 accumulation cannot overflow."""
    per_product = (1 << (weight_bits - 1)) * (1 << (act_bits - 1))
    return ((1 << 31) - 1) // per_product


def _check_int8(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
    if x.dtype != np.int8:
        raise ValueError(f"{name} must be int8, got {x.dtype}")
    return x


def _check_depth(k: int, weight_bits: int) -> None:
    limit = accumulation_depth_limit(weight_bits, 8)
    if k > limit:
        raise ValueError(f"K={k} exceeds the int32 accumulation bound {limit}")


def pack_int4(w: np.ndarray) -> PackedInt4Matrix:
    """Pack an int8 matrix with 4-bit values; odd row counts get a zero pad row."""
    w = _check_int8(w, "w")
    if w.size and (w.min() < -8 or w.max() > 7):
        i, j = np.argwhere((w < -8) | (w > 7))[0]
        raise ValueError(f"value {int(w[i, j])} at ({int(i)}, {int(j)}) outside [-8, 7]")
    m, k = w.shape
    codes = w.copy(order="K")  # a transposed view stays a plain copy, not a strided gather
    pad = m % 2 == 1
    if pad:
        w = np.vstack([w, np.zeros((1, k), dtype=np.int8)])
    lo = w[0::2].astype(np.int32)
    hi = w[1::2].astype(np.int32)
    lanes = hi * float(1 << 24)  # float64; hi * 2^24 + lo is exact below 2^28
    lanes += lo
    packed = hi * 65536
    packed += lo
    return PackedInt4Matrix(m, k, packed, pad, codes, lanes)


def _split_lanes(v: np.ndarray, bits: int):
    """(lo, hi) with v = hi * 2^bits + lo and lo sign-extended from the low bits."""
    half = 1 << (bits - 1)
    lo = ((v & ((1 << bits) - 1)) ^ half) - half
    return lo, (v - lo) >> bits


def _exact_product(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """BLAS ``a @ b`` in ``dtype`` on integer-valued operands.

    Exact whenever every partial sum is an integer that ``dtype`` holds; the
    callers pick ``dtype`` and the depth from the operand ranges to make it so.
    """
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def unpack_int4(wp: PackedInt4Matrix) -> np.ndarray:
    """Exact inverse of pack_int4, pad row dropped."""
    lo, hi = _split_lanes(wp.packed, 16)
    out = np.empty((2 * wp.pair_rows, wp.cols), dtype=np.int8)
    out[0::2] = lo
    out[1::2] = hi
    return out[: wp.logical_rows]


def gemm_i8(w: np.ndarray, x: np.ndarray, cost: CostCounter) -> np.ndarray:
    """Byte-level kernel: int32 out = int8 w [M,K] @ int8 x [K,N]."""
    w = _check_int8(w, "w")
    x = _check_int8(x, "x")
    m, k = w.shape
    if x.shape[0] != k:
        raise ValueError(f"inner dims differ: {w.shape} x {x.shape}")
    _check_depth(k, 8)
    n = x.shape[1]
    dtype = np.float32 if k <= _F32_EXACT_DEPTH else np.float64
    out = _exact_product(w, x, dtype).astype(np.int32)
    cost.mul_count += m * k * n
    cost.add_count += m * k * n
    return out


def gemm_i4_packed(wp: PackedInt4Matrix, x: np.ndarray, cost: CostCounter) -> np.ndarray:
    """Packed kernel: one multiply per row pair, exact split of the product.

    Each unit u = w_hi * 2^16 + w_lo is read re-spaced as its lanes,
    u24 = w_hi * 2^24 + w_lo, and one float64 product per K-chunk gives
    S = sum(u24 * a) for both rows at once. The split lo = sign_extend_24(S)
    (= sum w_lo * a) and hi = (S - lo) >> 24 (= sum w_hi * a) is exact under
    the chunk bound.
    """
    x = _check_int8(x, "x")
    k, n = x.shape
    if wp.cols != k:
        raise ValueError(f"inner dims differ: packed {wp.logical_rows}x{wp.cols} x {x.shape}")
    _check_depth(k, 4)
    m = wp.logical_rows
    low = high = 0  # int64 sums over the K-chunks
    for start in range(0, k, _PACKED_CHUNK):
        chunk = slice(start, start + _PACKED_CHUNK)
        sums = _exact_product(wp.lanes[:, chunk], x[chunk], np.float64).astype(np.int64)
        lo_sum, hi_sum = _split_lanes(sums, 24)
        low, high = low + lo_sum, high + hi_sum
    out = np.empty((2 * wp.pair_rows, n), dtype=np.int32)
    out[0::2] = low
    out[1::2] = high
    cost.mul_count += wp.pair_rows * k * n
    cost.add_count += 3 * wp.pair_rows * k * n
    return out[:m]


def gemm_mixed(wp: PackedInt4Matrix, x: np.ndarray, bits: np.ndarray, cost: CostCounter) -> np.ndarray:
    """Two-kernel dispatch over one site's tokens, in token order.

    ``x`` [K, N] holds the int8 codes of N tokens and ``bits`` [N] each
    token's activation bits. 8-bit token columns take the byte kernel on the
    matrix's int8 codes, 4-bit columns the packed kernel (values must fit 4
    bits). Returns the int32 [M, N] sums in token order; dequantizing them is
    the caller's step.
    """
    x = _check_int8(x, "x")
    bits = np.asarray(bits)
    if x.shape[0] != wp.cols or bits.shape != (x.shape[1],):
        raise ValueError(f"codes {x.shape} and bits {bits.shape} do not match K={wp.cols} and one bit width per token")
    hi, lo = np.flatnonzero(bits == 8), np.flatnonzero(bits == 4)
    if hi.size + lo.size != bits.size:
        raise ValueError("token bits must be 4 or 8")
    # token-major: each group is a gather of token rows and a scatter of output rows
    tokens = x.T
    x_lo = tokens[lo].T
    if x_lo.size and (x_lo.min() < -8 or x_lo.max() > 7):
        raise ValueError("4-bit tokens hold values outside [-8, 7]")
    out = np.empty((x.shape[1], wp.logical_rows), dtype=np.int32)
    if hi.size:
        out[hi] = gemm_i8(wp.codes, tokens[hi].T, cost).T
    if lo.size:
        out[lo] = gemm_i4_packed(wp, x_lo, cost).T
    return out.T


def scalar_reference_gemm(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Triple-loop oracle in plain Python integers; kept deliberately naive."""
    w = _check_int8(w, "w")
    x = _check_int8(x, "x")
    m, k = w.shape
    if x.shape[0] != k:
        raise ValueError(f"inner dims differ: {w.shape} x {x.shape}")
    n = x.shape[1]
    wl = w.tolist()
    xcols = x.T.tolist()
    out = np.empty((m, n), dtype=np.int32)
    for i in range(m):
        row = wl[i]
        for j in range(n):
            col = xcols[j]
            acc = 0
            for a, b in zip(row, col):
                acc += a * b
            out[i, j] = acc
    return out
