"""Symmetric quantization with straight-through gradients.

Signed integer range [-2^(b-1), 2^(b-1)-1], b in {4, 8}, rounding half away
from zero. 4-bit values live sign-extended in int8 containers here; dense
packing belongs to the kernels module.

Every quantizer is a per-row ``(scale, qmin, qmax)``: scalars for a weight's
``QuantSpec``, [N, 1] columns for an activation site's
``token_bits.GroupQuant``, where row t takes its token's group scale and
planned range. ``round_clip`` rounds once, in one float64 buffer r = x / scale
that every pass writes in place, in this order:

- With the straight-through mask, the in-range test first, on r itself:
  the rounded value lies in [qmin, qmax] exactly where
  qmin - 0.5 < r < qmax + 0.5.
- The clip to [qmin, qmax], with ``np.minimum``/``np.maximum``. Clipping
  before rounding is exact: rounding is monotone and leaves integers fixed,
  so it commutes with a clip to integer bounds.
- The rounding, floor(|r| + 0.5) with r's sign, on the clipped magnitudes:
  they are at most 128, so the truncating cast to uint8 floors them, and the
  sign goes back in int8. No pass makes a float64 temporary.

``fake_quant`` is the one straight-through node for both kinds; with
``surrogate=True`` it clips instead of rounding, for finite-difference checks
of the backward. The mask is built only for an input a backward pass can
reach. ``linear`` is a whole projection, x @ fake_quant(w) + b, as one node;
without a quantizer it is the float projection. ``calibrate_scale`` is the
max-abs scale rule; ``model.Calibration`` applies the same rule to its
running activation maxima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradtape as gt

__all__ = [
    "QuantSpec",
    "QuantizedTensor",
    "calibrate_scale",
    "fake_quant",
    "linear",
    "quantize",
    "round_clip",
]


def _round_magnitude(r: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """Int8 codes of clipped r rounded half away from zero: floor(|r| + 0.5), negated where ``negative``.

    Works in place on r, whose magnitudes are at most 128. They cast to uint8
    and are read as int8, where 128 reads as -128, the one code it can be;
    (c ^ -1) + 1 = -c then negates the negative entries' codes in place.
    """
    np.abs(r, out=r)
    r += 0.5
    codes = r.astype(np.uint8).view(np.int8)
    flip = -negative.view(np.int8)  # -1 where negative, else 0
    codes ^= flip
    codes -= flip
    return codes


@dataclass(frozen=True)
class QuantSpec:
    """Bit width and scale of one tensor-wide quantizer."""

    bits: int
    scale: float

    def __post_init__(self):
        if self.bits not in (4, 8):
            raise ValueError(f"bits must be 4 or 8, got {self.bits}")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be a positive finite float, got {self.scale}")

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1


@dataclass
class QuantizedTensor:
    """Sign-extended int8 values plus the scale that dequantizes them."""

    ints: np.ndarray
    scale: float
    bits: int

    def __post_init__(self):
        self.ints = np.asarray(self.ints, dtype=np.int8)
        lo, hi = -(1 << (self.bits - 1)), (1 << (self.bits - 1)) - 1
        if self.ints.size and (self.ints.min() < lo or self.ints.max() > hi):
            raise ValueError(f"int values outside [{lo}, {hi}] for bits={self.bits}")


def calibrate_scale(x: np.ndarray, bits: int) -> float:
    """The max-abs scale of x at ``bits`` (the rule is ``_max_abs_scale``)."""
    if bits not in (4, 8):
        raise ValueError(f"bits must be 4 or 8, got {bits}")
    return _max_abs_scale(_max_abs(np.asarray(x)), bits)


def _max_abs(x: np.ndarray) -> float:
    """max |x| without an |x| array; 0 for an empty x."""
    return float(max(abs(x.max()), abs(x.min()))) if x.size else 0.0


def _max_abs_scale(m: float, bits: int) -> float:
    """The max-abs rule: m / (2^(b-1)-1), or 1 when m is zero; a NaN or Inf m stays non-finite."""
    return 1.0 if m == 0.0 else m / float((1 << (bits - 1)) - 1)


def _ste_mask(r: np.ndarray, qmin, qmax) -> np.ndarray:
    """True where r rounds half away from zero into [qmin, qmax]: qmin - 0.5 < r < qmax + 0.5."""
    return (r > np.subtract(qmin, 0.5)) & (r < np.add(qmax, 0.5))


def round_clip(x: np.ndarray, q, with_mask: bool = False):
    """The one rounding of quantizer ``q``: (int8 codes, straight-through mask or None).

    ``q`` is a ``QuantSpec`` or a ``GroupQuant``: its ``scale``, ``qmin`` and
    ``qmax`` are scalars or [N, 1] columns, one entry per row of x. The codes
    are x / scale rounded half away from zero, clipped to [qmin, qmax]. With
    ``with_mask`` the mask is True where the rounded value was in range
    before the clip.
    """
    r = np.array(x, dtype=np.float64)  # a copy: the passes below write in place
    r /= q.scale
    mask = _ste_mask(r, q.qmin, q.qmax) if with_mask else None
    np.minimum(r, q.qmax, out=r)
    np.maximum(r, q.qmin, out=r)
    return _round_magnitude(r, r < 0), mask


def quantize(x: np.ndarray, spec: QuantSpec) -> QuantizedTensor:
    codes, _ = round_clip(np.asarray(x), spec)
    return QuantizedTensor(codes, spec.scale, spec.bits)


def fake_quant(x: gt.Tensor, q, surrogate: bool = False) -> gt.Tensor:
    """Quantize-dequantize on the forward; straight-through on the backward.

    ``q`` is a weight's ``QuantSpec`` or an activation site's ``GroupQuant``
    built from ``x.array``; each row is dequantized at its own scale. The
    gradient passes where the mask is 1 (the rounded value was in range
    before the clip) and is +0.0 elsewhere. Codes and mask come from one
    rounding, and a constant input, which no backward pass reaches, gets no
    mask. With ``surrogate`` the forward clips each row to
    [qmin * scale, qmax * scale] without rounding and the mask is that
    interval's in-range test.
    """
    y, mask = _fake_quant_values(x, q, surrogate)
    # + 0.0 turns g * 0 for negative g into +0.0
    return x.tape.record(y, (x,), lambda g: (g * mask + 0.0,), name="fake_quant")


def _fake_quant_values(x: gt.Tensor, q, surrogate: bool):
    """Forward values and mask of ``fake_quant(x, q, surrogate)``; no mask for a rounded constant."""
    if surrogate:
        return _clip(x.array, q.qmin * q.scale, q.qmax * q.scale)
    dtype = x.tape.dtype
    codes, mask = round_clip(x.array, q, with_mask=not x.constant)
    y = codes.astype(dtype)
    y *= np.asarray(q.scale, dtype=dtype)  # dequantize, row by row
    return y, mask


def linear(
    x: gt.Tensor, w: gt.Tensor, b: gt.Tensor, q: QuantSpec | None = None, surrogate: bool = False
) -> gt.Tensor:
    """x[T, K] @ fake_quant(w[K, N], q) + b[N] as one node; with ``q=None``, x @ w + b.

    The weight is rounded once, as in ``fake_quant``, and its mask is built
    only when a backward pass can reach w; ``surrogate`` clips instead. The
    backward is dx = g @ wq.T, dw = (x.T @ g) * mask + 0.0 (no mask without
    ``q``) and db = g.sum(axis=0), the arithmetic of a fake_quant node under
    a matmul under a bias add, so one node gives the bits of that chain.
    """
    if x.array.ndim != 2 or w.array.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"linear needs x[T, K], w[K, N] and b[N], got {x.shape}, {w.shape} and {b.shape}")
    wq, mask = (w.array, None) if q is None else _fake_quant_values(w, q, surrogate)
    xa = x.array

    def vjp(g):
        dw = None
        if not w.constant:
            dw = xa.T @ g if mask is None else (xa.T @ g) * mask + 0.0
        return g @ wq.T, dw, g.sum(axis=0)

    return x.tape.record(xa @ wq + b.array, (x, w, b), vjp, name="linear")


def _clip(x: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Clip-only forward values, in the dtype of x, and their in-range mask.

    The bounds, scalars or [N, 1] columns, are cast to x's dtype first, so
    the test and the clip both compare in that dtype.
    """
    lo, hi = np.asarray(lo, dtype=x.dtype), np.asarray(hi, dtype=x.dtype)
    return np.clip(x, lo, hi), (x >= lo) & (x <= hi)
