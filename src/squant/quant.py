"""Symmetric quantization with straight-through gradients.

Signed integer range [-2^(b-1), 2^(b-1)-1], b in {4, 8}, rounding half away
from zero. 4-bit values live sign-extended in int8 containers here; dense
packing belongs to the kernels module.

``QuantSpec`` is the one quantizer type: a per-row ``(bits, scale)`` with
its range ``(qmin, qmax)`` derived from ``bits`` and both checked when it is
built. A weight's spec holds scalars; an activation site's
(``token_bits.group_quantize``) holds [N, 1] columns, where row t takes its
token's planned width and its group's scale. ``round_clip`` rounds once, in
one float64 buffer r = x / scale that every pass writes in place, in this
order:

- With the straight-through mask, the in-range test first, on r itself:
  the rounded value lies in [qmin, qmax] exactly where
  qmin - 0.5 < r < qmax + 0.5.
- The clip to [qmin, qmax], with ``np.minimum``/``np.maximum``. Clipping
  before rounding is exact: rounding is monotone and leaves integers fixed,
  so it commutes with a clip to integer bounds.
- The rounding, floor(|r| + 0.5) with r's sign, on the clipped magnitudes:
  they are at most 128, so the truncating cast to uint8 floors them, and the
  sign goes back in int8. No pass makes a float64 temporary.

``quantize`` returns those int8 codes. ``fake_quant`` is the one
straight-through node for both kinds of spec; with ``surrogate=True`` it
clips instead of rounding, a path only the tests' finite-difference checks
take. The mask is built only for an input a backward pass can reach.
``linear`` is a whole projection, x @ fake_quant(w) + b, as one node;
without a quantizer it is the float projection. ``max_abs_scale`` is the
max-abs scale rule: ``calibrate_scale`` applies it to a tensor's own
max-abs, ``model.group_scale`` to an activation group's or to its running
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gradtape as gt

__all__ = [
    "QuantSpec",
    "calibrate_scale",
    "fake_quant",
    "linear",
    "max_abs",
    "max_abs_scale",
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


@dataclass(frozen=True, eq=False)  # a per-row spec holds arrays: no == and no hash
class QuantSpec:
    """One quantizer: each row's width ``bits`` (4 or 8) and ``scale`` (positive, finite).

    Scalars for a weight; [N, 1] columns for an activation site. ``qmin`` and
    ``qmax``, the b-bit range, are derived from ``bits`` once, here.
    """

    bits: int | np.ndarray
    scale: float | np.ndarray
    qmin: float | np.ndarray = field(init=False, repr=False)
    qmax: float | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        qmax = _qmax(self.bits)
        if not _all((self.scale > 0) & (self.scale < np.inf)):  # False for a NaN scale too
            raise ValueError(f"scale must be a positive finite float, got {self.scale}")
        object.__setattr__(self, "qmax", qmax)  # frozen: the range stays the one derived from bits
        object.__setattr__(self, "qmin", -qmax - 1.0)


def _all(ok) -> bool:
    """``ok.all()`` for an array, ``ok`` itself for a scalar (without numpy's per-call cost)."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def _qmax(bits):
    """The top code 2^(b-1) - 1 of b-bit signed codes, as a float, elementwise; ValueError unless each b is 4 or 8."""
    if not _all((bits == 4) | (bits == 8)):
        raise ValueError(f"bits must be 4 or 8, got {bits}")
    return (1 << (bits - 1)) - 1.0


def max_abs(x: np.ndarray) -> float:
    """max |x| without an |x| array; 0 for an empty x."""
    return float(max(abs(x.max()), abs(x.min()))) if x.size else 0.0


def max_abs_scale(m: float, bits: int) -> float:
    """The max-abs rule: m / (2^(b-1)-1), or 1 when m is zero; a NaN or Inf m stays non-finite."""
    qmax = _qmax(bits)
    return 1.0 if m == 0.0 else m / qmax


def calibrate_scale(x: np.ndarray, bits: int) -> float:
    """The max-abs scale of x at ``bits``."""
    return max_abs_scale(max_abs(np.asarray(x)), bits)


def _ste_mask(r: np.ndarray, qmin, qmax) -> np.ndarray:
    """True where r rounds half away from zero into [qmin, qmax]: qmin - 0.5 < r < qmax + 0.5."""
    return (r > np.subtract(qmin, 0.5)) & (r < np.add(qmax, 0.5))


def round_clip(x: np.ndarray, q: QuantSpec, with_mask: bool = False):
    """The one rounding of quantizer ``q``: (int8 codes, straight-through mask or None).

    ``q``'s ``scale``, ``qmin`` and ``qmax`` are scalars or [N, 1] columns,
    one entry per row of x. The codes
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


def quantize(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """The int8 codes of x under ``spec``."""
    return round_clip(np.asarray(x), spec)[0]


def fake_quant(x: gt.Tensor, q: QuantSpec, surrogate: bool = False) -> gt.Tensor:
    """Quantize-dequantize on the forward; straight-through on the backward.

    ``q`` is a weight's spec or an activation site's per-row spec of
    ``x.array``; each row is dequantized at its own scale. The
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
