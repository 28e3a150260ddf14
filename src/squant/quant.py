"""Symmetric quantization with straight-through gradients.

Signed integer range [-2^(b-1), 2^(b-1)-1], b in {4, 8}, rounding half away
from zero. 4-bit values live sign-extended in int8 containers here; dense
packing belongs to the kernels module.

Every quantizer is a per-row ``(scale, qmin, qmax)``: scalars for a weight's
``QuantSpec``, [N, 1] columns for an activation site's
``token_bits.GroupQuant``, where row t takes its token's group scale and
planned range. ``round_clip`` rounds once: round(x / scale) in one float64
buffer gives the int8 codes (clipped) and the straight-through mask (the
in-range test before the clip). ``fake_quant`` is the one straight-through
node for both kinds; with ``surrogate=True`` it clips instead of rounding,
for finite-difference checks of the backward. The mask is built only for an
input a backward pass can reach. ``linear`` is a whole projection,
x @ fake_quant(w) + b, as one node; without a quantizer it is the float
projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradtape as gt
from .schema import is_number

__all__ = [
    "EmaState",
    "QuantSpec",
    "QuantizedTensor",
    "calibrate_scale",
    "check_momentum",
    "dequantize",
    "fake_quant",
    "linear",
    "quantize",
    "round_clip",
    "round_half_away",
]


def round_half_away(t: np.ndarray) -> np.ndarray:
    """Round to nearest, ties away from zero (np.round ties to even)."""
    t = np.asarray(t)
    r = np.abs(t, out=np.empty(t.shape, np.result_type(t, 0.5)))
    return _round_magnitude(r, t)


def _round_magnitude(r: np.ndarray, sign) -> np.ndarray:
    """Round the magnitudes in ``r`` half up, in place, and give them the signs of ``sign``."""
    r += 0.5
    np.floor(r, out=r)
    return np.copysign(r, sign, out=r)


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


def check_momentum(momentum) -> float:
    if not is_number(momentum, "(0, 1)"):
        raise ValueError(f"momentum must be in (0,1), got {momentum!r}")
    return momentum


class EmaState:
    """Running max-abs for activation calibration; single writer per tensor."""

    def __init__(self, momentum: float = 0.95):
        self.momentum = check_momentum(momentum)
        self.running_max = 0.0
        self.initialized = False

    def update(self, observed_max: float) -> float:
        observed_max = float(observed_max)
        if observed_max < 0:
            raise ValueError("max-abs observation cannot be negative")
        if not self.initialized:
            self.running_max = observed_max
            self.initialized = True
        else:
            self.running_max = self.momentum * self.running_max + (1.0 - self.momentum) * observed_max
        return self.running_max

    def state_dict(self) -> dict:
        return {
            "momentum": self.momentum,
            "running_max": self.running_max,
            "initialized": self.initialized,
        }

    @classmethod
    def from_state_dict(cls, d) -> "EmaState":
        """Inverse of ``state_dict``; ValueError on a malformed state."""
        if not (
            isinstance(d, dict) and is_number(d.get("running_max"), "[0, inf)") and isinstance(d.get("initialized"), bool)
        ):
            raise ValueError(f"EMA state needs a finite running_max >= 0 and a boolean initialized, got {d!r}")
        out = cls(momentum=d.get("momentum"))
        out.running_max = float(d["running_max"])
        out.initialized = d["initialized"]
        return out


def calibrate_scale(x: np.ndarray, bits: int, ema: EmaState | None = None) -> float:
    """The max-abs scale of x at ``bits`` (the rule is ``_max_abs_scale``).

    With an EmaState the observation updates the running max first and the
    scale derives from the updated running value (training-time activations).
    """
    if bits not in (4, 8):
        raise ValueError(f"bits must be 4 or 8, got {bits}")
    x = np.asarray(x)
    m = float(max(abs(x.max()), abs(x.min()))) if x.size else 0.0  # max |x|, without an |x| array
    if ema is not None:
        m = ema.update(m)
    return _max_abs_scale(m, bits)


def _max_abs_scale(m: float, bits: int) -> float:
    """The max-abs rule: m / (2^(b-1)-1), or 1 when m is zero; a NaN or Inf m stays non-finite."""
    return 1.0 if m == 0.0 else m / float((1 << (bits - 1)) - 1)


def _ste_mask(rounded: np.ndarray, qmin, qmax) -> np.ndarray:
    """True where the unclipped rounded value is already in [qmin, qmax]."""
    return (rounded >= qmin) & (rounded <= qmax)


def round_clip(x: np.ndarray, q, with_mask: bool = False):
    """The one rounding of quantizer ``q``: (int8 codes, straight-through mask or None).

    ``q`` is a ``QuantSpec`` or a ``GroupQuant``: its ``scale``, ``qmin`` and
    ``qmax`` are scalars or [N, 1] columns, one entry per row of x. The codes
    are round_half_away(x / scale) clipped to [qmin, qmax]. With
    ``with_mask`` the mask is True where the rounded value was in range
    before the clip.
    """
    r = np.true_divide(x, q.scale, out=np.empty(x.shape), dtype=np.float64)
    np.abs(r, out=r)
    _round_magnitude(r, x)  # round_half_away(x / scale) in one buffer: x / scale has the sign of x
    mask = _ste_mask(r, q.qmin, q.qmax) if with_mask else None
    np.clip(r, q.qmin, q.qmax, out=r)
    return r.astype(np.int8), mask


def quantize(x: np.ndarray, spec: QuantSpec) -> QuantizedTensor:
    codes, _ = round_clip(np.asarray(x), spec)
    return QuantizedTensor(codes, spec.scale, spec.bits)


def dequantize(q: QuantizedTensor, dtype=np.float32) -> np.ndarray:
    return q.ints.astype(dtype) * np.dtype(dtype).type(q.scale)


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
    return codes.astype(dtype) * np.asarray(q.scale, dtype=dtype), mask  # dequantize, row by row


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
