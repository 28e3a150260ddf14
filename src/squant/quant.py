"""Layer-wise symmetric quantization with straight-through gradients.

One positive scale per tensor, signed integer range [-2^(b-1), 2^(b-1)-1],
b in {4, 8}. Rounding is half away from zero. 4-bit values live sign-extended
in int8 containers here; dense packing belongs to the kernels module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradtape as gt

__all__ = [
    "EmaState",
    "QuantSpec",
    "QuantizedTensor",
    "calibrate_scale",
    "clip_surrogate",
    "dequantize",
    "fake_quant",
    "quantize",
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
    """Bit width, scale, and target kind for one tensor."""

    bits: int
    scale: float
    target: str = "weight"

    def __post_init__(self):
        if self.bits not in (4, 8):
            raise ValueError(f"bits must be 4 or 8, got {self.bits}")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be a positive finite float, got {self.scale}")
        if self.target not in ("weight", "activation"):
            raise ValueError(f"target must be 'weight' or 'activation', got {self.target!r}")

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


class EmaState:
    """Running max-abs for activation calibration; single writer per tensor."""

    def __init__(self, momentum: float = 0.95):
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0,1), got {momentum}")
        self.momentum = momentum
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
    def from_state_dict(cls, d: dict) -> "EmaState":
        out = cls(momentum=d["momentum"])
        out.running_max = float(d["running_max"])
        out.initialized = bool(d["initialized"])
        return out


def calibrate_scale(x: np.ndarray, bits: int, ema: EmaState | None = None) -> float:
    """Max-abs scale: m / (2^(b-1)-1), falling back to 1 when m is zero.

    With an EmaState the observation updates the running max first and the
    scale derives from the updated running value (training-time activations).
    """
    if bits not in (4, 8):
        raise ValueError(f"bits must be 4 or 8, got {bits}")
    x = np.asarray(x)
    m = float(max(abs(x.max()), abs(x.min()))) if x.size else 0.0  # max |x|, without an |x| array
    if ema is not None:
        m = ema.update(m)
    if m == 0.0:
        return 1.0
    return m / float((1 << (bits - 1)) - 1)


def quantize(x: np.ndarray, spec: QuantSpec) -> QuantizedTensor:
    x = np.asarray(x)
    ints = np.true_divide(x, spec.scale, out=np.empty(x.shape), dtype=np.float64)
    np.abs(ints, out=ints)
    _round_magnitude(ints, x)  # round_half_away(x / scale) in one buffer: x / scale has the sign of x
    np.clip(ints, spec.qmin, spec.qmax, out=ints)
    return QuantizedTensor(ints.astype(np.int8), spec.scale, spec.bits)


def dequantize(q: QuantizedTensor, dtype=np.float32) -> np.ndarray:
    return q.ints.astype(dtype) * np.dtype(dtype).type(q.scale)


def _ste_mask(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    # pass-through exactly where the pre-clip integer is already in range
    ri = round_half_away(np.asarray(x, dtype=np.float64) / spec.scale)
    return ((ri >= spec.qmin) & (ri <= spec.qmax)).astype(x.dtype)


def fake_quant(x: gt.Tensor, spec: QuantSpec) -> gt.Tensor:
    """Quantize-dequantize on the forward; straight-through on the backward.

    The gradient mask is the in-range indicator of round(x/scale) before
    clipping, so values that saturate pass no gradient.
    """
    mask = _ste_mask(x.array, spec)
    y = dequantize(quantize(x.array, spec), dtype=x.tape.dtype)
    return x.tape.record(y, (x,), lambda g: (g * mask,), name=f"fake_quant{spec.bits}")


def clip_surrogate(x: gt.Tensor, spec: QuantSpec) -> gt.Tensor:
    """Clip to the representable interval without rounding.

    Drop-in stand-in for fake_quant when a differentiable-almost-everywhere
    forward is needed, e.g. finite-difference checks of the STE backward.
    """
    y, mask = _clip(x.array, spec)
    return x.tape.record(y, (x,), lambda g: (g * mask,), name=f"clip{spec.bits}")


def _clip(x: np.ndarray, spec: QuantSpec) -> tuple[np.ndarray, np.ndarray]:
    """Clip-only forward values and their in-range mask, in the dtype of x."""
    lo = spec.qmin * spec.scale
    hi = spec.qmax * spec.scale
    y = np.clip(x, x.dtype.type(lo), x.dtype.type(hi))
    mask = ((x >= lo) & (x <= hi)).astype(x.dtype)
    return y, mask
