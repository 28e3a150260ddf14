"""Per-token activation bit planning driven by attention to the initial token.

A token's importance (``token_importance``, of one layer's [H, N, N] map) is
its averaged attention probability toward position 0 across heads. The top
floor(rho * N) tokens by that score are quantized at 8 bits, the rest at 4;
each group gets one layer-wise scale. Layer l > 0 plans from layer l-1's map
within the same forward pass; layer 0 has no map yet and defaults to all-8
(all-4 when rho is 0, so the rho=0 plan degenerates to the uniform 4-bit path
everywhere).

An activation site's quantizer, ``GroupQuant``, stays in token order: row t
takes its group's scale and its planned range as [N, 1] columns, so
``quant.fake_quant`` and ``quant.round_clip`` treat it as they treat a
weight's ``QuantSpec``, and the int8 codes, the dequantized values and the
straight-through mask all come from one float64 round(x / scale), with no
gather or scatter of rows. The integer path hands those codes, with the
per-token bits, to the kernel dispatch in the same order. A plan is its bits
alone: it caches its 8-bit and 4-bit positions (``hi``, ``lo``), and its
8-bit count ``k`` is ``hi.size``. The positions serve the group scales; the
tests also gather each group's rows by them for the grouped reference
(``gather_tokens``/``scatter_tokens`` in ``tests/reference.py``) that they
hold the token-order path to. A group's scale is given by the caller (the
model reads it from its ``Calibration``), else it follows the max-abs rule
of ``quant`` on the group's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quant import QuantSpec, calibrate_scale, round_clip

__all__ = [
    "GroupQuant",
    "TokenBitPlan",
    "assign_bits",
    "group_quantize",
    "plan_for_layer",
    "plan_source",
    "token_importance",
    "uniform_plan",
]


@dataclass
class TokenBitPlan:
    """Bit width per token, 4 or 8; ``k`` counts the 8-bit tokens."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.int64)
        if not ((self.bits == 4) | (self.bits == 8)).all():
            raise ValueError("bit plan entries must be 4 or 8")

    @property
    def k(self) -> int:
        return self.hi.size

    @cached_property
    def hi(self) -> np.ndarray:
        """Positions of the 8-bit tokens, ascending."""
        return np.flatnonzero(self.bits == 8)

    @cached_property
    def lo(self) -> np.ndarray:
        """Positions of the 4-bit tokens, ascending."""
        return np.flatnonzero(self.bits == 4)

    @cached_property
    def _row_range(self) -> tuple[np.ndarray, np.ndarray]:
        """Each token's [qmin, qmax] at its planned bits, as float64 [N, 1] columns."""
        qmax = np.left_shift(1, self.bits - 1)[:, None] - 1.0
        return -qmax - 1.0, qmax


@dataclass
class GroupQuant:
    """The quantizer of one activation site ``x`` [N, D], in token order.

    ``spec_hi`` and ``spec_lo`` hold each group's scale. Row t quantizes at
    its group's scale and its planned range: ``scale``, ``qmin`` and ``qmax``
    are [N, 1] columns, so ``quant.fake_quant`` takes a ``GroupQuant`` as it
    takes a ``QuantSpec``. ``codes`` are the int8 codes of x, rounded on
    first read.
    """

    x: np.ndarray
    plan: TokenBitPlan
    spec_hi: QuantSpec
    spec_lo: QuantSpec

    @cached_property
    def scale(self) -> np.ndarray:
        return np.where(self.plan.bits[:, None] == 8, self.spec_hi.scale, self.spec_lo.scale)

    @property
    def qmin(self) -> np.ndarray:
        return self.plan._row_range[0]

    @property
    def qmax(self) -> np.ndarray:
        return self.plan._row_range[1]

    @cached_property
    def codes(self) -> np.ndarray:
        return round_clip(self.x, self)[0]


def token_importance(probs: np.ndarray) -> np.ndarray:
    """Each token's score: its attention to token 0, averaged over the heads of one layer's [H, N, N] map."""
    probs = np.asarray(probs)
    if probs.ndim != 3 or probs.shape[1] != probs.shape[2]:
        raise ValueError(f"probs must be one layer's [H, N, N] map, got shape {probs.shape}")
    return probs[:, :, 0].mean(axis=0)


def assign_bits(scores: np.ndarray, rho: float) -> TokenBitPlan:
    """8 bits for the top floor(rho * N) tokens, 4 for the rest."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0,1], got {rho}")
    n = np.asarray(scores).size
    # tiny nudge so float products like 0.3 * 10 = 2.999... floor correctly
    k = int(math.floor(rho * n + 1e-9))
    # a stable sort keeps ties in index order, so the lower index wins
    idx = np.argsort(-np.asarray(scores), kind="stable")[:k]
    bits = np.full(n, 4, dtype=np.int64)
    bits[idx] = 8
    return TokenBitPlan(bits)


def uniform_plan(n: int, bits: int) -> TokenBitPlan:
    """Degenerate plan with one bit width everywhere."""
    if bits not in (4, 8):
        raise ValueError(f"bits must be 4 or 8, got {bits}")
    return TokenBitPlan(np.full(n, bits, dtype=np.int64))


def plan_source(layer_index: int) -> int | None:
    """Which layer's attention map feeds this layer's plan; None for layer 0."""
    if layer_index < 0:
        raise IndexError(f"negative layer index {layer_index}")
    return layer_index - 1 if layer_index > 0 else None


def plan_for_layer(
    layer_index: int, maps_so_far: list, rho: float, n_tokens: int
) -> TokenBitPlan:
    """Plan from the most recent map; layer 0 falls back to a uniform plan.

    ``maps_so_far`` holds per-layer [H, N, N] probability arrays from the
    current forward pass (detached values, no gradient flows through them).
    """
    src = plan_source(layer_index)
    if src is None:
        return uniform_plan(n_tokens, 4 if rho == 0.0 else 8)
    return assign_bits(token_importance(maps_so_far[src]), rho)


def _group_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of x in one group; all of x is read without a gather."""
    return x if rows.size == x.shape[0] else x[rows]


def _group_spec(x: np.ndarray, rows: np.ndarray, bits: int, scale: float | None) -> QuantSpec:
    """The spec of the group of ``rows`` of x; without a scale, the max-abs of the group's rows (1 when empty)."""
    if scale is None:
        scale = calibrate_scale(_group_rows(x, rows), bits) if rows.size * x.shape[1] else 1.0
    return QuantSpec(bits=bits, scale=scale)


def group_quantize(
    x: np.ndarray, plan: TokenBitPlan, scale_hi: float | None = None, scale_lo: float | None = None
) -> GroupQuant:
    """The site's quantizer: one scale per group of the plan; the codes round on first read.

    A group without a given scale takes the max-abs scale of its rows; an
    empty group quantizes trivially at scale 1. Row t is rounded at its
    group's scale and clipped to its planned range, in token order; the
    quotient is elementwise, so each row's codes are those of its group
    quantized on its own.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != plan.bits.size:
        raise ValueError(f"x must be [N,D] with N={plan.bits.size}, got {x.shape}")
    spec_hi = _group_spec(x, plan.hi, 8, scale_hi)
    spec_lo = _group_spec(x, plan.lo, 4, scale_lo)
    return GroupQuant(x, plan, spec_hi, spec_lo)
