"""Per-token activation bit planning driven by attention to the initial token.

A token's importance (``token_importance``, of one layer's [H, N, N] map) is
its averaged attention probability toward position 0 across heads. The top
floor(rho * N) tokens by that score are quantized at 8 bits, the rest at 4;
each group gets one layer-wise scale. ``plan_for_layer`` plans layer l > 0
from layer l-1's map within the same forward pass; layer 0 has no map yet
and plans all-8 (all-4 when rho is 0, so the rho=0 plan degenerates to the
uniform 4-bit path everywhere).

A plan is its bits alone: it caches its 8-bit and 4-bit positions (``hi``,
``lo``), and its 8-bit count ``k`` is ``hi.size``. The model reads each
group's scale by the positions; the tests also gather each group's rows by
them for the grouped reference (``gather_tokens``/``scatter_tokens`` in
``tests/reference.py``) that they hold the token-order path to.

An activation site's quantizer, built by ``group_quantize``, is a
``quant.QuantSpec`` of [N, 1] columns in token order: row t takes its
token's planned width and its group's given scale. So ``quant.round_clip``
and ``quant.fake_quant`` treat it as they treat a weight's scalar spec, and
the int8 codes, the dequantized values and the straight-through mask all
come from one float64 round(x / scale), with no gather or scatter of rows.
The integer path hands those codes, with the per-token bits, to the kernel
dispatch in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quant import QuantSpec

__all__ = [
    "TokenBitPlan",
    "assign_bits",
    "group_quantize",
    "plan_for_layer",
    "token_importance",
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


def plan_for_layer(probs: np.ndarray | None, rho: float, n_tokens: int) -> TokenBitPlan:
    """The plan of a layer from the previous layer's [H, N, N] map ``probs``.

    Layer 0 has no previous map (``None``) and plans all-8, or all-4 at
    rho 0. The map is a detached array: no gradient flows through a plan.
    """
    if probs is None:
        return TokenBitPlan(np.full(n_tokens, 4 if rho == 0.0 else 8))
    return assign_bits(token_importance(probs), rho)


def group_quantize(x: np.ndarray, plan: TokenBitPlan, scale_hi: float, scale_lo: float) -> QuantSpec:
    """The quantizer of site x [N, D] under ``plan``: row t at its planned width and its group's scale.

    The 8-bit tokens share ``scale_hi``, the 4-bit ones ``scale_lo``. The
    quotient is elementwise, so each row's codes are those of its group
    quantized on its own.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != plan.bits.size:
        raise ValueError(f"x must be [N,D] with N={plan.bits.size}, got {x.shape}")
    bits = plan.bits[:, None]
    return QuantSpec(bits, np.where(bits == 8, scale_hi, scale_lo))
