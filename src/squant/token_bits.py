"""Per-token activation bit planning driven by attention to the initial token.

A token's importance is its averaged attention probability toward position 0
across heads. The top floor(rho * N) tokens by that score are quantized at
8 bits, the rest at 4; each group gets one layer-wise scale. Layer l > 0
plans from layer l-1's map within the same forward pass; layer 0 has no map
yet and defaults to all-8 (all-4 when rho is 0, so the rho=0 plan degenerates
to the uniform 4-bit path everywhere).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import gradtape as gt
from .quant import EmaState, QuantSpec, QuantizedTensor, _clip, _ste_mask, calibrate_scale, dequantize, quantize

__all__ = [
    "AttentionMap",
    "GroupQuant",
    "TokenBitPlan",
    "TokenGroups",
    "assign_bits",
    "fake_quant_grouped",
    "fake_quant_node",
    "gather_tokens",
    "group_quantize",
    "heap_topk",
    "plan_for_layer",
    "plan_source",
    "scatter_tokens",
    "token_importance",
    "uniform_plan",
]


@dataclass
class AttentionMap:
    """Causal attention probabilities, [layers, heads, tokens, tokens]."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs)
        if p.ndim != 4 or p.shape[-1] != p.shape[-2]:
            raise ValueError(f"probs must be [L,H,N,N], got shape {p.shape}")
        rows = p.sum(axis=-1)
        if not np.allclose(rows, 1.0, atol=1e-6):
            raise ValueError("attention rows must sum to 1")
        n = p.shape[-1]
        if n > 1 and np.abs(p[..., np.triu_indices(n, k=1)[0], np.triu_indices(n, k=1)[1]]).max() > 0:
            raise ValueError("causal map has nonzero attention above the diagonal")
        self.probs = p

    @property
    def layers(self) -> int:
        return self.probs.shape[0]

    @property
    def heads(self) -> int:
        return self.probs.shape[1]

    @property
    def tokens(self) -> int:
        return self.probs.shape[2]


@dataclass
class TokenBitPlan:
    """Bit width per token; exactly floor(rho * N) tokens at 8 bits."""

    bits: np.ndarray
    rho: float
    k: int

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.int64)
        if not np.all(np.isin(self.bits, (4, 8))):
            raise ValueError("bit plan entries must be 4 or 8")
        if int((self.bits == 8).sum()) != self.k:
            raise ValueError(f"plan has {(self.bits == 8).sum()} 8-bit tokens, expected {self.k}")


@dataclass
class TokenGroups:
    """Original positions of the 8-bit and 4-bit tokens, each ascending."""

    hi_indices: np.ndarray
    lo_indices: np.ndarray

    def __post_init__(self):
        self.hi_indices = np.sort(np.asarray(self.hi_indices, dtype=np.int64))
        self.lo_indices = np.sort(np.asarray(self.lo_indices, dtype=np.int64))
        n = self.hi_indices.size + self.lo_indices.size
        merged = np.concatenate([self.hi_indices, self.lo_indices])
        if not np.array_equal(np.sort(merged), np.arange(n)):
            raise ValueError("groups must partition 0..N-1")

    @property
    def order(self) -> np.ndarray:
        """Token positions in grouped (hi then lo) order."""
        return np.concatenate([self.hi_indices, self.lo_indices])

    @property
    def inverse(self) -> np.ndarray:
        """Permutation taking grouped order back to sequence order."""
        return np.argsort(self.order)


@dataclass
class GroupQuant:
    groups: TokenGroups
    q_hi: QuantizedTensor
    q_lo: QuantizedTensor


def token_importance(attn: AttentionMap, layer: int) -> np.ndarray:
    """Mean over heads of the first attention column at the given layer."""
    if not 0 <= layer < attn.layers:
        raise IndexError(f"layer {layer} out of range for {attn.layers} layers")
    return attn.probs[layer, :, :, 0].mean(axis=0)


def heap_topk(scores: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """k largest scores via a size-k min-heap; ties prefer the lower index.

    Returns (threshold, indices ascending); threshold is the smallest selected
    score, +inf when k = 0 so that "score >= threshold" selects nothing.
    """
    values = scores.tolist() if isinstance(scores, np.ndarray) else list(scores)
    n = len(values)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    if k == 0:
        return math.inf, np.empty(0, dtype=np.int64)
    heap: list = []
    for i, s in enumerate(values):
        entry = (s, -i)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
    threshold = float(heap[0][0])
    idx = np.sort(np.array([-neg for _, neg in heap], dtype=np.int64))
    return threshold, idx


def assign_bits(scores: np.ndarray, rho: float) -> TokenBitPlan:
    """8 bits for the top floor(rho * N) tokens, 4 for the rest."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0,1], got {rho}")
    n = np.asarray(scores).size
    # tiny nudge so float products like 0.3 * 10 = 2.999... floor correctly
    k = int(math.floor(rho * n + 1e-9))
    _, idx = heap_topk(scores, k)
    bits = np.full(n, 4, dtype=np.int64)
    bits[idx] = 8
    return TokenBitPlan(bits=bits, rho=rho, k=k)


def uniform_plan(n: int, bits: int, rho: float | None = None) -> TokenBitPlan:
    """Degenerate plan with one bit width everywhere."""
    if bits not in (4, 8):
        raise ValueError(f"bits must be 4 or 8, got {bits}")
    if rho is None:
        rho = 1.0 if bits == 8 else 0.0
    k = n if bits == 8 else 0
    return TokenBitPlan(bits=np.full(n, bits, dtype=np.int64), rho=rho, k=k)


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
        if rho == 0.0:
            return uniform_plan(n_tokens, 4, rho=rho)
        return uniform_plan(n_tokens, 8, rho=rho)
    probs = np.asarray(maps_so_far[src])
    scores = probs[:, :, 0].mean(axis=0)
    return assign_bits(scores, rho)


def _groups_from_plan(plan: TokenBitPlan) -> TokenGroups:
    return TokenGroups(
        hi_indices=np.flatnonzero(plan.bits == 8), lo_indices=np.flatnonzero(plan.bits == 4)
    )


def gather_tokens(x: np.ndarray, groups: TokenGroups) -> tuple[np.ndarray, np.ndarray]:
    return x[groups.hi_indices], x[groups.lo_indices]


def scatter_tokens(hi: np.ndarray, lo: np.ndarray, groups: TokenGroups) -> np.ndarray:
    stacked = np.concatenate([hi, lo], axis=0)
    return stacked[groups.inverse]


def _group_scale(
    x: np.ndarray, bits: int, ema: EmaState | None, fixed: float | None, training: bool
) -> float:
    if fixed is not None:
        return fixed
    if x.size == 0:
        return 1.0
    if ema is None:
        return calibrate_scale(x, bits)
    if training:
        return calibrate_scale(x, bits, ema)
    frozen = ema.running_max
    return frozen / float((1 << (bits - 1)) - 1) if frozen > 0 else 1.0


def group_quantize(
    x: np.ndarray,
    plan: TokenBitPlan,
    ema_hi: EmaState | None = None,
    ema_lo: EmaState | None = None,
    scale_hi: float | None = None,
    scale_lo: float | None = None,
    training: bool = True,
) -> GroupQuant:
    """Split rows by plan and quantize each group with its own scale.

    Scale precedence per group: explicit fixed scale, then EMA (updated only
    when training), then plain max-abs of the group. Empty groups quantize
    trivially at scale 1 and never touch their EMA.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != plan.bits.size:
        raise ValueError(f"x must be [N,D] with N={plan.bits.size}, got {x.shape}")
    groups = _groups_from_plan(plan)
    x_hi, x_lo = gather_tokens(x, groups)
    s_hi = _group_scale(x_hi, 8, ema_hi, scale_hi, training)
    s_lo = _group_scale(x_lo, 4, ema_lo, scale_lo, training)
    q_hi = quantize(x_hi, QuantSpec(bits=8, scale=s_hi, target="activation"))
    q_lo = quantize(x_lo, QuantSpec(bits=4, scale=s_lo, target="activation"))
    return GroupQuant(groups=groups, q_hi=q_hi, q_lo=q_lo)


def fake_quant_grouped(
    x: gt.Tensor,
    plan: TokenBitPlan,
    ema_hi: EmaState | None = None,
    ema_lo: EmaState | None = None,
    scale_hi: float | None = None,
    scale_lo: float | None = None,
    training: bool = True,
    surrogate: bool = False,
) -> gt.Tensor:
    """Tape version of group_quantize: one node over its group codes.

    Scales follow group_quantize's precedence; see fake_quant_node for the
    forward and the straight-through backward.
    """
    gq = group_quantize(x.array, plan, ema_hi, ema_lo, scale_hi, scale_lo, training)
    return fake_quant_node(x, gq, surrogate)


def fake_quant_node(x: gt.Tensor, gq: GroupQuant, surrogate: bool = False) -> gt.Tensor:
    """Tape node whose forward is gq's dequantized codes in token order.

    ``gq`` must come from ``group_quantize(x.array, ...)``. With ``surrogate``
    the forward clips each group to its representable interval instead of
    rounding (used for finite-difference checks). The backward passes the
    gradient where the group's straight-through mask is 1 and +0.0 elsewhere.
    """
    groups = gq.groups
    spec_hi, spec_lo = (QuantSpec(bits=q.bits, scale=q.scale, target="activation") for q in (gq.q_hi, gq.q_lo))
    if surrogate:
        x_hi, x_lo = gather_tokens(x.array, groups)
        (y_hi, m_hi), (y_lo, m_lo) = _clip(x_hi, spec_hi), _clip(x_lo, spec_lo)
        y, mask = scatter_tokens(y_hi, y_lo, groups), scatter_tokens(m_hi, m_lo, groups)
    else:
        y = scatter_tokens(dequantize(gq.q_hi, x.tape.dtype), dequantize(gq.q_lo, x.tape.dtype), groups)
        mask = None

    def vjp(g):
        m = mask
        if m is None:  # the rounding mask is built only when a backward pass needs it
            x_hi, x_lo = gather_tokens(x.array, groups)
            m = scatter_tokens(_ste_mask(x_hi, spec_hi), _ste_mask(x_lo, spec_lo), groups)
        return (g * m + 0.0,)  # + 0.0 turns g * 0 for negative g into +0.0

    return x.tape.record(y, (x,), vjp, name="fake_quant_grouped")
