"""Micro decoder-only transformer with a quantization-aware student path.

Pre-norm blocks, learned absolute positions, tanh-GELU MLP at 4x width,
causal attention, logits tied to the token embedding. The teacher runs in
plain float; the student fake-quantizes the inputs and weights of every
linear projection (q, k, v, out, both MLP layers) plus the post-projection
q/k values whose statistics feed the entropy term. Softmax, layernorm,
residual adds, embeddings, and the tied head stay in float.

Activation bit widths follow a per-token plan: uniform 4 or 8, or adaptive
where layer l > 0 plans from layer l-1's attention map in the same pass.
Each activation site is quantized once per pass by ``group_quantize``.

The architecture is written once. ``forward_tape`` and ``forward_int`` run
the same forward and differ only in the six projections: the fake-quant path
multiplies fake-quantized activations and weights on the tape, the integer
path runs the kernel dispatch on the activation's group codes, on a constant
tape, and reports its instruction cost.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gradtape as gt
from .kernels import CostCounter, gemm_i8, gemm_mixed, pack_int4
from .quant import EmaState, QuantSpec, calibrate_scale, clip_surrogate, fake_quant, quantize
from .seeding import substream
from .token_bits import (
    TokenBitPlan,
    fake_quant_node,
    group_quantize,
    plan_for_layer,
    scatter_tokens,
    uniform_plan,
)

ACT_SITES = ("attn_in", "q_post", "k_post", "attn_out", "mlp_in", "mlp_hidden")

__all__ = [
    "ACT_SITES",
    "Calibration",
    "ForwardResult",
    "MicroTransformerConfig",
    "forward_int",
    "forward_tape",
    "forward_teacher",
    "init_params",
    "params_to_tape",
    "perplexity_eval",
]


@dataclass(frozen=True)
class MicroTransformerConfig:
    layers: int = 2
    heads: int = 2
    dim: int = 32
    vocab: int = 64
    seq_len: int = 32
    weight_bits: int = 4
    act_bits: object = "adaptive"  # 4, 8, or "adaptive"
    rho: float = 0.5
    r_E: float = 0.5
    r_D: float = 1.0
    gamma: float = 0.5
    tau: float = 2.0
    seed: int = 0
    lr: float = 0.05
    steps: int = 1000
    literal_distribution_sign: bool = False

    def __post_init__(self):
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by {self.heads} heads")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0,1], got {self.rho}")
        if self.weight_bits not in (4, 8):
            raise ValueError(f"weight_bits must be 4 or 8, got {self.weight_bits}")
        if self.act_bits not in (4, 8, "adaptive"):
            raise ValueError(f"act_bits must be 4, 8, or 'adaptive', got {self.act_bits!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0,1], got {self.gamma}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    def to_dict(self) -> dict:
        return asdict(self)


WEIGHT_NAMES = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp.w1", "mlp.w2")


def init_params(cfg: MicroTransformerConfig) -> dict:
    """Seeded float32 parameter dict; every tensor gets its own substream.

    Projections use 1/sqrt(fan_in) scaling so post-layernorm activations
    (and hence q/k variances) start near unit scale; tiny GPT-2 style init
    leaves sum-of-log-variance terms minuscule and their gradients huge.
    """

    def draw(name, shape, scale):
        return (substream(cfg.seed, f"init.{name}").normal(size=shape) * scale).astype(np.float32)

    d, hidden = cfg.dim, 4 * cfg.dim
    params = {
        "tok_emb": draw("tok_emb", (cfg.vocab, d), 0.02),
        "pos_emb": draw("pos_emb", (cfg.seq_len, d), 0.02),
        "lnf.g": np.ones(d, dtype=np.float32),
        "lnf.b": np.zeros(d, dtype=np.float32),
    }
    for l in range(cfg.layers):
        p = f"l{l}."
        params[p + "ln1.g"] = np.ones(d, dtype=np.float32)
        params[p + "ln1.b"] = np.zeros(d, dtype=np.float32)
        params[p + "ln2.g"] = np.ones(d, dtype=np.float32)
        params[p + "ln2.b"] = np.zeros(d, dtype=np.float32)
        for w in ("wq", "wk", "wv", "wo"):
            params[p + f"attn.{w}"] = draw(p + f"attn.{w}", (d, d), d ** -0.5)
            params[p + f"attn.b{w[1]}"] = np.zeros(d, dtype=np.float32)
        params[p + "mlp.w1"] = draw(p + "mlp.w1", (d, hidden), d ** -0.5)
        params[p + "mlp.b1"] = np.zeros(hidden, dtype=np.float32)
        params[p + "mlp.w2"] = draw(p + "mlp.w2", (hidden, d), hidden ** -0.5)
        params[p + "mlp.b2"] = np.zeros(d, dtype=np.float32)
    return params


class Calibration:
    """EMA scale state per (layer, site, group) activation quantizer."""

    def __init__(self, momentum: float = 0.95):
        self.momentum = momentum
        self.ema: dict[str, EmaState] = {}

    def get(self, key: str) -> EmaState:
        if key not in self.ema:
            self.ema[key] = EmaState(momentum=self.momentum)
        return self.ema[key]

    def state_dict(self) -> dict:
        return {
            "momentum": self.momentum,
            "ema": {k: v.state_dict() for k, v in sorted(self.ema.items())},
        }

    @classmethod
    def from_state_dict(cls, d: dict) -> "Calibration":
        out = cls(momentum=d["momentum"])
        out.ema = {k: EmaState.from_state_dict(v) for k, v in d["ema"].items()}
        return out


@dataclass
class ForwardResult:
    logits: gt.Tensor
    attn_nodes: list  # [L][H] attention probability nodes
    attn_probs: np.ndarray  # [L,H,T,T] detached
    q_nodes: list  # per-layer [T,d] post-projection q (quantized when enabled)
    k_nodes: list
    plans: list  # per-layer TokenBitPlan, or None when not quantized
    scales_used: dict = field(default_factory=dict)


def params_to_tape(tape: gt.Tape, params: dict, trainable: bool = True) -> dict:
    make = tape.parameter if trainable else tape.constant
    return {name: make(arr, name=name) for name, arr in sorted(params.items())}


def _plan_for(cfg, layer, maps_so_far, n_tokens, plans_override):
    if plans_override is not None:
        return plans_override[layer]
    if cfg.act_bits == "adaptive":
        return plan_for_layer(layer, maps_so_far, cfg.rho, n_tokens)
    return uniform_plan(n_tokens, int(cfg.act_bits))


def forward_tape(
    tape: gt.Tape,
    tp: dict,
    tokens: np.ndarray,
    cfg: MicroTransformerConfig,
    quantized: bool = False,
    training: bool = False,
    calib: Calibration | None = None,
    plans_override: list | None = None,
    scale_overrides: dict | None = None,
    surrogate: bool = False,
) -> ForwardResult:
    """One forward pass; builds every op on the given tape.

    ``scale_overrides`` pins quantizer scales by key (weight name, or
    "l{l}.{site}.{hi|lo}") and ``plans_override`` pins per-layer bit plans;
    both exist so gradient checks can hold the quantization grid fixed.
    ``surrogate`` swaps rounding for the clip-only forward.
    """
    return _forward(tape, tp, tokens, cfg, quantized, training, calib, plans_override, scale_overrides, surrogate)


def _forward(
    tape, tp, tokens, cfg, quantized=False, training=False, calib=None,
    plans_override=None, scale_overrides=None, surrogate=False, cost=None,
) -> ForwardResult:
    """The architecture, written once.

    Projections fake-quantize their operands and multiply on the tape or,
    given a ``cost`` counter, run the integer kernels on the activation's
    group codes and enter the product as a constant.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    t_len = tokens.size
    if not 1 <= t_len <= cfg.seq_len:
        raise ValueError(f"sequence length {t_len} outside [1, {cfg.seq_len}]")
    overrides = scale_overrides or {}
    scales_used: dict = {}

    def weight_scale(name):
        scale = overrides.get(name)
        if scale is None:
            scale = calibrate_scale(tp[name].array, cfg.weight_bits)
        scales_used[name] = scale
        return scale

    def fq_act(node, layer, site, plan):
        """Fake-quant node of one activation site and the group codes behind it."""
        if not quantized:
            return node, None
        key = f"l{layer}.{site}"
        kw = {}
        for group in ("hi", "lo"):
            gkey = f"{key}.{group}"
            if gkey in overrides:
                kw[f"scale_{group}"] = overrides[gkey]
            elif calib is not None:
                kw[f"ema_{group}"] = calib.get(gkey)
        gq = group_quantize(node.array, plan, training=training, **kw)
        for group, idx, q in (("hi", gq.groups.hi_indices, gq.q_hi), ("lo", gq.groups.lo_indices, gq.q_lo)):
            if idx.size:
                scales_used[f"{key}.{group}"] = q.scale
        return fake_quant_node(node, gq, surrogate), gq

    def linear(act, name, bias):
        xq, gq = act
        if not quantized:
            y = gt.matmul(xq, tp[name])
        elif cost is None:
            spec = QuantSpec(bits=cfg.weight_bits, scale=weight_scale(name), target="weight")
            y = gt.matmul(xq, (clip_surrogate if surrogate else fake_quant)(tp[name], spec))
        else:
            y = tape.constant(_linear_int(gq, tp[name].array, weight_scale(name), cfg.weight_bits, cost))
        return gt.add_bias(y, tp[bias])

    dh = cfg.head_dim
    pos_ids = np.arange(t_len)
    x = gt.add(gt.gather_rows(tp["tok_emb"], tokens), gt.gather_rows(tp["pos_emb"], pos_ids))
    attn_nodes, q_nodes, k_nodes, plans = [], [], [], []
    maps_so_far: list = []
    for l in range(cfg.layers):
        p = f"l{l}."
        h1 = gt.layernorm(x, tp[p + "ln1.g"], tp[p + "ln1.b"])
        plan = _plan_for(cfg, l, maps_so_far, t_len, plans_override) if quantized else None
        plans.append(plan)
        qx = fq_act(h1, l, "attn_in", plan)
        q = linear(qx, p + "attn.wq", p + "attn.bq")
        k = linear(qx, p + "attn.wk", p + "attn.bk")
        v = linear(qx, p + "attn.wv", p + "attn.bv")
        q, _ = fq_act(q, l, "q_post", plan)
        k, _ = fq_act(k, l, "k_post", plan)
        q_nodes.append(q)
        k_nodes.append(k)
        heads, ctx_parts = [], []
        for h in range(cfg.heads):
            qh = gt.slice_cols(q, h * dh, (h + 1) * dh)
            kh = gt.slice_cols(k, h * dh, (h + 1) * dh)
            vh = gt.slice_cols(v, h * dh, (h + 1) * dh)
            scores = gt.mul_scalar(gt.matmul(qh, gt.transpose(kh)), 1.0 / math.sqrt(dh))
            probs = gt.softmax_rows(scores, causal=True)
            heads.append(probs)
            ctx_parts.append(gt.matmul(probs, vh))
        attn_nodes.append(heads)
        maps_so_far.append(np.stack([pr.array for pr in heads]))
        ctx = fq_act(gt.concat_cols(ctx_parts), l, "attn_out", plan)
        x = gt.add(x, linear(ctx, p + "attn.wo", p + "attn.bo"))
        h2 = gt.layernorm(x, tp[p + "ln2.g"], tp[p + "ln2.b"])
        hid = gt.gelu(linear(fq_act(h2, l, "mlp_in", plan), p + "mlp.w1", p + "mlp.b1"))
        x = gt.add(x, linear(fq_act(hid, l, "mlp_hidden", plan), p + "mlp.w2", p + "mlp.b2"))
    xf = gt.layernorm(x, tp["lnf.g"], tp["lnf.b"])
    logits = gt.matmul(xf, gt.transpose(tp["tok_emb"]))
    return ForwardResult(
        logits=logits,
        attn_nodes=attn_nodes,
        attn_probs=np.stack(maps_so_far),
        q_nodes=q_nodes,
        k_nodes=k_nodes,
        plans=plans,
        scales_used=scales_used,
    )


def forward_teacher(cfg: MicroTransformerConfig, params: dict, tokens) -> ForwardResult:
    """Full-precision forward on a private tape (constants, no gradients)."""
    tape = gt.Tape(dtype=np.float32)
    tp = params_to_tape(tape, params, trainable=False)
    return forward_tape(tape, tp, tokens, cfg, quantized=False)


def _linear_int(gq, w, w_scale, weight_bits, cost) -> np.ndarray:
    """Integer-kernel product of group codes and quantized weights, in token order."""
    w_ints = quantize(w, QuantSpec(bits=weight_bits, scale=w_scale)).ints
    x_hi = gq.q_hi.ints.T  # kernel layout: [K, tokens]
    x_lo = gq.q_lo.ints.T
    wk = w_ints.T  # [out_dim, K]
    if weight_bits == 4:
        out_grouped = gemm_mixed(
            pack_int4(wk),
            {"hi": x_hi, "lo": x_lo},
            {"alpha_w": w_scale, "alpha_hi": gq.q_hi.scale, "alpha_lo": gq.q_lo.scale},
            cost,
        )
    else:
        # no packed path exists for 8-bit weights; both groups take the byte kernel
        parts = []
        for xg, scale in ((x_hi, gq.q_hi.scale), (x_lo, gq.q_lo.scale)):
            if xg.shape[1]:
                acc = gemm_i8(wk, xg, cost)
                parts.append(acc.astype(np.float32) * (np.float32(w_scale) * np.float32(scale)))
            else:
                parts.append(np.zeros((wk.shape[0], 0), dtype=np.float32))
        out_grouped = np.concatenate(parts, axis=1)
    n_hi = x_hi.shape[1]
    return scatter_tokens(out_grouped.T[:n_hi], out_grouped.T[n_hi:], gq.groups)


def forward_int(
    cfg: MicroTransformerConfig,
    params: dict,
    tokens,
    calib: Calibration | None,
    cost: CostCounter | None = None,
) -> tuple[np.ndarray, list]:
    """Integer-kernel forward; returns (logits, per-layer bit plans).

    The forward of ``forward_tape`` on a constant tape, with the six
    projections run on quantized operands through the kernel dispatch.
    Uses frozen calibration scales.
    """
    tape = gt.Tape(dtype=np.float32)
    tp = params_to_tape(tape, params, trainable=False)
    cost = cost if cost is not None else CostCounter()
    res = _forward(tape, tp, tokens, cfg, quantized=True, calib=calib, cost=cost)
    # each node points back at the tape; emptying its record breaks that
    # cycle so the window's arrays are freed now, not by a later gc pass
    tape.nodes.clear()
    return res.logits.array, res.plans


def perplexity_eval(
    cfg: MicroTransformerConfig,
    params: dict,
    corpus: np.ndarray,
    calib: Calibration | None = None,
    quantized: bool = True,
) -> float:
    """exp(mean next-token CE) over non-overlapping windows of the stream."""
    corpus = np.asarray(corpus, dtype=np.int64)
    n = cfg.seq_len
    if corpus.size < n + 1:
        raise ValueError(f"corpus of {corpus.size} tokens is too short for eval")
    ces = []
    for start in range(0, corpus.size - n, n):
        window = corpus[start : start + n + 1]
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, params, trainable=False)
        res = forward_tape(
            tape, tp, window[:-1], cfg, quantized=quantized, training=False, calib=calib
        )
        ces.append(gt.cross_entropy(res.logits, window[1:]).item())
    return float(np.exp(np.mean(ces)))
