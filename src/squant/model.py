"""Micro decoder-only transformer with a quantization-aware student path.

Pre-norm blocks, learned absolute positions, tanh-GELU MLP at 4x width,
causal attention, logits tied to the token embedding. The teacher runs in
plain float; the student fake-quantizes the inputs and weights of every
linear projection (q, k, v, out, both MLP layers) plus the post-projection
q/k values whose statistics feed the entropy term. Softmax, layernorm,
residual adds, embeddings, and the tied head stay in float.

Activation bit widths follow a per-token plan: uniform 4 or 8, or adaptive
where layer l > 0 plans from layer l-1's attention map in the same pass.
Each activation site is quantized once per pass by ``group_quantize``, in
one per-row rounding, and stays in token order on both paths.

Attention runs over all heads at once as two tape nodes per layer:
``gt.attention`` gives the causal [H, T, T] probabilities of q and k, and
``gt.attend`` the [T, D] context of those probabilities and v.

The architecture is written once. ``forward_tape`` and ``forward_int`` run
the same forward and differ only in the six projections: on the tape each
projection is one ``quant.linear`` node (fake-quantized activation times the
once-rounded weight plus bias, or the float product on the float path), the
integer path runs the kernels on the activation's int8 codes in token order,
on a constant tape, and reports their instruction cost. The kernels return
int32 sums; ``_linear_int`` is the one place that dequantizes them, each
token's row times alpha_w * alpha_x for 4-bit and 8-bit weights alike,
before the bias is added. A tape of constants records no nodes, so the
teacher and integer forwards, and ``perplexity_eval``'s windows, which share
one such tape per call, leave nothing behind for the collector.

The integer student follows compile once, run many: ``compile_int``
quantizes every projection weight and lays it out for the kernels (int8
codes, and for 4-bit weights the packed units with their float64 lanes) in an
``IntModel``, whose arrays are read-only. ``forward_int`` runs an
``IntModel`` as it is. Given float parameters it keeps, per (weight name,
weight bits), the float32 values it last compiled and their compiled form,
so a per-call caller pays one bitwise compare per projection weight, and
only a first or changed weight is quantized and packed again.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gradtape as gt
from .kernels import CostCounter, PackedInt4Matrix, gemm_i8, gemm_mixed, pack_int4
from .quant import EmaState, QuantSpec, calibrate_scale, check_momentum, fake_quant, linear, quantize
from .schema import check_fields, integer, number, one_of, typed
from .seeding import substream
from .token_bits import group_quantize, plan_for_layer, uniform_plan

ACT_SITES = ("attn_in", "q_post", "k_post", "attn_out", "mlp_in", "mlp_hidden")

__all__ = [
    "ACT_SITES",
    "Calibration",
    "ForwardResult",
    "IntModel",
    "IntProjection",
    "MicroTransformerConfig",
    "compile_int",
    "forward_int",
    "forward_tape",
    "forward_teacher",
    "init_params",
    "param_specs",
    "params_to_tape",
    "perplexity_eval",
]


@dataclass(frozen=True)
class MicroTransformerConfig:
    layers: int = integer(2, least=1)
    heads: int = integer(2, least=1)
    dim: int = integer(32, least=1)
    vocab: int = integer(64, least=4)  # the synthetic corpus draws 4 distinct successors per token
    seq_len: int = integer(32, least=1)
    weight_bits: int = one_of(4, 8, default=4)
    act_bits: object = one_of(4, 8, "adaptive", default="adaptive")
    rho: float = number(0.5, "[0, 1]")
    r_E: float = number(0.5, "[0, inf)")
    r_D: float = number(1.0, "[0, inf)")
    gamma: float = number(0.5, "[0, 1]")
    tau: float = number(2.0, "(0, inf)")
    seed: int = integer(0, least=0)
    lr: float = number(0.05, "(0, inf)")
    steps: int = integer(1000, least=0)
    literal_distribution_sign: bool = typed(bool, default=False)

    def __post_init__(self):
        check_fields(self)
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by {self.heads} heads")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    def to_dict(self) -> dict:
        return asdict(self)


WEIGHT_NAMES = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp.w1", "mlp.w2")


def param_specs(cfg: MicroTransformerConfig):
    """Yield (name, shape, init) for every parameter in a fixed order, allocating nothing.

    ``init`` is "ones", "zeros", or the std of the tensor's seeded normal draw.
    Projections use 1/sqrt(fan_in) scaling so post-layernorm activations
    (and hence q/k variances) start near unit scale; tiny GPT-2 style init
    leaves sum-of-log-variance terms minuscule and their gradients huge.
    """
    d, hidden = cfg.dim, 4 * cfg.dim
    yield "tok_emb", (cfg.vocab, d), 0.02
    yield "pos_emb", (cfg.seq_len, d), 0.02
    yield "lnf.g", (d,), "ones"
    yield "lnf.b", (d,), "zeros"
    for l in range(cfg.layers):
        p = f"l{l}."
        for ln in ("ln1", "ln2"):
            yield p + ln + ".g", (d,), "ones"
            yield p + ln + ".b", (d,), "zeros"
        for w in ("wq", "wk", "wv", "wo"):
            yield p + f"attn.{w}", (d, d), d ** -0.5
            yield p + f"attn.b{w[1]}", (d,), "zeros"
        yield p + "mlp.w1", (d, hidden), d ** -0.5
        yield p + "mlp.b1", (hidden,), "zeros"
        yield p + "mlp.w2", (hidden, d), hidden ** -0.5
        yield p + "mlp.b2", (d,), "zeros"


def init_params(cfg: MicroTransformerConfig) -> dict:
    """Seeded float32 parameter dict of ``param_specs``; every drawn tensor gets its own substream."""

    def make(name, shape, init):
        if init == "ones":
            return np.ones(shape, dtype=np.float32)
        if init == "zeros":
            return np.zeros(shape, dtype=np.float32)
        return (substream(cfg.seed, f"init.{name}").normal(size=shape) * init).astype(np.float32)

    return {name: make(name, shape, init) for name, shape, init in param_specs(cfg)}


class Calibration:
    """EMA scale state per (layer, site, group) activation quantizer."""

    def __init__(self, momentum: float = 0.95):
        self.momentum = check_momentum(momentum)
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
    def from_state_dict(cls, d) -> "Calibration":
        """Inverse of ``state_dict``; ValueError on a malformed state."""
        if not (isinstance(d, dict) and isinstance(d.get("ema"), dict)):
            raise ValueError(f"calibration state needs an 'ema' object, got {d!r}")
        out = cls(momentum=d.get("momentum"))
        out.ema = {k: EmaState.from_state_dict(v) for k, v in d["ema"].items()}
        return out


@dataclass
class ForwardResult:
    logits: gt.Tensor
    attn_nodes: list  # per-layer [H,T,T] attention probability nodes
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
    plans_override=None, scale_overrides=None, surrogate=False, project=None,
) -> ForwardResult:
    """The architecture, written once.

    Projections fake-quantize their operands and multiply on the tape or,
    given ``project(gq, weight_name)``, enter the integer product of the
    activation's codes and the named weight as a constant.
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
        """Fake-quant node of one activation site and the site's quantizer."""
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
        for group, rows, spec in (("hi", plan.hi, gq.spec_hi), ("lo", plan.lo, gq.spec_lo)):
            if rows.size:
                scales_used[f"{key}.{group}"] = spec.scale
        if project is not None and site not in ("q_post", "k_post"):
            return None, gq  # the integer projections read the codes, never the dequantized node
        return fake_quant(node, gq, surrogate), gq

    def projection(act, name, bias):
        xq, gq = act
        if project is not None:
            out = project(gq, name)
            out += tp[bias].array
            return tape.constant(out)
        spec = QuantSpec(bits=cfg.weight_bits, scale=weight_scale(name)) if quantized else None
        return linear(xq, tp[name], tp[bias], spec, surrogate)

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
        q = projection(qx, p + "attn.wq", p + "attn.bq")
        k = projection(qx, p + "attn.wk", p + "attn.bk")
        v = projection(qx, p + "attn.wv", p + "attn.bv")
        q, _ = fq_act(q, l, "q_post", plan)
        k, _ = fq_act(k, l, "k_post", plan)
        q_nodes.append(q)
        k_nodes.append(k)
        probs = gt.attention(q, k, cfg.heads, 1.0 / math.sqrt(cfg.head_dim))
        attn_nodes.append(probs)
        maps_so_far.append(probs.array)
        ctx = fq_act(gt.attend(probs, v), l, "attn_out", plan)
        x = gt.add(x, projection(ctx, p + "attn.wo", p + "attn.bo"))
        h2 = gt.layernorm(x, tp[p + "ln2.g"], tp[p + "ln2.b"])
        hid = gt.gelu(projection(fq_act(h2, l, "mlp_in", plan), p + "mlp.w1", p + "mlp.b1"))
        x = gt.add(x, projection(fq_act(hid, l, "mlp_hidden", plan), p + "mlp.w2", p + "mlp.b2"))
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


@dataclass(frozen=True)
class IntProjection:
    """One projection weight as the integer kernels read it."""

    scale: float  # max-abs weight scale
    codes: np.ndarray  # int8 [out_dim, K], kernel layout
    packed: PackedInt4Matrix | None  # 4-bit weights only; its codes are ``codes``


@dataclass(frozen=True)
class IntModel:
    """A student compiled for ``forward_int``.

    ``projections`` maps each projection weight name to its ``IntProjection``;
    ``params`` holds the float32 tensors that stay float (embeddings,
    layernorms, biases).
    """

    weight_bits: int
    params: dict
    projections: dict


def compile_int(cfg: MicroTransformerConfig, params: dict) -> IntModel:
    """Quantize and lay out every projection weight once, for any number of windows.

    Each weight takes its max-abs scale at ``cfg.weight_bits``, as the
    fake-quant path's weights do. A non-finite weight raises ValueError.
    """
    return _compile(cfg, params, _compile_projection)


def _compile(cfg, params, compile_projection) -> IntModel:
    projections = {}
    for l in range(cfg.layers):
        for w in WEIGHT_NAMES:
            name = f"l{l}.{w}"
            projections[name] = compile_projection(name, params[name], cfg.weight_bits)
    rest = {name: arr for name, arr in params.items() if name not in projections}
    return IntModel(cfg.weight_bits, rest, projections)


def _compile_projection(name: str, w: np.ndarray, bits: int) -> IntProjection:
    w = np.asarray(w, dtype=np.float32)  # the values a tape would hold
    scale = calibrate_scale(w, bits)
    if not math.isfinite(scale):  # a NaN or Inf weight makes the max-abs scale non-finite
        raise ValueError(f"non-finite values in weight {name}")
    codes = quantize(w, QuantSpec(bits=bits, scale=scale)).ints.T  # kernel layout: [out_dim, K]
    if bits == 4:
        packed = pack_int4(codes)
        _freeze(packed.packed, packed.codes, packed.lanes)
        return IntProjection(scale, packed.codes, packed)
    _freeze(codes)
    return IntProjection(scale, codes, None)


def _freeze(*arrays: np.ndarray) -> None:
    """Mark arrays read-only: a compiled projection may be shared by many calls."""
    for a in arrays:
        a.flags.writeable = False


# Per (weight name, weight bits): the float32 values last compiled and their
# projection, replaced on a miss. One tuple per entry, so a reader never pairs
# one call's snapshot with another call's projection.
_COMPILED: dict[tuple[str, int], tuple[np.ndarray, IntProjection]] = {}


def _compiled_projection(name: str, w: np.ndarray, bits: int) -> IntProjection:
    """``_compile_projection``, reused while the weight's float32 bits are unchanged."""
    w = np.asarray(w, dtype=np.float32)
    entry = _COMPILED.get((name, bits))
    if entry is not None and np.array_equal(entry[0].view(np.uint32), w.view(np.uint32)):
        return entry[1]
    proj = _compile_projection(name, w, bits)  # raises on a non-finite weight before anything is stored
    snapshot = w.copy()  # the caller may edit its weight in place after this call
    _freeze(snapshot)
    _COMPILED[(name, bits)] = (snapshot, proj)
    return proj


def _linear_int(gq, proj: IntProjection, cost) -> np.ndarray:
    """Integer-kernel product of a site's codes and a compiled weight, in token order.

    The integer path's one dequantization: each token's int32 sums times
    alpha_w * alpha_x, for either weight width.
    """
    x = gq.codes.T  # kernel layout: [K, tokens]
    if proj.packed is None:  # 8-bit weights have no packed path: one byte-kernel product over all tokens
        acc = gemm_i8(proj.codes, x, cost)
    else:
        acc = gemm_mixed(proj.packed, x, gq.plan.bits, cost)
    out = acc.astype(np.float32)
    out *= np.float32(proj.scale) * gq.scale.T.astype(np.float32)
    return out.T


def forward_int(
    cfg: MicroTransformerConfig,
    params: dict | IntModel,
    tokens,
    calib: Calibration | None,
    cost: CostCounter | None = None,
) -> tuple[np.ndarray, list]:
    """Integer-kernel forward; returns (logits, per-layer bit plans).

    The forward of ``forward_tape`` on a constant tape, with the six
    projections run on quantized operands through the kernel dispatch.
    ``params`` is an ``IntModel`` from ``compile_int``, or float parameters.
    Float projection weights are compared bit for bit with the ones the last
    call compiled under the same name and width: an equal weight reuses that
    compiled form, and only a first or changed weight is quantized and packed.
    Embeddings, layernorms and biases are always the caller's. Uses frozen
    calibration scales.
    """
    model = params if isinstance(params, IntModel) else _compile(cfg, params, _compiled_projection)
    if model.weight_bits != cfg.weight_bits:
        raise ValueError(f"model compiled for {model.weight_bits}-bit weights, config has {cfg.weight_bits}")
    tape = gt.Tape(dtype=np.float32)
    tp = params_to_tape(tape, model.params, trainable=False)
    cost = cost if cost is not None else CostCounter()

    def project(gq, name):
        return _linear_int(gq, model.projections[name], cost)

    res = _forward(tape, tp, tokens, cfg, quantized=True, calib=calib, project=project)
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
    tape = gt.Tape(dtype=np.float32)  # records nothing: every window shares its constant leaves
    tp = params_to_tape(tape, params, trainable=False)
    ces = []
    for start in range(0, corpus.size - n, n):
        window = corpus[start : start + n + 1]
        res = forward_tape(
            tape, tp, window[:-1], cfg, quantized=quantized, training=False, calib=calib
        )
        ces.append(gt.cross_entropy(res.logits, window[1:]).item())
    return float(np.exp(np.mean(ces)))
