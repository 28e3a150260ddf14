"""Training objectives: soft distillation plus two quantization-shaping terms.

- Entropy term: -log(eps + sum over layer-heads of log(1 + var_q * var_k)),
  pushing quantized query/key variances up (maximum-entropy direction for
  Gaussian-shaped activations). Unanchored, it has no finite optimum, so the
  QAT loop anchors it per head at the float teacher's value on the same
  window: a head that reaches its ceiling contributes the ceiling as a
  constant, restoring what quantization removed without sharpening
  attention past the teacher.
- Distribution term: cosine alignment between the student's attention maps
  and the full-precision teacher's. The default convention contributes
  -log(eps + sum of cosines) so that minimizing the total raises similarity;
  ``literal_sign=True`` keeps the positive-log form instead.
- Distillation: (1 - gamma) * CE + gamma * tau^2 * KL at temperature tau.

Total: distill + r_E * entropy + r_D * distribution, defaults r_E = 0.5,
r_D = 1.0. Natural logs throughout; eps = 1e-8 guards the outer logs.

The entropy and distribution terms are each one tape node, recorded through
``Tape.record``, with the bits of the chain of ``gradtape`` ops each replaces
(forward values and every gradient).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import gradtape as gt

EPS = 1e-8

__all__ = [
    "EPS",
    "GaussianStats",
    "LossReport",
    "attention_alignment",
    "distill_loss_node",
    "distribution_loss",
    "distribution_loss_node",
    "entropy_ceiling",
    "entropy_loss",
    "entropy_loss_node",
    "qk_stats",
    "total_loss_node",
]


@dataclass
class GaussianStats:
    """Population variances of query and key entries, per (layer, head)."""

    var_q: np.ndarray
    var_k: np.ndarray

    def __post_init__(self):
        self.var_q = np.asarray(self.var_q, dtype=np.float64)
        self.var_k = np.asarray(self.var_k, dtype=np.float64)
        if self.var_q.shape != self.var_k.shape:
            raise ValueError("var_q and var_k must have matching [L,H] shapes")
        if (self.var_q < 0).any() or (self.var_k < 0).any():
            raise ValueError("variances cannot be negative")


@dataclass
class LossReport:
    """Per-step scalar record; total reassembles exactly from the parts."""

    ce: float
    kl: float
    entropy_loss: float
    distribution_loss: float
    distill: float
    total: float
    r_E: float
    r_D: float
    gamma: float
    tau: float

    def reassembled(self) -> float:
        """Recombine the parts in the same float32 order the tape used."""
        f = np.float32
        t1 = f(self.ce) * f(1.0 - self.gamma)
        t2 = f(self.kl) * f(self.gamma * self.tau * self.tau)
        distill = t1 + t2
        out = (distill + f(self.entropy_loss) * f(self.r_E)) + f(
            self.distribution_loss
        ) * f(self.r_D)
        return float(out)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LossReport":
        return cls(**{k: float(v) for k, v in d.items()})


def qk_stats(q: np.ndarray, k: np.ndarray) -> GaussianStats:
    """Per layer-head population variance over all token-by-dim entries."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape or q.ndim != 4:
        raise ValueError(f"q and k must both be [L,H,N,d], got {q.shape} and {k.shape}")
    return GaussianStats(var_q=q.var(axis=(2, 3)), var_k=k.var(axis=(2, 3)))


def entropy_loss(stats: GaussianStats, eps: float = EPS) -> float:
    if eps <= 0:
        raise ValueError("eps must be positive")
    inner = np.sum(np.log(1.0 + stats.var_q * stats.var_k))
    return float(-np.log(eps + inner))


def entropy_ceiling(q_arrays: list, k_arrays: list, heads: int) -> np.ndarray:
    """Per (layer, head) log(1 + var_q * var_k) of detached [N, d] q/k arrays.

    Head h owns the column block [h*dh, (h+1)*dh), as in ``entropy_loss_node``.
    Taken from the float teacher, this is the [L, H] ceiling that node accepts;
    it is computed in the arrays' own dtype, the precision of the tape term it
    is compared against.
    """
    rows = []
    for q, k in zip(q_arrays, k_arrays):
        blocks = zip(gt._head_view(q, heads), gt._head_view(k, heads))
        rows.append([np.log1p(qb.var() * kb.var()) for qb, kb in blocks])
    return np.array(rows)


def attention_alignment(attn_q: np.ndarray, attn_f: np.ndarray) -> float:
    """Sum over layer-heads of cosine similarity between flattened maps."""
    attn_q = np.asarray(attn_q, dtype=np.float64)
    attn_f = np.asarray(attn_f, dtype=np.float64)
    if attn_q.shape != attn_f.shape or attn_q.ndim != 4:
        raise ValueError(f"maps must share [L,H,N,N] shape, got {attn_q.shape} vs {attn_f.shape}")
    l, h = attn_q.shape[:2]
    aq = attn_q.reshape(l * h, -1)
    af = attn_f.reshape(l * h, -1)
    num = (aq * af).sum(axis=1)
    den = np.linalg.norm(aq, axis=1) * np.linalg.norm(af, axis=1)
    return float((num / den).sum())


def distribution_loss(
    attn_q: np.ndarray, attn_f: np.ndarray, eps: float = EPS, literal_sign: bool = False
) -> float:
    s = attention_alignment(attn_q, attn_f)
    value = np.log(eps + s)
    return float(value if literal_sign else -value)


# ---------------------------------------------------------------------------
# tape builders


def _wrap_term(term: str, build):
    try:
        return build()
    except ValueError as e:
        raise ValueError(f"{term} term failed: {e}") from e


def entropy_loss_node(
    q_nodes: list,
    k_nodes: list,
    heads: int,
    eps: float = EPS,
    ceiling: np.ndarray | None = None,
) -> tuple[gt.Tensor, GaussianStats]:
    """Entropy term over per-layer [N, d] quantized q/k tape tensors, as one node.

    Head h owns the column block [h*dh, (h+1)*dh); variances are taken over
    that whole block, one per (layer, head) over the stacked heads. Also
    returns the detached variance values.

    ``ceiling`` ([L, H], see ``entropy_ceiling``) anchors each head: where
    its log(1 + var_q * var_k) reaches the ceiling, the head contributes the
    ceiling as a constant and sends no gradient to its q/k. Heads below it,
    and every head when ``ceiling`` is None, are unchanged.

    The node has the bits of the op chain ``split_heads``, ``concat``,
    ``variance_per``, ``mul``, ``add_scalar``, ``log``, ``clamp_max``,
    ``sum_in_order``, ``add_scalar``, ``log``, ``neg``: the same arithmetic in
    the same order, each gradient cast to the tape dtype where that chain's
    tape would cast it.
    """
    if len(q_nodes) != len(k_nodes) or not q_nodes:
        raise ValueError("need matching non-empty q and k node lists")

    def build():
        nodes = list(q_nodes) + list(k_nodes)
        shape = nodes[0].shape
        if len(shape) != 2 or shape[1] % heads or any(n.shape != shape for n in nodes):
            raise ValueError(f"q and k need one [N, d] shape with d divisible by {heads} heads")
        t, d = shape
        layers = len(q_nodes)
        tape = nodes[0].tape
        dt = tape.dtype

        def cast(a):
            return np.asarray(a, dtype=dt)

        def rows(group):  # [L*H, N*dh]: each (layer, head) block in split_heads order
            return np.concatenate([gt._head_view(n.array, heads) for n in group]).reshape(layers * heads, -1)

        centered, var = [], []
        for a in (rows(q_nodes), rows(k_nodes)):
            c = a - a.mean(axis=1, dtype=dt, keepdims=True)
            centered.append(c)
            var.append((c**2).mean(axis=1, dtype=dt))
        var_q, var_k = var
        pre = var_q * var_k + dt.type(1.0)
        terms = np.log(pre)
        if ceiling is not None:
            cap = np.reshape(ceiling, terms.shape)
            below = terms < cap
            terms = cast(np.where(below, terms, cap))
        inner = np.cumsum(terms)[-1] + dt.type(eps)  # summed left to right over (layer, head)

        def vjp(g):
            g = cast(cast(-g) / inner)
            g = cast(np.broadcast_to(g, terms.shape))
            if ceiling is not None:
                g = cast(np.where(below, g, 0.0))
            g = cast(g / pre)
            grads = []
            for dvar, c in ((cast(g * var_k), centered[0]), (cast(g * var_q), centered[1])):
                full = cast(dvar[:, None] * 2.0 * c / c.shape[1]).reshape(layers, heads, t, d // heads)
                grads += [gt._merge(full[l], t, d) for l in range(layers)]
            return tuple(None if n.constant else grad for n, grad in zip(nodes, grads))

        node = tape.record(-np.log(inner), nodes, vjp, name="entropy")
        return node, GaussianStats(var_q=var_q.reshape(layers, heads), var_k=var_k.reshape(layers, heads))

    return _wrap_term("entropy", build)


def distribution_loss_node(
    attn_nodes: list,
    teacher_probs: np.ndarray,
    eps: float = EPS,
    literal_sign: bool = False,
) -> tuple[gt.Tensor, float]:
    """Alignment term over per-layer [H, N, N] student attention nodes, as one node.

    ``teacher_probs`` is the detached [L, H, N, N] teacher map stack. Returns
    the loss node and the detached cosine sum.

    The node has the bits of the op chain ``concat``, ``mul`` and ``sum_per``
    (numerator and squared norm), ``sqrt``, ``mul`` by the teacher norms,
    ``div``, ``sum_in_order``, ``add_scalar``, ``log`` and ``neg``; the maps'
    three gradients add in that chain's order,
    (g_norm * maps + g_norm * maps) + g_num * target.
    """
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)

    def build():
        if not attn_nodes:
            raise ValueError("no attention nodes given")
        shape = attn_nodes[0].shape
        if teacher_probs.shape != (len(attn_nodes),) + shape or any(n.shape != shape for n in attn_nodes):
            raise ValueError(f"map shape {shape} differs from teacher {teacher_probs.shape}")
        tape = attn_nodes[0].tape
        dt = tape.dtype

        def cast(a):
            return np.asarray(a, dtype=dt)

        maps = np.concatenate([n.array for n in attn_nodes])
        target = teacher_probs.reshape(maps.shape).astype(dt)
        flat = target.reshape(len(target), 1, -1)
        # per-map BLAS dot, the one np.linalg.norm takes
        t_norm = np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(-1)
        per_map = (len(maps), -1)
        num = (maps * target).reshape(per_map).sum(axis=1, dtype=dt)
        norm = np.sqrt((maps * maps).reshape(per_map).sum(axis=1, dtype=dt))
        den = norm * t_norm
        total = np.cumsum(num / den)[-1]
        shifted = total + dt.type(eps)
        value = np.log(shifted)

        def vjp(g):
            if not literal_sign:
                g = cast(-g)
            g = cast(np.broadcast_to(cast(g / shifted), num.shape))
            g_num = cast(g / den)
            g_norm = cast(cast(cast(-g * num / (den * den)) * t_norm) / (2.0 * norm))
            g_maps = (cast(g_norm[:, None, None] * maps) + cast(g_norm[:, None, None] * maps)) + cast(
                g_num[:, None, None] * target
            )
            h = shape[0]
            return tuple(None if n.constant else g_maps[l * h : (l + 1) * h] for l, n in enumerate(attn_nodes))

        node = tape.record(value if literal_sign else -value, attn_nodes, vjp, name="distribution")
        return node, float(total)

    return _wrap_term("distribution", build)


def distill_loss_node(
    student_logits: gt.Tensor,
    teacher_logits: np.ndarray,
    targets: np.ndarray,
    gamma: float,
    tau: float,
) -> tuple[gt.Tensor, gt.Tensor, gt.Tensor]:
    """(1-gamma)*CE + gamma*tau^2*KL; returns (distill, ce, kl) nodes."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0,1], got {gamma}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")

    def build():
        ce = gt.cross_entropy(student_logits, targets)
        kl = gt.kl_divergence(student_logits, teacher_logits, tau=tau)
        distill = gt.add(gt.mul_scalar(ce, 1.0 - gamma), gt.mul_scalar(kl, gamma * tau * tau))
        return distill, ce, kl

    return _wrap_term("distill", build)


def total_loss_node(
    distill: gt.Tensor,
    ce: gt.Tensor,
    kl: gt.Tensor,
    entropy: gt.Tensor,
    distribution: gt.Tensor,
    r_E: float,
    r_D: float,
    gamma: float,
    tau: float,
) -> tuple[gt.Tensor, LossReport]:
    """Weighted total plus the serializable per-step report."""

    def build():
        return gt.add(
            gt.add(distill, gt.mul_scalar(entropy, r_E)), gt.mul_scalar(distribution, r_D)
        )

    total = _wrap_term("total", build)
    report = LossReport(
        ce=float(ce.array),
        kl=float(kl.array),
        entropy_loss=float(entropy.array),
        distribution_loss=float(distribution.array),
        distill=float(distill.array),
        total=float(total.array),
        r_E=r_E,
        r_D=r_D,
        gamma=gamma,
        tau=tau,
    )
    return total, report
