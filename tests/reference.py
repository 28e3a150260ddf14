"""References the tests hold the library to; no library module imports this one.

- Small tape ops (``mul``, ``log``, ``split_heads``, ``softmax_rows``, ...),
  each recorded through ``Tape.record`` as the library's fused nodes are. The
  chains of them that ``gradtape.attention``, ``gradtape.attend``,
  ``losses.entropy_loss_node`` and ``losses.distribution_loss_node`` replace
  are ``chain_attention``, ``chain_attend``, ``chain_entropy`` and
  ``chain_distribution``; the tests compare each fused node with its chain
  byte for byte, forward values and gradients.
- Numpy closed forms of the two auxiliary losses (``entropy_loss``,
  ``attention_alignment``, ``distribution_loss``).
- The ``LossReport`` recombination (``reassembled``, ``from_dict``), the
  grouped token layout (``gather_tokens``, ``scatter_tokens``) and plain
  ``round_half_away`` and ``dequantize``.
- The corpus walk with one ``choice`` call per token
  (``make_corpus_per_token``), which ``train.make_corpus`` draws in one batch.
"""

from __future__ import annotations

import numpy as np

from squant import gradtape as gt
from squant.losses import EPS, GaussianStats, LossReport
from squant.quant import QuantizedTensor, _round_magnitude
from squant.seeding import substream
from squant.token_bits import TokenBitPlan
from squant.train import SUCCESSOR_PROBS

# ---------------------------------------------------------------------------
# tape ops


def _check_shapes(op: str, a: gt.Tensor, b: gt.Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add_scalar(x: gt.Tensor, c: float) -> gt.Tensor:
    return x.tape.record(x.array + x.tape.dtype.type(c), (x,), lambda g: (g,), name="add_scalar")


def mul(a: gt.Tensor, b: gt.Tensor) -> gt.Tensor:
    _check_shapes("mul", a, b)
    return a.tape.record(a.array * b.array, (a, b), lambda g: (g * b.array, g * a.array), name="mul")


def neg(x: gt.Tensor) -> gt.Tensor:
    return x.tape.record(-x.array, (x,), lambda g: (-g,), name="neg")


def div(a: gt.Tensor, b: gt.Tensor) -> gt.Tensor:
    _check_shapes("div", a, b)

    def vjp(g):
        return g / b.array, -g * a.array / (b.array * b.array)

    return a.tape.record(a.array / b.array, (a, b), vjp, name="div")


def log(x: gt.Tensor) -> gt.Tensor:
    return x.tape.record(np.log(x.array), (x,), lambda g: (g / x.array,), name="log")


def sqrt(x: gt.Tensor) -> gt.Tensor:
    out = np.sqrt(x.array)
    return x.tape.record(out, (x,), lambda g: (g / (2.0 * out),), name="sqrt")


def sum_all(x: gt.Tensor) -> gt.Tensor:
    return x.tape.record(x.array.sum(dtype=x.tape.dtype), (x,), lambda g: (np.broadcast_to(g, x.shape),), name="sum")


def sum_in_order(x: gt.Tensor) -> gt.Tensor:
    """Left-to-right sum of a 1-D tensor, as a chain of ``add`` rounds it
    (numpy's pairwise ``sum`` rounds differently from 8 elements on)."""
    if x.array.ndim != 1:
        raise ValueError(f"sum_in_order needs a 1-D tensor, got {x.shape}")
    out = np.cumsum(x.array)[-1]
    return x.tape.record(out, (x,), lambda g: (np.broadcast_to(g, x.shape),), name="sum_in_order")


def sum_per(x: gt.Tensor) -> gt.Tensor:
    """[B, ...] -> [B]: the sum over all trailing axes, per leading index."""
    flat = x.array.reshape(len(x.array), -1)

    def vjp(g):
        return (np.broadcast_to(g[:, None], flat.shape).reshape(x.shape),)

    return x.tape.record(flat.sum(axis=1, dtype=x.tape.dtype), (x,), vjp, name="sum_per")


def variance_per(x: gt.Tensor) -> gt.Tensor:
    """[B, ...] -> [B]: population variance over all trailing axes, per leading index."""
    a = x.array.reshape(len(x.array), -1)
    mu = a.mean(axis=1, dtype=x.tape.dtype, keepdims=True)
    out = ((a - mu) ** 2).mean(axis=1, dtype=x.tape.dtype)

    def vjp(g):
        return ((g[:, None] * 2.0 * (a - mu) / a.shape[1]).reshape(x.shape),)

    return x.tape.record(out, (x,), vjp, name="variance")


def clamp_max(x: gt.Tensor, ceiling) -> gt.Tensor:
    """min(x, ceiling) for a constant ceiling of x's shape; no gradient at or above it."""
    c = np.asarray(ceiling)
    if c.shape != x.shape:
        raise ValueError(f"ceiling shape {c.shape} does not match {x.shape}")
    below = x.array < c
    out = np.where(below, x.array, c)
    return x.tape.record(out, (x,), lambda g: (np.where(below, g, 0.0),), name="clamp_max")


def split_heads(x: gt.Tensor, heads: int) -> gt.Tensor:
    """[T, D] -> [H, T, D/H]: head h owns the column block [h*dh, (h+1)*dh)."""
    a = gt._heads(x.array, heads)  # value and gradient in C order, as downstream BLAS products round by layout
    t, d = x.shape
    return x.tape.record(a, (x,), lambda g: (gt._merge(g, t, d),), name="split_heads")


def merge_heads(x: gt.Tensor) -> gt.Tensor:
    """[H, T, dh] -> [T, H*dh], the inverse of ``split_heads``."""
    if x.array.ndim != 3:
        raise ValueError(f"merge_heads needs an [H, T, dh] tensor, got {x.shape}")
    h, t, dh = x.shape
    return x.tape.record(gt._merge(x.array, t, h * dh), (x,), lambda g: (gt._heads(g, h),), name="merge_heads")


def concat(parts) -> gt.Tensor:
    """Join tensors of equal trailing shape along the leading axis."""
    for p in parts:
        if p.array.ndim == 0 or p.shape[1:] != parts[0].shape[1:]:
            raise ValueError("concat needs tensors with equal trailing shapes")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def vjp(g):
        return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return parts[0].tape.record(np.concatenate([p.array for p in parts]), tuple(parts), vjp, name="concat")


def softmax_rows(x: gt.Tensor, causal: bool = False) -> gt.Tensor:
    """Softmax over the last axis; causal maps must be square in the last two."""
    if x.array.ndim < 2:
        raise ValueError(f"softmax_rows needs a 2-D tensor, got {x.shape}")
    if causal and x.shape[-1] != x.shape[-2]:
        raise ValueError(f"causal softmax needs a square tensor, got {x.shape}")
    y = gt.softmax_forward(x.array, causal).astype(x.tape.dtype)

    def vjp(g):
        # masked entries have y == 0, so their gradient is exactly 0
        return ((g - (g * y).sum(axis=-1, keepdims=True)) * y,)

    return x.tape.record(y, (x,), vjp, name="softmax")


# ---------------------------------------------------------------------------
# the op chains the fused nodes replace


def chain_attention(q, k, heads, scale):
    """The op chain ``gt.attention`` replaces."""
    scores = gt.matmul(split_heads(q, heads), gt.transpose(split_heads(k, heads)))
    return softmax_rows(gt.mul_scalar(scores, scale), causal=True)


def chain_attend(probs, v):
    """The op chain ``gt.attend`` replaces."""
    return merge_heads(gt.matmul(probs, split_heads(v, probs.shape[0])))


def chain_entropy(q_nodes, k_nodes, heads, eps=EPS, ceiling=None):
    """The op chain ``entropy_loss_node`` replaces."""
    var_q, var_k = (
        variance_per(concat([split_heads(n, heads) for n in nodes])) for nodes in (q_nodes, k_nodes)
    )
    terms = log(add_scalar(mul(var_q, var_k), 1.0))
    if ceiling is not None:
        terms = clamp_max(terms, np.reshape(ceiling, terms.shape))
    shape = (len(q_nodes), heads)
    stats = GaussianStats(var_q=var_q.array.reshape(shape), var_k=var_k.array.reshape(shape))
    return neg(log(add_scalar(sum_in_order(terms), eps))), stats


def chain_distribution(attn_nodes, teacher_probs, eps=EPS, literal_sign=False):
    """The op chain ``distribution_loss_node`` replaces."""
    maps = concat(attn_nodes)
    tape = maps.tape
    target = np.asarray(teacher_probs, dtype=np.float64).reshape(maps.shape).astype(tape.dtype)
    flat = target.reshape(len(target), 1, -1)
    t_norm = np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(-1)
    num = sum_per(mul(maps, tape.constant(target)))
    qq = sqrt(sum_per(mul(maps, maps)))
    total = sum_in_order(div(num, mul(qq, tape.constant(t_norm))))
    node = log(add_scalar(total, eps))
    return (node if literal_sign else neg(node)), float(total.array)


# ---------------------------------------------------------------------------
# closed forms of the auxiliary losses


def entropy_loss(stats: GaussianStats, eps: float = EPS) -> float:
    if eps <= 0:
        raise ValueError("eps must be positive")
    inner = np.sum(np.log(1.0 + stats.var_q * stats.var_k))
    return float(-np.log(eps + inner))


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


def distribution_loss(attn_q: np.ndarray, attn_f: np.ndarray, eps: float = EPS, literal_sign: bool = False) -> float:
    s = attention_alignment(attn_q, attn_f)
    value = np.log(eps + s)
    return float(value if literal_sign else -value)


# ---------------------------------------------------------------------------
# loss reports


def reassembled(report: LossReport) -> float:
    """Recombine a report's parts in the same float32 order the tape used."""
    f = np.float32
    t1 = f(report.ce) * f(1.0 - report.gamma)
    t2 = f(report.kl) * f(report.gamma * report.tau * report.tau)
    distill = t1 + t2
    out = (distill + f(report.entropy_loss) * f(report.r_E)) + f(report.distribution_loss) * f(report.r_D)
    return float(out)


def from_dict(d: dict) -> LossReport:
    """The ``LossReport`` whose ``to_dict`` is ``d``."""
    return LossReport(**{k: float(v) for k, v in d.items()})


# ---------------------------------------------------------------------------
# token groups and plain quantization


def gather_tokens(x: np.ndarray, plan: TokenBitPlan) -> tuple[np.ndarray, np.ndarray]:
    """The 8-bit and the 4-bit tokens' rows of x, each in token order."""
    return x[plan.hi], x[plan.lo]


def scatter_tokens(hi: np.ndarray, lo: np.ndarray, plan: TokenBitPlan) -> np.ndarray:
    """Inverse of ``gather_tokens``: each group's rows back at their positions."""
    out = np.empty((plan.bits.size,) + hi.shape[1:], dtype=np.result_type(hi, lo))
    out[plan.hi] = hi
    out[plan.lo] = lo
    return out


def round_half_away(t: np.ndarray) -> np.ndarray:
    """Round to nearest, ties away from zero (np.round ties to even), by the
    magnitude rounding ``quant.round_clip`` uses."""
    t = np.asarray(t)
    r = np.abs(t, out=np.empty(t.shape, np.result_type(t, 0.5)))
    return _round_magnitude(r, t)


def dequantize(q: QuantizedTensor, dtype=np.float32) -> np.ndarray:
    return q.ints.astype(dtype) * np.dtype(dtype).type(q.scale)


# ---------------------------------------------------------------------------
# corpus


def make_corpus_per_token(seed: int, vocab: int, length: int) -> np.ndarray:
    """``train.make_corpus`` as a walk that draws each successor pick on its own."""
    if vocab < 4:
        raise ValueError("vocab must be at least 4 for the successor table")
    trans_rng = substream(seed, "corpus.transitions")
    successors = np.stack(
        [trans_rng.choice(vocab, size=4, replace=False) for _ in range(vocab)]
    )
    walk = substream(seed, "corpus.walk")
    probs = np.array(SUCCESSOR_PROBS)
    out = np.empty(length, dtype=np.int64)
    state = int(walk.integers(vocab))
    for i in range(length):
        out[i] = state
        state = int(successors[state][walk.choice(4, p=probs)])
    return out
