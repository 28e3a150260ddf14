"""Reverse-mode automatic differentiation over dense numpy arrays.

Deliberately small: it holds the ops a micro decoder-only transformer runs
(matmul, transpose, layernorm, gelu, cross entropy, temperature-scaled KL,
row gathers, add and scalar multiply) and no others. Matmul, transpose and
the row softmax (``softmax_forward``) also take leading batch axes; only the
tests' reference chains use those axes, and only they call
``softmax_forward``. Attention is two fused nodes
over all heads at once: ``attention`` gives the causal [H, T, T]
probabilities of q and k, ``attend`` the [T, D] context of those
probabilities and v. Each records one node with the bits of the
split/transpose/matmul/scale/softmax/merge chain it replaces; that chain and
its small ops live in ``tests/reference.py``. ``head_view``, ``head_split``
and ``head_merge`` are the [T, D] <-> [H, T, D/H] head layout that the
losses and the CLI read as well. Values are float32 by
default; a tape can be built in float64 when tight finite-difference checks
are wanted.

Nodes append to the tape in creation order, so the record is topologically
sorted by construction and the backward sweep is a single reverse pass.
Constants are folded: a node whose parents are all constants is a constant
itself, and the tape records neither, so a tape of constants holds no nodes.

Every tensor holds its tape, so a recording tape is a reference cycle (tape
-> node -> tape) until its owner clears the record (``tape.nodes.clear()``)
after the update; the training loops do that when each step ends, so a step
frees by reference counting and leaves nothing for the cyclic collector.
The record stays intact after ``backward`` for callers that read it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "add",
    "attend",
    "attention",
    "cross_entropy",
    "gather_rows",
    "gelu",
    "head_merge",
    "head_split",
    "head_view",
    "kl_divergence",
    "layernorm",
    "matmul",
    "mul_scalar",
    "softmax_forward",
    "transpose",
]


class Tensor:
    """A dense value recorded on a :class:`Tape`.

    Carries the forward array plus the reverse-sweep links (parent tensors and
    a vector-Jacobian callback). Arrays are immutable once recorded: every op
    allocates its output, nothing writes in place. Construction rejects NaN
    and Inf so numerical blowups surface at the op that produced them.
    A constant, leaf or folded, keeps no parents and is not recorded.
    """

    __slots__ = ("tape", "index", "array", "parents", "vjp", "grad", "name", "constant")

    def __init__(
        self,
        tape: "Tape",
        array: np.ndarray,
        parents: Sequence["Tensor"] = (),
        vjp: Callable[[np.ndarray], tuple] | None = None,
        name: str | None = None,
        constant: bool = False,
    ):
        # asarray with order="C" keeps 0-d scalars 0-d (ascontiguousarray would
        # promote them to shape (1,))
        array = np.asarray(array, dtype=tape.dtype, order="C")
        if not np.isfinite(array).all():
            raise ValueError(f"non-finite values in tensor {name or '<anon>'}")
        if parents and all(p.constant for p in parents):
            constant, parents, vjp = True, (), None
        self.tape = tape
        self.array = array
        self.parents = tuple(parents)
        self.vjp = vjp
        self.grad: np.ndarray | None = None
        self.name = name
        self.constant = constant
        self.index = -1
        if not constant:
            self.index = len(tape.nodes)
            tape.nodes.append(self)

    @property
    def shape(self) -> tuple:
        return self.array.shape

    @property
    def data(self) -> np.ndarray:
        """Row-major value array (read-only view)."""
        view = self.array.view()
        view.flags.writeable = False
        return view

    def item(self) -> float:
        if self.array.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.array.reshape(()))

    def __repr__(self) -> str:
        label = self.name or "tensor"
        return f"<{label} shape={self.shape} node={self.index}>"


class Tape:
    """Ordered operation record for one forward/backward pass.

    While ``nodes`` holds a tensor, the tape and its tensors form a reference
    cycle; an owner that records clears ``nodes`` once it has read the
    gradients. A single tape is not thread-safe; distinct tapes are fully
    independent.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.nodes: list[Tensor] = []

    def parameter(self, array, name: str | None = None) -> Tensor:
        """Record a leaf that receives a gradient."""
        return Tensor(self, array, name=name)

    def constant(self, array, name: str | None = None) -> Tensor:
        """A leaf excluded from gradient accumulation (not recorded)."""
        return Tensor(self, array, name=name, constant=True)

    def record(
        self,
        array: np.ndarray,
        parents: Sequence[Tensor],
        vjp: Callable[[np.ndarray], tuple],
        name: str | None = None,
    ) -> Tensor:
        """Record a custom op node; ``vjp(grad_out)`` must return one gradient
        (or None) per parent. Used by the quantizer and the losses to register
        fused nodes without this module knowing about them, and by
        ``tests/reference.py`` for the op chains those nodes replace."""
        for p in parents:
            _check_tape(self, p)
        return Tensor(self, array, parents=parents, vjp=vjp, name=name)

    def backward(self, root: Tensor) -> None:
        """Populate ``.grad`` on every node reachable from the scalar root.

        Deterministic: a fixed reverse traversal with a fixed accumulation
        order, so repeated calls on identical inputs give bit-identical
        gradients.
        """
        _check_tape(self, root)
        if root.array.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {root.shape}")
        for node in self.nodes:
            node.grad = None
        root.grad = np.ones_like(root.array)
        for node in reversed(self.nodes[: root.index + 1]):
            if node.grad is None or node.vjp is None:
                continue
            parent_grads = node.vjp(node.grad)
            for parent, pg in zip(node.parents, parent_grads):
                if pg is None or parent.constant:
                    continue
                if parent.grad is None:
                    parent.grad = np.array(pg, dtype=self.dtype)
                else:
                    parent.grad = parent.grad + np.asarray(pg, dtype=self.dtype)


def _check_tape(tape: Tape, *tensors: Tensor) -> None:
    for t in tensors:
        if t.tape is not tape:
            raise ValueError("tensors recorded on different tapes cannot mix")


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    _check_tape(tape, *tensors[1:])
    return tape


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(tape, a.array + b.array, (a, b), lambda g: (g, g), name="add")


def mul_scalar(x: Tensor, c: float) -> Tensor:
    c = x.tape.dtype.type(c)
    return Tensor(x.tape, x.array * c, (x,), lambda g: (g * c,), name="mul_scalar")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximate GELU."""
    a = x.array
    # _GELU_C * (a + 0.044715 * a * a * a), then 0.5 * a * (1.0 + t), in place
    t = 0.044715 * a
    t *= a
    t *= a
    t += a
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * a
    if x.constant:  # a constant records no backward, so t may become 1.0 + t in place
        t += 1.0
        y *= t
    else:
        y *= 1.0 + t

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * a * a)
        return (g * (0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * dinner),)

    return Tensor(x.tape, y, (x,), vjp, name="gelu")


# ---------------------------------------------------------------------------
# linear algebra and indexing


def _t(a: np.ndarray) -> np.ndarray:
    """View with the last two axes swapped (``a.T`` for 2-D arrays)."""
    return np.swapaxes(a, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes, batched over equal leading axes.

    dA = g @ B^T, dB = A^T @ g. Each batch entry runs the BLAS call the 2-D
    product of that entry runs, so batching does not change the bits.
    """
    tape = _same_tape(a, b)
    if a.array.ndim < 2 or a.array.ndim != b.array.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul needs 2-D operands or equal batch axes, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims differ: {a.shape} x {b.shape}")

    def vjp(g):
        return (g @ _t(b.array), _t(a.array) @ g)

    return Tensor(tape, a.array @ b.array, (a, b), vjp, name="matmul")


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.array.ndim < 2:
        raise ValueError(f"transpose needs a 2-D tensor, got {x.shape}")
    return Tensor(x.tape, _t(x.array).copy(), (x,), lambda g: (_t(g),), name="transpose")


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """table[ids]; the backward scatter-adds into the table rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("gather_rows expects a 1-D id array")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"row id out of range for table with {table.shape[0]} rows")

    def vjp(g):
        full = np.zeros(table.shape, dtype=table.tape.dtype)
        np.add.at(full, ids, g)
        return (full,)

    return Tensor(table.tape, table.array[ids].copy(), (table,), vjp, name="gather_rows")


# ---------------------------------------------------------------------------
# fused network ops


@lru_cache(maxsize=64)
def _causal_mask(rows: int, cols: int) -> np.ndarray:
    """Read-only [rows, cols] mask of the entries a causal softmax drops, true where j > i; built once per shape."""
    mask = np.triu(np.ones((rows, cols), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def softmax_forward(x: np.ndarray, causal: bool = False) -> np.ndarray:
    """Numerically stabilized row softmax; causal masks j > i to exact zero. x is left as it is."""
    return _softmax_in_place(np.array(x), causal)


def _softmax_in_place(e: np.ndarray, causal: bool) -> np.ndarray:
    """``softmax_forward`` of e, written over e."""
    if causal:
        np.copyto(e, -np.inf, where=_causal_mask(*e.shape[-2:]))  # exp(-inf) is exactly 0
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def attention(q: Tensor, k: Tensor, heads: int, scale: float) -> Tensor:
    """Causal [H, T, T] probabilities softmax(scale * q_h @ k_h^T) of [T, D] q and k, as one node.

    The bits of ``softmax_rows(mul_scalar(matmul(split_heads(q),
    transpose(split_heads(k))), scale), causal=True)`` (``chain_attention``
    in ``tests/reference.py``): the same C-ordered operands go to the same
    BLAS calls, each later step writes over the scores in place, and each
    gradient is cast to the tape dtype where that chain's tape would cast it.
    """
    tape = _same_tape(q, k)
    if q.shape != k.shape:
        raise ValueError(f"attention needs q and k of one shape, got {q.shape} and {k.shape}")
    qh, kh = (head_split(n.array, heads) for n in (q, k))
    kht = _t(kh).copy()
    c = tape.dtype.type(scale)
    y = qh @ kht
    y *= c
    _softmax_in_place(y, causal=True)
    t, d = q.shape

    def vjp(g):
        gs = _cast(tape, _cast(tape, (g - (g * y).sum(axis=-1, keepdims=True)) * y) * c)
        dq = head_merge(_cast(tape, gs @ _t(kht)), t, d)
        dk = head_merge(_t(_cast(tape, _t(qh) @ gs)), t, d)
        return dq, dk

    return Tensor(tape, y, (q, k), vjp, name="attention")


def attend(probs: Tensor, v: Tensor) -> Tensor:
    """[T, D] context of [H, T, T] probabilities and [T, D] values, as one node.

    The bits of ``merge_heads(matmul(probs, split_heads(v)))``
    (``chain_attend`` in ``tests/reference.py``).
    """
    tape = _same_tape(probs, v)
    if probs.array.ndim != 3 or v.array.ndim != 2 or probs.shape[1:] != (v.shape[0],) * 2:
        raise ValueError(f"attend needs [H, T, T] probabilities and [T, D] values, got {probs.shape} and {v.shape}")
    h = probs.shape[0]
    vh = head_split(v.array, h)
    t, d = v.shape

    def vjp(g):
        gh = head_split(g, h)
        return _cast(tape, gh @ _t(vh)), head_merge(_cast(tape, _t(probs.array) @ gh), t, d)

    return Tensor(tape, head_merge(probs.array @ vh, t, d), (probs, v), vjp, name="attend")


def head_view(a: np.ndarray, heads: int) -> np.ndarray:
    """[T, D] -> [H, T, D/H] view, no copy: head h owns the column block [h*dh, (h+1)*dh)."""
    if a.ndim != 2 or a.shape[1] % heads:
        raise ValueError(f"width of {a.shape} not divisible by {heads} heads")
    t, d = a.shape
    return a.reshape(t, heads, d // heads).transpose(1, 0, 2)


def head_split(a: np.ndarray, heads: int) -> np.ndarray:
    """The C-ordered [H, T, D/H] array of [T, D] values ``a``, the operand layout of every per-head product."""
    return np.ascontiguousarray(head_view(a, heads))


def head_merge(a: np.ndarray, t: int, d: int) -> np.ndarray:
    """[H, T, dh] -> C-ordered [T, H*dh]."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(t, d)


def _cast(tape: Tape, a) -> np.ndarray:
    """``a`` in the tape dtype, as ``Tape.backward`` stores a gradient."""
    return np.asarray(a, dtype=tape.dtype)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization with population variance, then affine."""
    tape = _same_tape(x, gain, bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"gain/bias must be shape ({d},), got {gain.shape}/{bias.shape}")
    a = x.array
    centered = a - a.mean(axis=-1, keepdims=True)
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + tape.dtype.type(eps))
    xhat = centered * inv
    y = gain.array * xhat
    y += bias.array

    def vjp(g):
        dxhat = g * gain.array
        dvar = (dxhat * centered * -0.5 * inv**3).sum(axis=-1, keepdims=True)
        dmu = (-dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 * centered).mean(
            axis=-1, keepdims=True
        )
        dx = dxhat * inv + dvar * 2.0 * centered / d + dmu / d
        axes = tuple(range(a.ndim - 1))
        return (dx, (g * xhat).sum(axis=axes), g.sum(axis=axes))

    return Tensor(tape, y, (x, gain, bias), vjp, name="layernorm")


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.array.ndim != 2:
        raise ValueError(f"cross_entropy needs [T, V] logits, got {logits.shape}")
    t, v = logits.shape
    if targets.shape != (t,):
        raise ValueError(f"targets shape {targets.shape} does not match {t} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"target id out of range for vocab {v}")
    logp = _log_softmax(logits.array)
    nll = -logp[np.arange(t), targets]

    def vjp(g):
        p = np.exp(logp)
        p[np.arange(t), targets] -= 1.0
        return (g * p / t,)

    return Tensor(logits.tape, np.asarray(nll.mean(dtype=logits.tape.dtype)), (logits,), vjp, name="cross_entropy")


def kl_divergence(student_logits: Tensor, teacher_logits: np.ndarray, tau: float = 1.0) -> Tensor:
    """KL(softmax(teacher/tau) || softmax(student/tau)), averaged over rows.

    The teacher side is a plain array (a frozen teacher) and gets no gradient.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    tape = student_logits.tape
    t_arr = np.asarray(teacher_logits, dtype=tape.dtype)
    if t_arr.shape != student_logits.shape:
        raise ValueError(f"logit shapes differ: {student_logits.shape} vs {t_arr.shape}")
    rows = student_logits.shape[0]
    log_pt = _log_softmax(t_arr / tau)
    log_ps = _log_softmax(student_logits.array / tau)
    pt = np.exp(log_pt)
    row_kl = (pt * (log_pt - log_ps)).sum(axis=-1)

    def vjp(g):
        return (g * (np.exp(log_ps) - pt) / (tau * rows),)

    return Tensor(tape, np.asarray(row_kl.mean(dtype=tape.dtype)), (student_logits,), vjp, name="kl_divergence")
