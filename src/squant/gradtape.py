"""Reverse-mode automatic differentiation over dense numpy arrays.

Deliberately small: matmul, row softmax with causal masking, layernorm,
cross entropy, temperature-scaled KL, and the elementwise/reduction glue a
micro decoder-only transformer needs. Matmul, transpose and softmax also take
leading batch axes, so attention runs over all heads as one op on an
[H, T, T] node. Values are float32 by default; a tape can be built in float64
when tight finite-difference checks are wanted.

Nodes append to the tape in creation order, so the record is topologically
sorted by construction and the backward sweep is a single reverse pass.
Constants are folded: a node whose parents are all constants is a constant
itself, and the tape records neither, so a tape of constants holds no nodes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "add",
    "add_bias",
    "add_scalar",
    "clamp_max",
    "concat",
    "cross_entropy",
    "div",
    "exp",
    "gather_rows",
    "gelu",
    "kl_divergence",
    "layernorm",
    "log",
    "matmul",
    "mean_all",
    "merge_heads",
    "mul",
    "mul_scalar",
    "neg",
    "softmax_rows",
    "softmax_forward",
    "split_heads",
    "sqrt",
    "sub",
    "sum_all",
    "sum_in_order",
    "sum_per",
    "transpose",
    "variance_per",
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
        if not np.all(np.isfinite(array)):
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

    # Operator sugar; scalars mean python floats, tensors must be same-shape.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(neg(self), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return mul_scalar(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return mul_scalar(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)


class Tape:
    """Ordered operation record for one forward/backward pass.

    A single tape is not thread-safe; distinct tapes are fully independent.
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
        (or None) per parent. Used by the quantizer to register nodes with
        straight-through gradients without this module knowing about them."""
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
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(tape, a.array + b.array, (a, b), lambda g: (g, g), name="add")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., D] + b[D]; the bias gradient sums over leading axes."""
    tape = _same_tape(x, b)
    if b.array.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ValueError(f"bias shape {b.shape} does not match {x.shape}")
    axes = tuple(range(x.array.ndim - 1))
    return Tensor(tape, x.array + b.array, (x, b), lambda g: (g, g.sum(axis=axes)), name="add_bias")


def add_scalar(x: Tensor, c: float) -> Tensor:
    return Tensor(x.tape, x.array + x.tape.dtype.type(c), (x,), lambda g: (g,), name="add_scalar")


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(tape, a.array - b.array, (a, b), lambda g: (g, -g), name="sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(tape, a.array * b.array, (a, b), lambda g: (g * b.array, g * a.array), name="mul")


def mul_scalar(x: Tensor, c: float) -> Tensor:
    c = x.tape.dtype.type(c)
    return Tensor(x.tape, x.array * c, (x,), lambda g: (g * c,), name="mul_scalar")


def neg(x: Tensor) -> Tensor:
    return Tensor(x.tape, -x.array, (x,), lambda g: (-g,), name="neg")


def div(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"div shape mismatch: {a.shape} vs {b.shape}")
    out = a.array / b.array
    return Tensor(
        tape, out, (a, b), lambda g: (g / b.array, -g * a.array / (b.array * b.array)), name="div"
    )


def log(x: Tensor) -> Tensor:
    return Tensor(x.tape, np.log(x.array), (x,), lambda g: (g / x.array,), name="log")


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.array)
    return Tensor(x.tape, out, (x,), lambda g: (g * out,), name="exp")


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.array)
    return Tensor(x.tape, out, (x,), lambda g: (g / (2.0 * out),), name="sqrt")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximate GELU."""
    a = x.array
    inner = _GELU_C * (a + 0.044715 * a * a * a)
    t = np.tanh(inner)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * a * a)
        return (g * (0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * dinner),)

    return Tensor(x.tape, 0.5 * a * (1.0 + t), (x,), vjp, name="gelu")


# ---------------------------------------------------------------------------
# reductions


def sum_all(x: Tensor) -> Tensor:
    return Tensor(
        x.tape,
        x.array.sum(dtype=x.tape.dtype),
        (x,),
        lambda g: (np.broadcast_to(g, x.shape),),
        name="sum",
    )


def mean_all(x: Tensor) -> Tensor:
    n = x.array.size
    return Tensor(
        x.tape,
        x.array.mean(dtype=x.tape.dtype),
        (x,),
        lambda g: (np.broadcast_to(g / n, x.shape),),
        name="mean",
    )


def sum_in_order(x: Tensor) -> Tensor:
    """Left-to-right sum of a 1-D tensor, as a chain of ``add`` rounds it
    (numpy's pairwise ``sum`` rounds differently from 8 elements on)."""
    if x.array.ndim != 1:
        raise ValueError(f"sum_in_order needs a 1-D tensor, got {x.shape}")
    out = np.cumsum(x.array)[-1]
    return Tensor(x.tape, out, (x,), lambda g: (np.broadcast_to(g, x.shape),), name="sum_in_order")


def sum_per(x: Tensor) -> Tensor:
    """[B, ...] -> [B]: the sum over all trailing axes, per leading index."""
    flat = x.array.reshape(len(x.array), -1)

    def vjp(g):
        return (np.broadcast_to(g[:, None], flat.shape).reshape(x.shape),)

    return Tensor(x.tape, flat.sum(axis=1, dtype=x.tape.dtype), (x,), vjp, name="sum_per")


def variance_per(x: Tensor) -> Tensor:
    """[B, ...] -> [B]: population variance over all trailing axes, per leading index."""
    a = x.array.reshape(len(x.array), -1)
    mu = a.mean(axis=1, dtype=x.tape.dtype, keepdims=True)
    out = ((a - mu) ** 2).mean(axis=1, dtype=x.tape.dtype)

    def vjp(g):
        return ((g[:, None] * 2.0 * (a - mu) / a.shape[1]).reshape(x.shape),)

    return Tensor(x.tape, out, (x,), vjp, name="variance")


def clamp_max(x: Tensor, ceiling) -> Tensor:
    """min(x, ceiling) for a constant ceiling of x's shape; no gradient at or above it."""
    c = np.asarray(ceiling)
    if c.shape != x.shape:
        raise ValueError(f"ceiling shape {c.shape} does not match {x.shape}")
    below = x.array < c
    out = np.where(below, x.array, c)
    return Tensor(x.tape, out, (x,), lambda g: (np.where(below, g, 0.0),), name="clamp_max")


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


def split_heads(x: Tensor, heads: int) -> Tensor:
    """[T, D] -> [H, T, D/H]: head h owns the column block [h*dh, (h+1)*dh)."""
    if x.array.ndim != 2 or x.shape[1] % heads:
        raise ValueError(f"width of {x.shape} not divisible by {heads} heads")
    t, d = x.shape

    def vjp(g):
        # C order, as downstream BLAS products round by layout
        return (np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(t, d),)

    return Tensor(x.tape, x.array.reshape(t, heads, d // heads).transpose(1, 0, 2), (x,), vjp, name="split_heads")


def merge_heads(x: Tensor) -> Tensor:
    """[H, T, dh] -> [T, H*dh], the inverse of ``split_heads``."""
    if x.array.ndim != 3:
        raise ValueError(f"merge_heads needs an [H, T, dh] tensor, got {x.shape}")
    h, t, dh = x.shape

    def vjp(g):
        return (np.ascontiguousarray(g.reshape(t, h, dh).transpose(1, 0, 2)),)

    return Tensor(x.tape, x.array.transpose(1, 0, 2).reshape(t, h * dh), (x,), vjp, name="merge_heads")


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors of equal trailing shape along the leading axis."""
    tape = _same_tape(*parts)
    for p in parts:
        if p.array.ndim == 0 or p.shape[1:] != parts[0].shape[1:]:
            raise ValueError("concat needs tensors with equal trailing shapes")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def vjp(g):
        return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return Tensor(tape, np.concatenate([p.array for p in parts]), tuple(parts), vjp, name="concat")


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


def softmax_forward(x: np.ndarray, causal: bool = False) -> np.ndarray:
    """Numerically stabilized row softmax; causal masks j > i to exact zero."""
    if causal:
        mask = np.tril(np.ones(x.shape[-2:], dtype=bool))
        shifted = np.where(mask, x, -np.inf)
        e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
        e = np.where(mask, e, 0.0)
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(x: Tensor, causal: bool = False) -> Tensor:
    """Softmax over the last axis; causal maps must be square in the last two."""
    if x.array.ndim < 2:
        raise ValueError(f"softmax_rows needs a 2-D tensor, got {x.shape}")
    if causal and x.shape[-1] != x.shape[-2]:
        raise ValueError(f"causal softmax needs a square tensor, got {x.shape}")
    y = softmax_forward(x.array, causal).astype(x.tape.dtype)

    def vjp(g):
        # masked entries have y == 0, so their gradient is exactly 0
        return ((g - (g * y).sum(axis=-1, keepdims=True)) * y,)

    return Tensor(x.tape, y, (x,), vjp, name="softmax")


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization with population variance, then affine."""
    tape = _same_tape(x, gain, bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"gain/bias must be shape ({d},), got {gain.shape}/{bias.shape}")
    a = x.array
    mu = a.mean(axis=-1, keepdims=True)
    var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + tape.dtype.type(eps))
    xhat = (a - mu) * inv

    def vjp(g):
        dxhat = g * gain.array
        dvar = (dxhat * (a - mu) * -0.5 * inv**3).sum(axis=-1, keepdims=True)
        dmu = (-dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 * (a - mu)).mean(
            axis=-1, keepdims=True
        )
        dx = dxhat * inv + dvar * 2.0 * (a - mu) / d + dmu / d
        axes = tuple(range(a.ndim - 1))
        return (dx, (g * xhat).sum(axis=axes), g.sum(axis=axes))

    return Tensor(tape, gain.array * xhat + bias.array, (x, gain, bias), vjp, name="layernorm")


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


def kl_divergence(student_logits: Tensor, teacher_logits, tau: float = 1.0) -> Tensor:
    """KL(softmax(teacher/tau) || softmax(student/tau)), averaged over rows.

    The teacher side may be a Tensor or a plain array; a plain array (the
    usual case: a frozen teacher) contributes no gradient.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    tape = student_logits.tape
    teacher_is_node = isinstance(teacher_logits, Tensor)
    t_arr = teacher_logits.array if teacher_is_node else np.asarray(teacher_logits, dtype=tape.dtype)
    if t_arr.shape != student_logits.shape:
        raise ValueError(f"logit shapes differ: {student_logits.shape} vs {t_arr.shape}")
    rows = student_logits.shape[0]
    log_pt = _log_softmax(t_arr / tau)
    log_ps = _log_softmax(student_logits.array / tau)
    pt = np.exp(log_pt)
    row_kl = (pt * (log_pt - log_ps)).sum(axis=-1)
    parents = (student_logits, teacher_logits) if teacher_is_node else (student_logits,)

    def vjp(g):
        ps = np.exp(log_ps)
        ds = g * (ps - pt) / (tau * rows)
        if not teacher_is_node:
            return (ds,)
        dt = g * pt * ((log_pt - log_ps) - row_kl[:, None]) / (tau * rows)
        return (ds, dt)

    return Tensor(tape, np.asarray(row_kl.mean(dtype=tape.dtype)), parents, vjp, name="kl_divergence")
