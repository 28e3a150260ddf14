"""Reverse-mode automatic differentiation over dense numpy arrays.

Deliberately small: 2-D matmul, row softmax with causal masking, layernorm,
cross entropy, temperature-scaled KL, and the elementwise/reduction glue a
micro decoder-only transformer needs. Values are float32 by default; a tape
can be built in float64 when tight finite-difference checks are wanted.

Nodes append to the tape in creation order, so the record is topologically
sorted by construction and the backward sweep is a single reverse pass.
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
    "concat_cols",
    "concat_rows",
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
    "mul",
    "mul_scalar",
    "neg",
    "softmax_rows",
    "softmax_forward",
    "slice_cols",
    "sqrt",
    "sub",
    "sum_all",
    "transpose",
    "variance_all",
]


class Tensor:
    """A dense value recorded on a :class:`Tape`.

    Carries the forward array plus the reverse-sweep links (parent tensors and
    a vector-Jacobian callback). Arrays are immutable once recorded: every op
    allocates its output, nothing writes in place. Construction rejects NaN
    and Inf so numerical blowups surface at the op that produced them.
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
        self.tape = tape
        self.array = array
        self.parents = tuple(parents)
        self.vjp = vjp
        self.grad: np.ndarray | None = None
        self.name = name
        self.constant = constant
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
        """Record a leaf excluded from gradient accumulation."""
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


def variance_all(x: Tensor) -> Tensor:
    """Population variance over all elements."""
    a = x.array
    n = a.size
    mu = a.mean(dtype=x.tape.dtype)
    out = np.asarray(((a - mu) ** 2).mean(dtype=x.tape.dtype))
    return Tensor(x.tape, out, (x,), lambda g: (g * 2.0 * (a - mu) / n,), name="variance")


# ---------------------------------------------------------------------------
# linear algebra and indexing


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D product; dA = g @ B^T, dB = A^T @ g."""
    tape = _same_tape(a, b)
    if a.array.ndim != 2 or b.array.ndim != 2:
        raise ValueError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dims differ: {a.shape} x {b.shape}")

    def vjp(g):
        return (g @ b.array.T, a.array.T @ g)

    return Tensor(tape, a.array @ b.array, (a, b), vjp, name="matmul")


def transpose(x: Tensor) -> Tensor:
    if x.array.ndim != 2:
        raise ValueError(f"transpose needs a 2-D tensor, got {x.shape}")
    return Tensor(x.tape, x.array.T.copy(), (x,), lambda g: (g.T,), name="transpose")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.array.ndim != 2:
        raise ValueError(f"slice_cols needs a 2-D tensor, got {x.shape}")
    if not (0 <= start <= stop <= x.shape[1]):
        raise ValueError(f"column slice [{start}:{stop}] out of range for {x.shape}")

    def vjp(g):
        full = np.zeros(x.shape, dtype=x.tape.dtype)
        full[:, start:stop] = g
        return (full,)

    return Tensor(x.tape, x.array[:, start:stop].copy(), (x,), vjp, name="slice_cols")


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    tape = _same_tape(*parts)
    rows = parts[0].shape[0]
    for p in parts:
        if p.array.ndim != 2 or p.shape[0] != rows:
            raise ValueError("concat_cols needs 2-D tensors with equal row counts")
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return Tensor(tape, np.concatenate([p.array for p in parts], axis=1), tuple(parts), vjp, name="concat_cols")


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    tape = _same_tape(*parts)
    cols = parts[0].shape[-1]
    for p in parts:
        if p.array.ndim != 2 or p.shape[1] != cols:
            raise ValueError("concat_rows needs 2-D tensors with equal column counts")
    heights = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + heights)

    def vjp(g):
        return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return Tensor(tape, np.concatenate([p.array for p in parts], axis=0), tuple(parts), vjp, name="concat_rows")


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
        mask = np.tril(np.ones(x.shape, dtype=bool))
        shifted = np.where(mask, x, -np.inf)
        e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
        e = np.where(mask, e, 0.0)
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(x: Tensor, causal: bool = False) -> Tensor:
    if x.array.ndim != 2:
        raise ValueError(f"softmax_rows needs a 2-D tensor, got {x.shape}")
    if causal and x.shape[0] != x.shape[1]:
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
