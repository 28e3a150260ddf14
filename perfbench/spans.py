"""Span recording around calls into the squant modules, from outside the package.

The library is left untouched: ``patched`` swaps each traced function for a
wrapper at every place a squant module binds it (``squant.model.fake_quant``
as well as ``squant.quant.fake_quant``), and puts the originals back on exit.
Methods are wrapped on their class. Each call becomes a span with a name,
start, end and parent span; the recorder accumulates calls, total time and
self time (duration minus the time covered by child spans) per name.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# The package's layers. ``seeding`` (negligible) and ``cli`` (argument
# parsing around the same library calls) are deliberately left out.
LAYERS = ("gradtape", "quant", "kernels", "token_bits", "losses", "model", "train", "checkpoint")
METHODS = {"gradtape": ("Tape.backward",), "train": ("QatTrainer.step",)}


def traced_names() -> list[str]:
    """Every public function of every layer, as ``<module>.<function>``."""
    names = []
    for layer in LAYERS:
        mod = importlib.import_module(f"squant.{layer}")
        public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for attr in public:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                names.append(f"{layer}.{attr}")
        names.extend(f"{layer}.{m}" for m in METHODS.get(layer, ()))
    return names


def _resolve(name: str):
    layer, *path = name.split(".")
    owner = importlib.import_module(f"squant.{layer}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


@contextlib.contextmanager
def patched(names, make_wrapper):
    """Replace each named function by ``make_wrapper(name, fn)`` wherever bound."""
    undo = []
    try:
        for name in names:
            owner, attr = _resolve(name)
            fn = getattr(owner, attr)
            wrapper = make_wrapper(name, fn)
            if inspect.isclass(owner):
                undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "squant" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


def _kernel_before(args, kwargs):
    cost = kwargs["cost"] if "cost" in kwargs else args[2]
    return cost, cost.mul_count, cost.add_count


def _kernel_after(counts, name, args, out, before) -> None:
    cost, mul0, add0 = before
    counts[name + ".mul_count"] += cost.mul_count - mul0
    counts[name + ".add_count"] += cost.add_count - add0
    # operand and result bytes, computed from shapes rather than measured
    w = args[0] if name == "kernels.gemm_i8" else args[0].packed
    counts[name + ".bytes_moved"] += w.nbytes + args[1].nbytes + out.nbytes


def _backward_after(counts, name, args, out, before) -> None:
    counts["gradtape.tape_nodes"] += len(args[0].nodes)


def _plan_after(counts, name, args, plan, before) -> None:
    counts["token_bits.rows_8bit"] += int(np.count_nonzero(plan.bits == 8))
    counts["token_bits.rows"] += plan.bits.size


# name -> (before(args, kwargs), after(counts, name, args, out, before_result))
HOOKS = {
    "kernels.gemm_i8": (_kernel_before, _kernel_after),
    "kernels.gemm_i4_packed": (_kernel_before, _kernel_after),
    "gradtape.Tape.backward": (None, _backward_after),
    "token_bits.plan_for_layer": (None, _plan_after),
}


class SpanRecorder:
    """In-memory spans plus per-name totals and layer counters."""

    def __init__(self, keep: int = 5000):
        self.keep = keep
        self.spans: list = []  # [name, start, end, parent, op] for the first `keep` spans
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.counts: dict = defaultdict(float)
        self.op = -1
        self._stack: list = []  # [name, start, child_s, span_id]

    def push(self, name: str) -> None:
        sid = len(self.spans)
        if sid < self.keep:
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        else:
            sid = -1
        self._stack.append([name, perf_counter(), 0.0, sid])

    def pop(self) -> float:
        end = perf_counter()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if sid >= 0:
            self.spans[sid][1] = start
            self.spans[sid][2] = end
        return dur

    def wrap(self, name: str, fn):
        """Wrapper recording one span per call, plus the counters in ``HOOKS``."""
        rec = self
        before, after = HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            rec.push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.pop()
            if after:
                after(rec.counts, name, args, out, pre)
            return out

        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def dump(self) -> dict:
        return {
            "spans": {
                "fields": ["name", "start", "end", "parent", "op"],
                "kept": len(self.spans),
                "rows": self.spans,
            },
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
        }
