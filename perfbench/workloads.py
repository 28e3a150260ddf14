"""The benchmark workloads: closed loops, one client, batch 1.

Each workload builds its inputs from the seed alone (a ``make_corpus`` token
stream and seeded parameters), then repeats one operation that its caller
waits on: a QAT step or one integer forward.
Library calls go through module attributes (``model.forward_int``) so that
the span recorder's wrappers see them.

Interface used by ``run.py``: ``setup()`` returns the state, ``op(state, k)``
runs operation ``k`` and returns its output, ``check(out)`` says whether the
output is correct, ``same(a, b)`` whether two outputs are bit-identical,
``finish(state)`` runs checks outside the timed loop, ``layer_counts(state)``
gives per-layer counts that need their own untimed pass, and ``report``
names the workload's end-to-end figures.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import patched
from squant import checkpoint, kernels, model, train
from squant import gradtape as gt

TEACHER_LR = 0.3  # the run config's default teacher learning rate
LOSS_KEYS = ("ce", "kl", "entropy_loss", "distribution_loss", "distill", "total")


def _stream_windows(cfg, stream: np.ndarray) -> list[np.ndarray]:
    """The non-overlapping (n + 1)-token windows ``perplexity_eval`` scores."""
    n = cfg.seq_len
    return [stream[s : s + n + 1] for s in range(0, stream.size - n, n)]


class Workload:
    """Defaults shared by the workloads below."""

    def same(self, a, b) -> bool:
        return a == b

    def finish(self, state) -> list[bool]:
        return []

    def layer_counts(self, state) -> dict:
        return {}


class QatTrain(Workload):
    """Teacher pretraining in setup, then ``QatTrainer.step`` in the loop.

    The paper's default model: 2 layers, 2 heads, width 32, sequence 32,
    4-bit weights, adaptive activations at rho=0.5, both auxiliary losses.
    Setup round-trips the pretrained teacher through ``save_checkpoint`` and
    ``load_checkpoint``. After the loop the held-out split is evaluated three
    ways, untimed: float ``perplexity_eval`` (teacher), quantized
    ``perplexity_eval`` (student, frozen EMA scales) and ``forward_int``
    window by window (student).
    """

    name = "qat_train"
    latency = "qat_step_ms"
    compare_ops = 50
    corpus_tokens = 16384  # the default 1/8 held-out split leaves 2048 tokens
    teacher_steps = 200

    def __init__(self, seed: int, out_dir: Path):
        self.cfg = model.MicroTransformerConfig(seed=seed)
        self.out_dir = out_dir
        self.tokens_per_op = self.cfg.seq_len
        self.teacher_s: list[float] = []
        self.intact = True
        self.ppl = ()

    def _roundtrip(self, params: dict) -> dict:
        path = self.out_dir / f"{self.name}-teacher-{os.getpid()}.ckpt"
        try:
            checkpoint.save_checkpoint(path, checkpoint.Checkpoint(config=self.cfg.to_dict(), params=params))
            loaded = checkpoint.load_checkpoint(path).params
        finally:
            path.unlink(missing_ok=True)
        self.intact &= sorted(loaded) == sorted(params) and all(np.array_equal(loaded[k], params[k]) for k in params)
        return loaded

    def setup(self):
        cfg = self.cfg
        stream, self.heldout = train.split_corpus(train.make_corpus(cfg.seed, cfg.vocab, self.corpus_tokens))
        self.windows = _stream_windows(cfg, self.heldout)
        t0 = perf_counter()
        teacher = train.pretrain_teacher(cfg, stream, self.teacher_steps, TEACHER_LR)
        self.teacher_s.append(perf_counter() - t0)
        return train.QatTrainer(cfg, self._roundtrip(teacher), stream)

    def op(self, trainer, k: int):
        try:
            return trainer.step().to_dict()
        except train.TrainingDiverged as e:
            return {"diverged": str(e)}

    def check(self, out) -> bool:
        return "diverged" not in out and all(math.isfinite(out[key]) for key in LOSS_KEYS)

    def _int_ppl(self, trainer) -> float:
        ces = []
        for window in self.windows:
            logits, _ = model.forward_int(self.cfg, trainer.params, window[:-1], trainer.calib)
            z = logits.astype(np.float64)
            z -= z.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            ces.append(-logp[np.arange(window.size - 1), window[1:]].mean())
        return float(np.exp(np.mean(ces)))

    def finish(self, trainer) -> list[bool]:
        """Checkpoint intact, and the held-out perplexities of all three paths finite."""
        cfg = self.cfg
        self.ppl = (
            model.perplexity_eval(cfg, trainer.teacher_params, self.heldout, quantized=False),
            model.perplexity_eval(cfg, trainer.params, self.heldout, calib=trainer.calib, quantized=True),
            self._int_ppl(trainer),
        )
        return [self.intact] + [math.isfinite(p) for p in self.ppl]

    def layer_counts(self, trainer) -> dict:
        """Fake-quant versus integer path: largest logit gap, windows with other plans.

        Both are counts, not failures: the two paths agree only on tie-free
        inputs, so the gap is recorded rather than gated.
        """
        cfg = self.cfg
        gap, mismatches = 0.0, 0
        for window in self.windows:
            tokens = window[:-1]
            tape = gt.Tape(dtype=np.float32)
            tp = model.params_to_tape(tape, trainer.params, trainable=False)
            fake = model.forward_tape(tape, tp, tokens, cfg, quantized=True, training=False, calib=trainer.calib)
            logits, plans = model.forward_int(cfg, trainer.params, tokens, trainer.calib)
            gap = max(gap, float(np.abs(fake.logits.array - logits).max()))
            mismatches += any(not np.array_equal(a.bits, b.bits) for a, b in zip(fake.plans, plans))
        return {"model.dual_path_max_abs_diff": gap, "model.plan_mismatch_windows": float(mismatches)}

    def report(self, op_s: list[float]) -> dict:
        out = {
            "teacher_steps_per_s": (self.teacher_steps / float(np.median(self.teacher_s)), "steps/s"),
            "qat_steps_per_s": (1.0 / float(np.median(op_s)), "steps/s"),
        }
        for label, value in zip(("teacher_ppl", "student_ppl", "int_ppl"), self.ppl):
            out[label] = (value, "ppl")
        return out


def analytic_cost(cfg: model.MicroTransformerConfig, tokens: int) -> tuple[int, int]:
    """Multiplies and adds of one adaptive ``forward_int`` call with 4-bit weights.

    A projection with M outputs and depth K costs M*K*N_hi multiplies on the
    byte kernel and ceil(M/2)*K*N_lo on the packed one, with one add per
    byte-kernel product and three per packed product. Layer 0 plans every
    token at 8 bits; later layers plan floor(rho * T).
    """
    d, hidden = cfg.dim, 4 * cfg.dim
    shapes = [(d, d)] * 4 + [(hidden, d), (d, hidden)]
    muls = adds = 0
    for layer in range(cfg.layers):
        n_hi = tokens if layer == 0 else int(math.floor(cfg.rho * tokens + 1e-9))
        n_lo = tokens - n_hi
        for m, k in shapes:
            pairs = -(-m // 2)
            muls += m * k * n_hi + pairs * k * n_lo
            adds += m * k * n_hi + 3 * pairs * k * n_lo
    return muls, adds


class IntInferWide(Workload):
    """``forward_int`` over many windows of a wider, uncalibrated model.

    Width 128, 4 heads, sequence 128, 4-bit weights, adaptive rho=0.5,
    ``init_params``, no calibration: the integer kernels do most of the work.
    """

    name = "int_infer_wide"
    latency = "int_window_ms"
    compare_ops = 6
    windows = 32
    sample_columns = 2  # token columns per kernel call re-checked by the scalar oracle

    def __init__(self, seed: int, out_dir: Path):
        self.cfg = model.MicroTransformerConfig(dim=128, heads=4, seq_len=128, seed=seed)
        self.tokens_per_op = self.cfg.seq_len
        self.expected_cost = analytic_cost(self.cfg, self.cfg.seq_len)
        hi = int(math.floor(self.cfg.rho * self.cfg.seq_len + 1e-9))
        self.expected_k = [self.cfg.seq_len] + [hi] * (self.cfg.layers - 1)
        self.first: dict[int, np.ndarray] = {}

    def setup(self):
        cfg = self.cfg
        stream = train.make_corpus(cfg.seed, cfg.vocab, cfg.seq_len * self.windows)
        params = model.init_params(cfg)
        windows = stream.reshape(self.windows, cfg.seq_len)
        model.forward_int(cfg, params, windows[0], None)  # warm-up, outside the timed loop
        return {"params": params, "windows": windows}

    def op(self, state, k: int):
        i = k % self.windows
        cost = kernels.CostCounter()
        logits, plans = model.forward_int(self.cfg, state["params"], state["windows"][i], None, cost)
        return i, logits, [p.k for p in plans], (cost.mul_count, cost.add_count)

    def check(self, out) -> bool:
        i, logits, ks, counts = out
        ok = counts == self.expected_cost and ks == self.expected_k and bool(np.isfinite(logits).all())
        return ok and np.array_equal(self.first.setdefault(i, logits), logits)

    def same(self, a, b) -> bool:
        return a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2:] == b[2:]

    def finish(self, state) -> list[bool]:
        """Re-check every kernel call of one window, on sampled columns, with the scalar oracle."""
        calls = []

        def capture(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls.append((name, args[0], args[1], out))
                return out

            return wrapper

        with patched(("kernels.gemm_i8", "kernels.gemm_i4_packed"), capture):
            model.forward_int(self.cfg, state["params"], state["windows"][0], None)
        rng = np.random.default_rng(self.cfg.seed)
        results = []
        for name, w, x, out in calls:
            cols = np.sort(rng.choice(x.shape[1], size=min(self.sample_columns, x.shape[1]), replace=False))
            w_plain = w if name == "kernels.gemm_i8" else kernels.unpack_int4(w)
            ref = kernels.scalar_reference_gemm(w_plain, np.ascontiguousarray(x[:, cols]))
            results.append(bool(np.array_equal(ref, out[:, cols])))
        return results or [False]

    def report(self, op_s: list[float]) -> dict:
        return {"int_tokens_per_s": (self.cfg.seq_len / float(np.median(op_s)), "tokens/s")}


WORKLOADS = {w.name: w for w in (QatTrain, IntInferWide)}
