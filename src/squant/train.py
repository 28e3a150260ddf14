"""Synthetic-corpus training: teacher pretraining, the QAT loop, ablations.

The corpus is a seeded first-order Markov chain over the vocabulary with four
successors per token at fixed probabilities, so a tiny model can learn it in
a few hundred steps and perplexity differences between quantization setups
are measurable. The student starts from the pretrained teacher and trains
with cosine-annealed SGD on the distillation total, its entropy term
anchored per head at the teacher's; bit plans and EMA scales refresh every
step from the student's own forward pass.

A ``RunConfig`` is the run recipe, each field checked by its rule, and no
more: a command's ``--out`` flag says where it writes, so ``config_hash``
covers the recipe alone. The ablation grid reads its ``model``,
``corpus_length``, ``heldout_fraction``, ``teacher_steps`` and
``teacher_lr``. It synthesizes one corpus per seed of its own, so it reads
neither ``corpus`` nor ``model.seed``; ``squant ablate`` rejects a config
that sets either. Its quant cells are values of ``rho``, the share of 8-bit
tokens: ``uniform_a4`` is 0, ``uniform_a8`` is 1 and ``adaptive_<rho>`` is
the number it names.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import gradtape as gt
from .kernels import CostCounter
from .losses import (
    LossReport,
    distill_loss_node,
    distribution_loss_node,
    entropy_ceiling,
    entropy_loss_node,
    total_loss_node,
)
from .model import (
    Calibration,
    MicroTransformerConfig,
    compile_int,
    forward_int,
    forward_tape,
    init_params,
    params_to_tape,
    perplexity_eval,
)
from .schema import check_fields, integer, is_int, number, rule, typed
from .seeding import substream

SUCCESSOR_PROBS = (0.7, 0.15, 0.1, 0.05)

__all__ = [
    "QatTrainer",
    "RunConfig",
    "TrainingDiverged",
    "ablation_run",
    "cosine_lr",
    "make_corpus",
    "pretrain_teacher",
    "split_corpus",
]


@dataclass
class RunConfig:
    """Model config plus run-recipe knobs; every field checked by its rule."""

    model: MicroTransformerConfig = typed(MicroTransformerConfig, default_factory=MicroTransformerConfig)
    corpus: str | None = typed(str, type(None), default=None)  # optional .npy token stream; else synthesized
    corpus_length: int = rule(  # an array of 2**60 int64 tokens takes 2**63 bytes, past numpy's largest
        "an integer in [0, 2**60)", lambda v: is_int(v) and 0 <= v < 2**60, default=32768
    )
    heldout_fraction: float = number(0.125, "(0, 1)")
    teacher_steps: int = integer(8000, least=0)
    teacher_lr: float = number(0.3, "(0, inf)")

    def __post_init__(self):
        check_fields(self)

    def resolved(self) -> dict:
        return {**self.__dict__, "model": self.model.to_dict()}

    def config_hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite; offending step attached."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump


def make_corpus(seed: int, vocab: int, length: int) -> np.ndarray:
    """Markov chain: each token has 4 seeded successors at fixed probabilities.

    The walk draws all ``length`` successor picks in one ``choice`` call.
    With ``p`` given, numpy's ``choice`` turns each pick into one double of
    the stream, searched in the cumulative probabilities, whether it is asked
    for one pick or for ``length``. So the batched draw takes the same doubles
    in the same order as one call per token, and gives the same tokens
    (``make_corpus_per_token`` in ``tests/reference.py``).
    """
    if isinstance(length, bool) or not isinstance(length, (int, np.integer)) or length < 0:
        raise ValueError(f"length must be a non-negative integer, got {length!r}")
    if vocab < 4:
        raise ValueError("vocab must be at least 4 for the successor table")
    trans_rng = substream(seed, "corpus.transitions")
    successors = np.stack(
        [trans_rng.choice(vocab, size=4, replace=False) for _ in range(vocab)]
    )
    walk = substream(seed, "corpus.walk")
    state = int(walk.integers(vocab))
    picks = walk.choice(4, size=length, p=np.array(SUCCESSOR_PROBS))
    table = successors.tolist()
    out = []
    for pick in picks.tolist():
        out.append(state)
        state = table[state][pick]
    return np.array(out, dtype=np.int64)


def split_corpus(corpus: np.ndarray, heldout_fraction: float = 0.125):
    cut = int(len(corpus) * (1.0 - heldout_fraction))
    return corpus[:cut], corpus[cut:]


def _sample_window(rng: np.random.Generator, corpus: np.ndarray, n: int):
    start = int(rng.integers(0, corpus.size - n - 1))
    window = corpus[start : start + n + 1]
    return window[:-1], window[1:]


def _sgd_update(params: dict, tp: dict, lr: float) -> None:
    for name, node in tp.items():
        if node.grad is not None:
            if not np.isfinite(node.grad).all():
                raise ValueError(f"non-finite gradient for {name}")
            params[name] = node.array - np.float32(lr) * node.grad


def cosine_lr(lr: float, t: int, steps: int) -> float:
    """lr * (1 + cos(pi * t / steps)) / 2: lr at step 0, 0 from ``steps`` on."""
    if t >= steps:
        return 0.0
    return lr * 0.5 * (1.0 + math.cos(math.pi * t / steps))


def pretrain_teacher(
    cfg: MicroTransformerConfig, corpus: np.ndarray, steps: int, lr: float
) -> dict:
    """Cross-entropy SGD on the float model with cosine learning-rate decay.

    The decay matters: at a flat rate the teacher either crawls (small lr)
    or bounces around the optimum (large lr); annealing to zero gets held-out
    perplexity within a few percent of the corpus entropy floor. A loss or
    gradient that goes non-finite raises TrainingDiverged.
    """
    params = init_params(cfg)
    rng = substream(cfg.seed, "teacher.batches")
    for t in range(steps):
        inputs, targets = _sample_window(rng, corpus, cfg.seq_len)
        tape = gt.Tape(dtype=np.float32)
        try:
            tp = params_to_tape(tape, params, trainable=True)
            res = forward_tape(tape, tp, inputs, cfg, quantized=False)
            tape.backward(gt.cross_entropy(res.logits, targets))
            _sgd_update(params, tp, cosine_lr(lr, t, steps))
        except ValueError as e:
            dump = {"phase": "teacher", "step": t, "error": str(e)}
            raise TrainingDiverged(f"teacher aborted at step {t}: {e}", dump) from e
        finally:
            tape.nodes.clear()  # breaks the tape's reference cycle: the step frees without the collector
    return params


class QatTrainer:
    """Distillation QAT state: student params, calibration, batch stream."""

    def __init__(self, cfg: MicroTransformerConfig, teacher_params: dict, corpus: np.ndarray):
        self.cfg = cfg
        self.teacher_params = teacher_params
        self.params = {k: v.copy() for k, v in teacher_params.items()}
        self.calib = Calibration()
        self.rng = substream(cfg.seed, "student.batches")
        self.corpus = corpus
        self.step_index = 0
        self.last_report: LossReport | None = None
        self._teacher: tuple | None = None

    def _teacher_forward(self, inputs):
        """The frozen teacher's forward; its constant leaves are built once, by the first step."""
        if self._teacher is None:
            tape = gt.Tape(dtype=np.float32)  # a tape of constants records nothing
            self._teacher = tape, params_to_tape(tape, self.teacher_params, trainable=False)
        return forward_tape(*self._teacher, inputs, self.cfg)

    def sample_batch(self):
        return _sample_window(self.rng, self.corpus, self.cfg.seq_len)

    def step(self, batch=None) -> LossReport:
        """One SGD step on the weighted total; raises TrainingDiverged when the
        teacher's forward, a loss or a gradient goes non-finite.

        The rate follows ``cosine_lr`` over ``cfg.steps`` for the same reason
        as in ``pretrain_teacher``: at batch size 1 a flat rate stops at a
        random point of the SGD noise. Steps past the horizon leave the
        parameters where they are.
        """
        cfg = self.cfg
        inputs, targets = batch if batch is not None else self.sample_batch()
        tape = gt.Tape(dtype=np.float32)
        try:
            teacher = self._teacher_forward(inputs)
            tp = params_to_tape(tape, self.params, trainable=True)
            res = forward_tape(
                tape, tp, inputs, cfg, quantized=True, training=True, calib=self.calib
            )
            distill, ce, kl = distill_loss_node(
                res.logits, teacher.logits.data, targets, cfg.gamma, cfg.tau
            )
            ceiling = entropy_ceiling(
                [n.array for n in teacher.q_nodes], [n.array for n in teacher.k_nodes], cfg.heads
            )
            entropy, _ = entropy_loss_node(res.q_nodes, res.k_nodes, cfg.heads, ceiling=ceiling)
            distribution, _ = distribution_loss_node(res.attn_nodes, teacher.attn_probs)
            total, report = total_loss_node(
                distill, ce, kl, entropy, distribution, cfg.r_E, cfg.r_D, cfg.gamma, cfg.tau
            )
            tape.backward(total)
            _sgd_update(self.params, tp, cosine_lr(cfg.lr, self.step_index, cfg.steps))
        except ValueError as e:
            dump = {
                "phase": "student",
                "step": self.step_index,
                "error": str(e),
                "last_report": self.last_report.to_dict() if self.last_report is not None else None,
            }
            raise TrainingDiverged(f"aborted at step {self.step_index}: {e}", dump) from e
        finally:
            tape.nodes.clear()  # as in pretrain_teacher
        self.step_index += 1
        self.last_report = report
        return report

    def run(self, steps: int | None = None) -> list[LossReport]:
        return [self.step() for _ in range(steps if steps is not None else self.cfg.steps)]


LOSS_CELLS = ("none", "entropy", "distribution", "both")
QUANT_CELLS = ("uniform_a4", "uniform_a8", "adaptive_0.25", "adaptive_0.5", "adaptive_0.75")
CELLS = tuple(product(LOSS_CELLS, QUANT_CELLS))  # (loss cell, quant cell) pairs, loss cell outer
SEEDS = (0, 1, 2, 3, 4)


def _cell_config(cfg: MicroTransformerConfig, loss_cell: str, quant_cell: str):
    """``cfg`` with one cell's aux-loss weights and ``rho``; an unknown cell name raises ValueError."""
    if loss_cell not in LOSS_CELLS:
        raise ValueError(f"unknown loss cell {loss_cell!r}, expected one of {', '.join(LOSS_CELLS)}")
    adaptive = re.fullmatch(r"adaptive_(\d+(\.\d+)?)", quant_cell)
    if not adaptive and quant_cell not in ("uniform_a4", "uniform_a8"):
        raise ValueError(f"unknown quant cell {quant_cell!r}, expected uniform_a4, uniform_a8 or adaptive_<rho>")
    rho = float(adaptive[1]) if adaptive else {"uniform_a4": 0.0, "uniform_a8": 1.0}[quant_cell]
    r_e = cfg.r_E if loss_cell in ("entropy", "both") else 0.0
    r_d = cfg.r_D if loss_cell in ("distribution", "both") else 0.0
    return replace(cfg, r_E=r_e, r_D=r_d, rho=rho)


def evaluate_student(
    cfg: MicroTransformerConfig, params: dict, calib: Calibration, heldout: np.ndarray
) -> dict:
    """Held-out perplexity plus integer-path instruction cost per token of the compiled student."""
    ppl = perplexity_eval(cfg, params, heldout, calib=calib, quantized=True)
    cost = CostCounter()
    window = heldout[: cfg.seq_len]
    forward_int(cfg, compile_int(cfg, params), window, calib=calib, cost=cost)
    return {
        "ppl": ppl,
        "mul_per_token": cost.mul_count / window.size,
        "add_per_token": cost.add_count / window.size,
    }


def ablation_run(rc: RunConfig, cells: tuple = CELLS, seeds: tuple = SEEDS) -> list:
    """One row per (loss cell, quant cell) pair of ``cells``, in that order, over ``seeds``.

    Reads ``rc.model``, ``corpus_length``, ``heldout_fraction``,
    ``teacher_steps`` and ``teacher_lr``; not ``corpus`` or ``model.seed``,
    which ``squant ablate`` rejects. Jobs run in order: one corpus and one
    teacher per seed, then one student per (cell, seed), cells outer, annealed
    over ``rc.model.steps``. Each job is a pure function of its seed and cell,
    so a row does not depend on the other cells or their order; an unknown
    cell name raises ValueError before any training. Rows hold per-seed
    held-out perplexities and integer-path multiplies per token, and their means.
    """
    cfg = rc.model
    cell_cfgs = [_cell_config(cfg, *cell) for cell in cells]
    seeded = []  # per seed: the seed, its teacher, its train and held-out splits
    for s in seeds:
        train, heldout = split_corpus(make_corpus(s, cfg.vocab, rc.corpus_length), rc.heldout_fraction)
        teacher = pretrain_teacher(replace(cfg, seed=s), train, rc.teacher_steps, rc.teacher_lr)
        seeded.append((s, teacher, train, heldout))
    results = []
    for cell_cfg in cell_cfgs:
        for s, teacher, train, heldout in seeded:
            run_cfg = replace(cell_cfg, seed=s)
            trainer = QatTrainer(run_cfg, teacher, train)
            trainer.run()
            results.append(evaluate_student(run_cfg, trainer.params, trainer.calib, heldout))
    rows = []
    for i, (loss_cell, quant_cell) in enumerate(cells):
        cell = results[i * len(seeds) : (i + 1) * len(seeds)]
        ppls, muls = [r["ppl"] for r in cell], [r["mul_per_token"] for r in cell]
        rows.append({
            "loss_cell": loss_cell,
            "quant_cell": quant_cell,
            "ppl_by_seed": ppls,
            "ppl_mean": float(np.mean(ppls)),
            "mul_by_seed": muls,
            "mul_per_token": float(np.mean(muls)),
        })
    return rows
