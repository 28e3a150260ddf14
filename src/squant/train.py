"""Synthetic-corpus training: teacher pretraining, the QAT loop, ablations.

The corpus is a seeded first-order Markov chain over the vocabulary with four
successors per token at fixed probabilities, so a tiny model can learn it in
a few hundred steps and perplexity differences between quantization setups
are measurable. The student starts from the pretrained teacher and trains
with cosine-annealed SGD on the distillation total, its entropy term
anchored per head at the teacher's; bit plans and EMA scales refresh every
step from the student's own forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    forward_int,
    forward_tape,
    init_params,
    params_to_tape,
    perplexity_eval,
)
from .seeding import substream

SUCCESSOR_PROBS = (0.7, 0.15, 0.1, 0.05)

__all__ = [
    "QatTrainer",
    "TrainingDiverged",
    "ablation_run",
    "cosine_lr",
    "make_corpus",
    "pretrain_teacher",
    "split_corpus",
]


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite; offending step attached."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump


def make_corpus(seed: int, vocab: int, length: int) -> np.ndarray:
    """Markov chain: each token has 4 seeded successors at fixed probabilities."""
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
        self.reports: list[LossReport] = []
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
            distribution, _ = distribution_loss_node(
                res.attn_nodes,
                teacher.attn_probs,
                literal_sign=cfg.literal_distribution_sign,
            )
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
                "last_report": self.reports[-1].to_dict() if self.reports else None,
            }
            raise TrainingDiverged(f"aborted at step {self.step_index}: {e}", dump) from e
        finally:
            tape.nodes.clear()  # as in pretrain_teacher
        self.step_index += 1
        self.reports.append(report)
        return report

    def run(self, steps: int | None = None) -> list[LossReport]:
        for _ in range(steps if steps is not None else self.cfg.steps):
            self.step()
        return self.reports


LOSS_CELLS = ("none", "entropy", "distribution", "both")
QUANT_CELLS = ("uniform_a4", "uniform_a8", "adaptive_0.25", "adaptive_0.5", "adaptive_0.75")


def _cell_config(cfg: MicroTransformerConfig, loss_cell: str, quant_cell: str):
    r_e = cfg.r_E if loss_cell in ("entropy", "both") else 0.0
    r_d = cfg.r_D if loss_cell in ("distribution", "both") else 0.0
    if quant_cell == "uniform_a4":
        quant = {"act_bits": 4}
    elif quant_cell == "uniform_a8":
        quant = {"act_bits": 8}
    else:
        quant = {"act_bits": "adaptive", "rho": float(quant_cell.split("_")[1])}
    return replace(cfg, r_E=r_e, r_D=r_d, **quant)


def evaluate_student(
    cfg: MicroTransformerConfig, params: dict, calib: Calibration, heldout: np.ndarray
) -> dict:
    """Held-out perplexity plus integer-path instruction cost per token."""
    ppl = perplexity_eval(cfg, params, heldout, calib=calib, quantized=True)
    cost = CostCounter()
    window = heldout[: cfg.seq_len]
    forward_int(cfg, params, window, calib=calib, cost=cost)
    return {
        "ppl": ppl,
        "mul_per_token": cost.mul_count / window.size,
        "add_per_token": cost.add_count / window.size,
    }


@dataclass
class AblationSettings:
    steps: int = 1000
    seeds: tuple = (0, 1, 2, 3, 4)
    teacher_steps: int = 8000
    teacher_lr: float = 0.3
    corpus_length: int = 32768
    heldout_fraction: float = 0.125
    loss_cells: tuple = LOSS_CELLS
    quant_cells: tuple = QUANT_CELLS


def ablation_run(cfg: MicroTransformerConfig, settings: AblationSettings | None = None) -> list:
    """Loss-term grid x quantization grid, each cell averaged over seeds.

    Returns one row dict per (loss_cell, quant_cell) with per-seed final
    perplexities, their mean, and the integer-path cost per token.
    """
    settings = settings or AblationSettings()
    corpora, teachers = {}, {}  # per seed, shared by every cell
    rows = []
    for loss_cell in settings.loss_cells:
        for quant_cell in settings.quant_cells:
            ppls, muls = [], []
            for seed in settings.seeds:
                run_cfg = _cell_config(replace(cfg, seed=seed), loss_cell, quant_cell)
                if seed not in corpora:
                    corpora[seed] = split_corpus(
                        make_corpus(seed, cfg.vocab, settings.corpus_length), settings.heldout_fraction
                    )
                    teachers[seed] = pretrain_teacher(
                        run_cfg, corpora[seed][0], settings.teacher_steps, settings.teacher_lr
                    )
                train, heldout = corpora[seed]
                # anneal over the steps this grid runs, not the config's horizon
                trainer = QatTrainer(replace(run_cfg, steps=settings.steps), teachers[seed], train)
                trainer.run(settings.steps)
                result = evaluate_student(run_cfg, trainer.params, trainer.calib, heldout)
                ppls.append(result["ppl"])
                muls.append(result["mul_per_token"])
            row = {
                "loss_cell": loss_cell,
                "quant_cell": quant_cell,
                "ppl_by_seed": ppls,
                "ppl_mean": float(np.mean(ppls)),
                "mul_per_token": float(np.mean(muls)),
            }
            rows.append(row)
    return rows
