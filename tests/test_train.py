"""Corpus generation, teacher pretraining, the QAT loop, and ablation grids."""

import gc
import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import make_corpus_per_token

from squant import train as train_mod
from squant.losses import EPS, entropy_ceiling
from squant.model import MicroTransformerConfig, forward_teacher, init_params, perplexity_eval
from squant.train import (
    AblationSettings,
    QatTrainer,
    TrainingDiverged,
    _cell_config,
    ablation_run,
    cosine_lr,
    evaluate_student,
    make_corpus,
    pretrain_teacher,
    split_corpus,
)


class TestMakeCorpus:
    def test_deterministic_per_seed(self):
        a = make_corpus(0, 64, 2048)
        b = make_corpus(0, 64, 2048)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        assert not np.array_equal(make_corpus(0, 64, 2048), make_corpus(1, 64, 2048))

    def test_tokens_in_vocab(self):
        for seed in range(4):
            c = make_corpus(seed, 16, 1024)
            assert c.min() >= 0
            assert c.max() < 16

    def test_each_state_has_at_most_four_successors(self):
        c = make_corpus(3, 32, 8192)
        followers = {}
        for cur, nxt in zip(c[:-1], c[1:]):
            followers.setdefault(int(cur), set()).add(int(nxt))
        assert followers
        assert max(len(s) for s in followers.values()) <= 4

    def test_dominant_successor_frequency(self):
        # the 0.7-probability branch should dominate empirically
        c = make_corpus(5, 32, 16384)
        counts = {}
        for cur, nxt in zip(c[:-1], c[1:]):
            counts.setdefault(int(cur), {}).setdefault(int(nxt), 0)
            counts[int(cur)][int(nxt)] += 1
        shares = []
        for state, succ in counts.items():
            total = sum(succ.values())
            if total >= 200:
                shares.append(max(succ.values()) / total)
        assert shares
        assert 0.6 < np.mean(shares) < 0.8

    def test_small_vocab_rejected(self):
        with pytest.raises(ValueError, match="vocab"):
            make_corpus(0, 3, 100)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), vocab=st.integers(4, 299), length=st.integers(0, 2999))
    @example(seed=0, vocab=4, length=0)
    @example(seed=0, vocab=4, length=1)
    def test_batched_walk_equals_per_token_walk(self, seed, vocab, length):
        got = make_corpus(seed, vocab, length)
        want = make_corpus_per_token(seed, vocab, length)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape == (length,)
        np.testing.assert_array_equal(got, want)

    def test_walk_hash_pinned(self):
        # any change in how the walk consumes its stream changes these bytes
        digest = hashlib.sha256(make_corpus(0, 64, 32768).tobytes()).hexdigest()
        assert digest == "fba39065728c03c4ad83d9c274ffff858bd640e90694fe04115bfdc31d3852bf"

    @pytest.mark.parametrize("length", [-1, 2.5, 8.0, True, False, "8", None])
    def test_bad_length_rejected_before_drawing(self, length, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a substream before checking length")

        monkeypatch.setattr(train_mod, "substream", no_draws)
        with pytest.raises(ValueError, match="length"):
            make_corpus(0, 64, length)

    def test_numpy_integer_length_accepted(self):
        np.testing.assert_array_equal(make_corpus(1, 16, np.int64(300)), make_corpus(1, 16, 300))


class TestSplitCorpus:
    def test_default_fraction(self):
        train, held = split_corpus(np.arange(1000))
        assert train.size == 875
        assert held.size == 125

    def test_concatenation_preserves_stream(self):
        c = make_corpus(2, 64, 512)
        train, held = split_corpus(c)
        np.testing.assert_array_equal(np.concatenate([train, held]), c)


class TestPretrainTeacher:
    def test_improves_over_untrained(self):
        cfg = MicroTransformerConfig(seed=0)
        corpus = make_corpus(0, 64, 2048)
        train, held = split_corpus(corpus)
        untrained = perplexity_eval(cfg, init_params(cfg), held, quantized=False)
        taught = perplexity_eval(
            cfg, pretrain_teacher(cfg, train, 150, 0.3), held, quantized=False
        )
        assert taught < untrained

    def test_tape_nodes_per_step(self, monkeypatch):
        cfg = MicroTransformerConfig(seed=0)
        corpus = make_corpus(0, 64, 1024)
        nodes, built = count_per_step(monkeypatch, lambda: pretrain_teacher(cfg, corpus, 1, 0.3), 1)
        # attention and each projection is one node; every tensor of a teacher step is recorded
        assert nodes == [69]
        assert built == [69]

    def test_divergence_raises_with_a_dump(self):
        cfg = MicroTransformerConfig(seed=0)
        corpus = make_corpus(0, 64, 2048)
        with pytest.raises(TrainingDiverged) as exc_info, np.errstate(all="ignore"):
            pretrain_teacher(cfg, corpus, 5, 1e9)
        dump = exc_info.value.dump
        assert dump["phase"] == "teacher" and dump["step"] >= 1
        assert "non-finite" in dump["error"]

    def test_deterministic(self):
        cfg = MicroTransformerConfig(seed=1)
        corpus = make_corpus(1, 64, 1024)
        a = pretrain_teacher(cfg, corpus, 20, 0.2)
        b = pretrain_teacher(cfg, corpus, 20, 0.2)
        assert set(a) == set(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


def tiny_setup(seed=0, **overrides):
    overrides.setdefault("lr", 0.05)
    cfg = MicroTransformerConfig(seed=seed, **overrides)
    corpus = make_corpus(seed, 64, 1024)
    train, held = split_corpus(corpus)
    teacher = pretrain_teacher(cfg, train, 30, 0.3)
    return cfg, teacher, train, held


def count_per_step(monkeypatch, step, steps):
    """Nodes recorded at each backward, and tensors built in each of ``steps`` calls of ``step``."""
    nodes, tensors = [], [0]
    backward, init = train_mod.gt.Tape.backward, train_mod.gt.Tensor.__init__

    def counting_backward(tape, root):
        nodes.append(len(tape.nodes))
        return backward(tape, root)

    def counting_init(tensor, *args, **kwargs):
        tensors[0] += 1
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(train_mod.gt.Tape, "backward", counting_backward)
    monkeypatch.setattr(train_mod.gt.Tensor, "__init__", counting_init)
    built = []
    for _ in range(steps):
        tensors[0] = 0
        step()
        built.append(tensors[0])
    return nodes, built


class TestQatTrainer:
    def test_reports_bit_identical_across_runs(self):
        cfg, teacher, train, _ = tiny_setup()
        runs = []
        for _ in range(2):
            trainer = QatTrainer(cfg, teacher, train)
            runs.append([r.to_dict() for r in trainer.run(5)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("act_bits", ["adaptive", 4, 8])
    def test_tape_nodes_per_step(self, act_bits, monkeypatch):
        cfg, teacher, train, _ = tiny_setup(act_bits=act_bits)
        trainer = QatTrainer(cfg, teacher, train)
        nodes, built = count_per_step(monkeypatch, trainer.step, 3)
        # attention, each aux loss and each projection is one node, and constants are not recorded
        assert nodes == [91, 91, 91]
        # the teacher forward's constants included; the first step also builds its 36 leaves
        assert built == [123 + 36, 123, 123]

    def test_one_rounding_per_weight_and_site(self, monkeypatch):
        # every quantizer takes its codes, values and straight-through mask from one rounding
        import squant.quant

        from squant.model import ACT_SITES, WEIGHT_NAMES, init_params

        cfg = MicroTransformerConfig()  # the defaults: adaptive activations, both aux terms
        corpus = make_corpus(0, cfg.vocab, 1024)
        trainer = QatTrainer(cfg, init_params(cfg), corpus)
        rounded = []
        original = squant.quant._round_magnitude

        def counting(r, sign):
            rounded.append(r.size)
            return original(r, sign)

        monkeypatch.setattr(squant.quant, "_round_magnitude", counting)
        trainer.step()
        weights = sum(trainer.params[f"l{l}.{w}"].size for l in range(cfg.layers) for w in WEIGHT_NAMES)
        sites = cfg.layers * cfg.seq_len * (len(ACT_SITES) - 1 + 4) * cfg.dim  # mlp_hidden is 4x wide
        assert len(rounded) == cfg.layers * (len(WEIGHT_NAMES) + len(ACT_SITES))
        assert sum(rounded) == weights + sites

    def test_student_initialized_from_teacher(self):
        cfg, teacher, train, _ = tiny_setup()
        trainer = QatTrainer(cfg, teacher, train)
        for name in teacher:
            np.testing.assert_array_equal(trainer.params[name], teacher[name])
        trainer.run(1)
        assert any(
            not np.array_equal(trainer.params[n], teacher[n]) for n in teacher
        )

    def test_loss_decreases_for_most_seeds(self):
        improved = 0
        for seed in range(5):
            cfg, teacher, train, _ = tiny_setup(seed=seed)
            trainer = QatTrainer(cfg, teacher, train)
            reports = trainer.run(200)
            first = np.mean([r.total for r in reports[:20]])
            last = np.mean([r.total for r in reports[-20:]])
            improved += last < first
        assert improved >= 4

    def test_plain_ce_reduction_when_degenerate(self):
        # no aux terms, gamma 0: the step optimizes bare cross-entropy
        cfg, teacher, train, _ = tiny_setup(r_E=0.0, r_D=0.0, gamma=0.0)
        trainer = QatTrainer(cfg, teacher, train)
        report = trainer.step()
        assert report.total == report.ce
        assert report.kl >= 0.0

    def test_divergence_dump(self):
        cfg, teacher, train, _ = tiny_setup(lr=1e8)
        trainer = QatTrainer(cfg, teacher, train)
        with pytest.raises(TrainingDiverged) as exc_info, np.errstate(all="ignore"):
            trainer.run(50)
        dump = exc_info.value.dump
        assert set(dump) >= {"step", "error", "last_report"}
        assert dump["step"] >= 1

    def test_non_finite_teacher_diverges(self):
        cfg, teacher, train, _ = tiny_setup()
        for bad in (np.nan, 1e30):  # a non-finite leaf, and a finite one whose forward overflows
            trainer = QatTrainer(cfg, {**teacher, "l0.attn.wq": np.full_like(teacher["l0.attn.wq"], bad)}, train)
            with pytest.raises(TrainingDiverged) as exc_info, np.errstate(all="ignore"):
                trainer.step()
            assert exc_info.value.dump["step"] == 0 and trainer.last_report is None

    @staticmethod
    def unreachable_after(fn):
        """Objects the cyclic collector finds after ``fn()`` runs with the collector off."""
        gc.collect()
        gc.disable()
        try:
            fn()
            return gc.collect()
        finally:
            gc.enable()

    def test_steps_freed_without_the_collector(self):
        # each step clears its tape's record, so its tape and tensors free by reference counting
        cfg, teacher, train, _ = tiny_setup()
        trainer = QatTrainer(cfg, teacher, train)
        trainer.step()  # first-call setup outside the measurement
        assert self.unreachable_after(trainer.step) == 0
        assert self.unreachable_after(lambda: pretrain_teacher(cfg, train, 1, 0.3)) == 0

    def test_diverged_step_freed_without_the_collector(self):
        cfg, teacher, train, _ = tiny_setup(lr=1e8)  # the divergence-dump setup
        trainer = QatTrainer(cfg, teacher, train)
        trainer.step()

        def until_diverged():
            with np.errstate(all="ignore"):
                for _ in range(50):
                    try:
                        trainer.step()
                    except TrainingDiverged:
                        return
            pytest.fail("no step diverged")

        assert self.unreachable_after(until_diverged) == 0

    def test_entropy_term_anchored_at_teacher(self):
        # each head contributes at most the teacher's value on the same window
        cfg, teacher, train, _ = tiny_setup()
        trainer = QatTrainer(cfg, teacher, train)
        gaps = []
        for _ in range(10):
            batch = trainer.sample_batch()
            ref = forward_teacher(cfg, teacher, batch[0])
            ceiling = entropy_ceiling(
                [n.array for n in ref.q_nodes], [n.array for n in ref.k_nodes], cfg.heads
            )
            report = trainer.step(batch)
            gaps.append(report.entropy_loss + np.log(EPS + ceiling.sum()))
        assert min(gaps) > -1e-6
        assert any(abs(g) < 1e-6 for g in gaps)  # some steps have every head at its ceiling

    def test_report_count_matches_steps(self):
        cfg, teacher, train, _ = tiny_setup()
        trainer = QatTrainer(cfg, teacher, train)
        reports = trainer.run(7)
        assert trainer.step_index == 7
        assert len(reports) == 7
        assert trainer.last_report is reports[-1]


def record_rates(monkeypatch):
    """Capture the learning rate of every SGD update while still applying it."""
    rates = []
    update = train_mod._sgd_update

    def recording(params, tp, lr):
        rates.append(lr)
        update(params, tp, lr)

    monkeypatch.setattr(train_mod, "_sgd_update", recording)
    return rates


class TestLearningRateSchedule:
    def test_cosine_lr_endpoints(self):
        assert cosine_lr(0.05, 0, 10) == 0.05
        assert cosine_lr(0.05, 5, 10) == pytest.approx(0.025, abs=1e-15)
        assert cosine_lr(0.05, 10, 10) == 0.0
        assert cosine_lr(0.05, 11, 10) == 0.0
        assert cosine_lr(0.05, 0, 0) == 0.0

    def test_qat_step_follows_cosine(self, monkeypatch):
        cfg, teacher, train, _ = tiny_setup(steps=4)
        rates = record_rates(monkeypatch)
        QatTrainer(cfg, teacher, train).run(6)
        want = [cfg.lr * 0.5 * (1.0 + math.cos(math.pi * t / 4)) for t in range(4)]
        assert rates[0] == cfg.lr
        assert rates[:4] == pytest.approx(want, abs=1e-15)
        assert rates[4:] == [0.0, 0.0]

    def test_params_stop_moving_past_horizon(self):
        cfg, teacher, train, _ = tiny_setup(steps=3)
        trainer = QatTrainer(cfg, teacher, train)
        trainer.run(2)
        before_last = {k: v.copy() for k, v in trainer.params.items()}
        trainer.run(1)
        at_horizon = {k: v.copy() for k, v in trainer.params.items()}
        assert any(not np.array_equal(before_last[k], at_horizon[k]) for k in at_horizon)
        trainer.run(3)
        for name, value in at_horizon.items():
            np.testing.assert_array_equal(trainer.params[name], value)

    def test_pretrain_teacher_shares_the_schedule(self, monkeypatch):
        cfg = MicroTransformerConfig(seed=0)
        rates = record_rates(monkeypatch)
        pretrain_teacher(cfg, make_corpus(0, 64, 1024), 5, 0.3)
        assert rates == [cosine_lr(0.3, t, 5) for t in range(5)]
        assert rates[0] == 0.3


class TestEvaluateStudent:
    def test_keys_and_positive_costs(self):
        cfg, teacher, train, held = tiny_setup(act_bits=4)
        trainer = QatTrainer(cfg, teacher, train)
        trainer.run(3)
        result = evaluate_student(cfg, trainer.params, trainer.calib, held)
        assert set(result) == {"ppl", "mul_per_token", "add_per_token"}
        assert result["ppl"] > 1.0
        assert result["mul_per_token"] > 0

    def test_packed_path_cheaper_than_byte_path(self):
        costs = {}
        for bits in (4, 8):
            cfg, teacher, train, held = tiny_setup(act_bits=bits)
            trainer = QatTrainer(cfg, teacher, train)
            trainer.run(2)
            costs[bits] = evaluate_student(cfg, trainer.params, trainer.calib, held)
        assert costs[4]["mul_per_token"] == costs[8]["mul_per_token"] / 2


class TestCellConfig:
    def test_loss_cells_zero_coefficients(self):
        base = MicroTransformerConfig(r_E=0.5, r_D=1.0)
        assert _cell_config(base, "none", "uniform_a4").r_E == 0.0
        assert _cell_config(base, "none", "uniform_a4").r_D == 0.0
        assert _cell_config(base, "entropy", "uniform_a4").r_E == 0.5
        assert _cell_config(base, "entropy", "uniform_a4").r_D == 0.0
        assert _cell_config(base, "distribution", "uniform_a4").r_D == 1.0
        both = _cell_config(base, "both", "uniform_a4")
        assert (both.r_E, both.r_D) == (0.5, 1.0)

    def test_quant_cells(self):
        base = MicroTransformerConfig()
        assert _cell_config(base, "none", "uniform_a4").act_bits == 4
        assert _cell_config(base, "none", "uniform_a8").act_bits == 8
        adaptive = _cell_config(base, "none", "adaptive_0.25")
        assert adaptive.act_bits == "adaptive"
        assert adaptive.rho == 0.25

    @pytest.mark.parametrize(
        "loss_cell,quant_cell,unknown",
        [
            ("Both", "uniform_a4", "Both"),
            ("", "uniform_a4", ""),
            ("none", "uniform_a2", "uniform_a2"),
            ("none", "adaptive", "adaptive"),
            ("none", "adaptive_x", "adaptive_x"),
            ("none", "adaptive_nan", "adaptive_nan"),
            ("none", "adaptive_0.5_", "adaptive_0.5_"),
        ],
    )
    def test_unknown_cell_rejected(self, loss_cell, quant_cell, unknown):
        with pytest.raises(ValueError, match=f"unknown .* cell {re.escape(repr(unknown))}"):
            _cell_config(MicroTransformerConfig(), loss_cell, quant_cell)


class TestAblationRun:
    def make_settings(self):
        return AblationSettings(
            steps=2,
            seeds=(0, 1),
            teacher_steps=2,
            teacher_lr=0.3,
            corpus_length=512,
            cells=(("none", "uniform_a4"), ("none", "adaptive_0.5"), ("none", "uniform_a8")),
        )

    def test_cost_ordering_and_rows(self):
        rows = ablation_run(MicroTransformerConfig(lr=0.05), self.make_settings())
        assert [r["quant_cell"] for r in rows] == ["uniform_a4", "adaptive_0.5", "uniform_a8"]
        by_cell = {r["quant_cell"]: r for r in rows}
        assert (
            by_cell["uniform_a4"]["mul_per_token"]
            < by_cell["adaptive_0.5"]["mul_per_token"]
            < by_cell["uniform_a8"]["mul_per_token"]
        )
        for r in rows:
            assert len(r["ppl_by_seed"]) == len(r["mul_by_seed"]) == 2
            assert r["mul_per_token"] == np.mean(r["mul_by_seed"])

    def test_rows_independent_of_cell_order(self):
        cells = (("none", "uniform_a4"), ("both", "adaptive_0.5"))
        forward = ablation_run(MicroTransformerConfig(lr=0.05), replace(self.make_settings(), cells=cells))
        backward = ablation_run(MicroTransformerConfig(lr=0.05), replace(self.make_settings(), cells=cells[::-1]))
        assert [r["loss_cell"] for r in backward] == ["both", "none"]
        assert forward == backward[::-1]

    def test_unknown_cell_fails_before_training(self, monkeypatch):
        monkeypatch.setattr(train_mod, "pretrain_teacher", lambda *_: pytest.fail("trained a teacher"))
        settings = replace(self.make_settings(), cells=(("none", "uniform_a4"), ("Both", "uniform_a4")))
        with pytest.raises(ValueError, match="'Both'"):
            ablation_run(MicroTransformerConfig(lr=0.05), settings)

    def test_anneals_over_the_steps_it_runs(self, monkeypatch):
        # untrained teachers, so only the QAT updates are recorded
        monkeypatch.setattr(train_mod, "pretrain_teacher", lambda cfg, *_: init_params(cfg))
        rates = record_rates(monkeypatch)
        ablation_run(MicroTransformerConfig(lr=0.05, steps=1000), self.make_settings())
        # 2 seeds x 3 quant cells, each annealed over its 2 steps
        assert rates == [0.05, cosine_lr(0.05, 1, 2)] * 6

    def test_bit_reproducible(self):
        a = ablation_run(MicroTransformerConfig(lr=0.05), self.make_settings())
        b = ablation_run(MicroTransformerConfig(lr=0.05), self.make_settings())
        assert a == b
