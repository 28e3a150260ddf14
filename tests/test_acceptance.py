"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with its measured numbers, so a
captured-output run reads as a checklist. The two training-protocol tests
share one module-scoped bundle of runs (five seeded teachers, three student
cells each) because teacher pretraining dominates their runtime. The bundle
is one ``squant.train.ablation_run`` call, the same grid ``squant ablate`` runs.
"""

import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import squant.gradtape as gt
from squant.cli import DEFAULT_BENCH_SHAPES
from squant.cli import main as cli_main
from squant.kernels import (
    CostCounter,
    gemm_i4_packed,
    gemm_i8,
    pack_int4,
    scalar_reference_gemm,
)
from squant.losses import (
    GaussianStats,
    distill_loss_node,
    distribution_loss_node,
    entropy_loss_node,
    total_loss_node,
)
from squant.model import (
    MicroTransformerConfig,
    forward_int,
    forward_tape,
    forward_teacher,
    init_params,
    params_to_tape,
)
from squant.quant import QuantSpec, calibrate_scale, quantize
from squant.seeding import substream
from squant.token_bits import TokenBitPlan
from squant.train import (
    SEEDS,
    RunConfig,
    _sgd_update,
    ablation_run,
    make_corpus,
    split_corpus,
)

import reference as ref


def _verdict(ok: bool, label: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def test_kernels_bit_exact_on_randomized_cases():
    rng = substream(20260823, "acceptance.kernels")
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        m, k, n = (int(v) for v in rng.integers(1, 65, size=3))
        w = rng.integers(-8, 8, size=(m, k)).astype(np.int8)
        x = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
        ref = scalar_reference_gemm(w, x)
        byte_ok = np.array_equal(gemm_i8(w, x, CostCounter()), ref)
        packed_ok = np.array_equal(gemm_i4_packed(pack_int4(w), x, CostCounter()), ref)
        mismatches += not (byte_ok and packed_ok)
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 10.0
    assert _verdict(ok, "kernel bit-exactness", f"{mismatches} mismatches in 1000 cases, {dt:.1f} s")


def test_packed_kernel_halves_multiplies_on_bench_grid():
    rng = substream(20260823, "acceptance.halving")
    ratios = set()
    for m, k, n in DEFAULT_BENCH_SHAPES:
        assert m % 2 == 0  # the halving claim is for even row counts
        w = rng.integers(-8, 8, size=(m, k)).astype(np.int8)
        x = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
        byte_cost, packed_cost = CostCounter(), CostCounter()
        gemm_i8(w, x, byte_cost)
        gemm_i4_packed(pack_int4(w), x, packed_cost)
        assert 2 * packed_cost.mul_count == byte_cost.mul_count
        ratios.add(packed_cost.mul_count / byte_cost.mul_count)
    assert _verdict(
        ratios == {0.5},
        "packed cost halving",
        f"mul ratio {sorted(ratios)} across {len(DEFAULT_BENCH_SHAPES)} shapes",
    )


def test_quantizer_round_trip_range_and_idempotence():
    rng = substream(20260823, "acceptance.quant")
    worst = 0.0
    for i in range(10_000):
        size = int(rng.integers(1, 65))
        x = rng.normal(scale=float(rng.uniform(0.01, 10.0)), size=size)
        if i % 97 == 0:
            x = np.zeros(size)  # all-zero tensors take the unit-scale path
        bits = 4 if i % 2 else 8
        spec = QuantSpec(bits=bits, scale=calibrate_scale(x, bits))
        codes = quantize(x, spec)
        assert codes.min() >= spec.qmin and codes.max() <= spec.qmax
        deq = ref.dequantize(codes, spec.scale, np.float64)
        err = float(np.abs(x - deq).max() / spec.scale)
        worst = max(worst, err)
        assert np.abs(x - deq).max() <= spec.scale / 2 + 1e-12
        np.testing.assert_array_equal(quantize(deq, spec), codes)
    assert _verdict(True, "quantizer round-trip", f"worst error {worst:.4f} scale units over 10000 tensors")


def test_ste_gradient_matches_finite_differences():
    # the straight-through backward differentiates the clip-only network by
    # construction (rounding is invisible to it), so finite differences must
    # probe that same network: FD through the rounded forward would see a
    # staircase with zero derivative almost everywhere
    cfg = MicroTransformerConfig(
        layers=2, heads=2, dim=16, vocab=24, seq_len=12, seed=0, rho=0.5,
    )
    params = init_params(cfg)
    rng = substream(cfg.seed, "acceptance.fd")
    toks = rng.integers(0, cfg.vocab, size=cfg.seq_len)
    targets = rng.integers(0, cfg.vocab, size=cfg.seq_len)
    teacher = forward_teacher(cfg, params, toks)
    tape0 = gt.Tape(dtype=np.float64)
    probe = forward_tape(
        tape0, params_to_tape(tape0, params), toks, cfg,
        quantized=True, training=False, calib=None,
    )
    plans, scales = probe.plans, dict(probe.scales_used)

    def total_of(p):
        tape = gt.Tape(dtype=np.float64)
        tp = params_to_tape(tape, p, trainable=True)
        res = forward_tape(
            tape, tp, toks, cfg, quantized=True, training=False, calib=None,
            plans_override=plans, scale_overrides=scales, surrogate=True,
        )
        distill, ce, kl = distill_loss_node(
            res.logits, teacher.logits.data, targets, cfg.gamma, cfg.tau
        )
        entropy, _ = entropy_loss_node(res.q_nodes, res.k_nodes, cfg.heads)
        distribution, _ = distribution_loss_node(res.attn_nodes, teacher.attn_probs)
        total, _ = total_loss_node(
            distill, ce, kl, entropy, distribution, cfg.r_E, cfg.r_D, cfg.gamma, cfg.tau
        )
        return tape, tp, total

    tape, tp, total = total_of(params)
    tape.backward(total)
    grads = {name: node.grad for name, node in tp.items() if node.grad is not None}
    names = sorted(grads)
    pick = substream(7, "acceptance.fd.pick")
    coords = []
    while len(coords) < 30:
        name = names[int(pick.integers(len(names)))]
        idx = tuple(int(pick.integers(s)) for s in params[name].shape)
        coords.append((name, idx))

    h = 1e-5
    rels = []
    for name, idx in coords:
        def at(delta):
            p2 = {key: v.copy() for key, v in params.items()}
            p2[name][idx] += delta
            _, _, t2 = total_of(p2)
            return float(t2.array)

        fd = (at(h) - at(-h)) / (2 * h)
        if abs(fd) > 1e-4:
            rels.append(abs(float(grads[name][idx]) - fd) / abs(fd))
    ok = len(rels) >= 20 and max(rels) <= 2e-2
    assert _verdict(
        ok, "ste gradient check",
        f"{len(rels)} sampled params, worst rel err {max(rels):.2e}",
    )


def test_degenerate_plans_bit_identical_to_uniform():
    params = init_params(MicroTransformerConfig())
    toks = substream(0, "acceptance.plans").integers(0, 64, size=32)
    checks = []
    for rho, bits in ((1.0, 8), (0.0, 4)):
        cfg = MicroTransformerConfig(rho=rho)
        uniform = [TokenBitPlan(np.full(toks.size, bits))] * cfg.layers
        fakes = []
        for plans in (None, uniform):  # rho's own plans, then pinned uniform ones
            tape = gt.Tape(dtype=np.float32)
            tp = params_to_tape(tape, params)
            fakes.append(
                forward_tape(tape, tp, toks, cfg, quantized=True, training=False, calib=None, plans_override=plans)
            )
        fake_equal = np.array_equal(fakes[0].logits.data, fakes[1].logits.data)
        _, int_plans = forward_int(cfg, params, toks, calib=None)
        checks.append(fake_equal and all(np.array_equal(p.bits, u.bits) for p, u in zip(int_plans, uniform)))
    assert _verdict(
        all(checks), "degenerate plans",
        f"rho=1 matches A8: {checks[0]}, rho=0 matches A4: {checks[1]}",
    )


def test_loss_closed_forms():
    unit = GaussianStats(var_q=np.array([[1.0]]), var_k=np.array([[1.0]]))
    entropy_err = abs(ref.entropy_loss(unit) - (-math.log(math.log(2.0))))

    cfg = MicroTransformerConfig()
    teacher = forward_teacher(
        cfg, init_params(cfg), substream(0, "acceptance.align").integers(0, cfg.vocab, size=cfg.seq_len)
    )
    align = ref.attention_alignment(teacher.attn_probs, teacher.attn_probs)
    align_err = abs(align - cfg.layers * cfg.heads)
    ok = entropy_err <= 1e-6 and align_err <= 1e-6
    assert _verdict(
        ok, "loss closed forms",
        f"unit-variance entropy off by {entropy_err:.2e}, self-alignment off by {align_err:.2e}",
    )


def _aux_direction(seed: int, term: str, steps: int = 50, lr: float = 0.05):
    """Final-minus-initial movement of the term's own objective under SGD."""
    cfg = MicroTransformerConfig(seed=seed)
    params = init_params(cfg)
    corpus = make_corpus(seed, cfg.vocab, 4096)
    start = int(substream(seed, "acceptance.dir").integers(0, corpus.size - cfg.seq_len - 1))
    inputs = corpus[start : start + cfg.seq_len]
    teacher = forward_teacher(cfg, params, inputs)
    first = last = None
    for t in range(steps + 1):
        tape = gt.Tape(dtype=np.float32)
        tp = params_to_tape(tape, params, trainable=True)
        res = forward_tape(tape, tp, inputs, cfg, quantized=True, training=True, calib=None)
        if term == "entropy":
            node, st = entropy_loss_node(res.q_nodes, res.k_nodes, cfg.heads)
            metric = float(np.sum(np.log1p(np.asarray(st.var_q) * np.asarray(st.var_k))))
        else:
            node, metric = distribution_loss_node(res.attn_nodes, teacher.attn_probs)
        if t == 0:
            first = metric
        last = metric
        if t < steps:
            tape.backward(node)
            _sgd_update(params, tp, lr)
    return first, last


def test_aux_losses_move_their_objectives():
    outcomes = {}
    for term in ("entropy", "distribution"):
        gains = []
        for seed in range(5):
            first, last = _aux_direction(seed, term)
            gains.append(last - first)
        outcomes[term] = gains
    ok = all(g > 0 for term in outcomes for g in outcomes[term])
    detail = ", ".join(
        f"{term} gains {min(g):.4f}..{max(g):.4f} over 5 seeds"
        for term, g in ((t, outcomes[t]) for t in outcomes)
    )
    assert _verdict(ok, "aux objective direction", detail)


PROTOCOL_CELLS = (("none", "uniform_a4"), ("both", "uniform_a4"), ("both", "adaptive_0.5"))


@pytest.fixture(scope="module")
def protocol_runs():
    """Five seeded teachers, each distilled into three W4 student cells: per seed, per cell, ppl and cost."""
    # seeds 0-4, 8000 teacher and 1000 QAT steps
    rows = ablation_run(RunConfig(), cells=PROTOCOL_CELLS)
    return {
        seed: {
            (r["loss_cell"], r["quant_cell"]): {"ppl": r["ppl_by_seed"][i], "mul_per_token": r["mul_by_seed"][i]}
            for r in rows
        }
        for i, seed in enumerate(SEEDS)
    }


@pytest.mark.protocol
def test_both_aux_losses_match_baseline_across_seeds(protocol_runs):
    wins = 0
    lines = []
    for seed, out in protocol_runs.items():
        none_ppl = out[("none", "uniform_a4")]["ppl"]
        both_ppl = out[("both", "uniform_a4")]["ppl"]
        wins += both_ppl <= none_ppl
        lines.append(f"seed {seed} none {none_ppl:.4f} both {both_ppl:.4f}")
    assert _verdict(
        wins >= 4, "aux losses vs baseline", f"{wins}/5 seeds; " + "; ".join(lines)
    )


@pytest.mark.protocol
def test_adaptive_bits_cost_between_uniforms_and_ppl_no_worse_than_a4(protocol_runs):
    cost_ok, ppl_wins = True, 0
    lines = []
    for seed, out in protocol_runs.items():
        a4 = out[("both", "uniform_a4")]
        adaptive = out[("both", "adaptive_0.5")]
        cfg = MicroTransformerConfig(seed=seed, rho=1.0)
        window = split_corpus(make_corpus(seed, cfg.vocab, 32768))[1][: cfg.seq_len]
        cost = CostCounter()
        forward_int(cfg, init_params(cfg), window, calib=None, cost=cost)
        a8_mul = cost.mul_count / window.size
        cost_ok &= a4["mul_per_token"] < adaptive["mul_per_token"] < a8_mul
        ppl_wins += adaptive["ppl"] <= a4["ppl"]
        lines.append(f"seed {seed} a4 {a4['ppl']:.4f} adaptive {adaptive['ppl']:.4f}")
    assert _verdict(
        cost_ok and ppl_wins >= 4,
        "adaptive bits tradeoff",
        f"cost strictly between: {cost_ok}, ppl wins {ppl_wins}/5; " + "; ".join(lines),
    )


def _tree_hashes(root):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


def test_reruns_bit_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "steps": 5, "seed": 0, "corpus_length": 512,
        "teacher_steps": 5, "teacher_lr": 0.3, "lr": 0.05,
    }))
    hashes = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(
            ["eval", "--checkpoint", str(out / "student.ckpt"), "--out", str(out / "ev")]
        ) == 0
        assert cli_main(
            ["gemm-bench", "--shapes", "8x8x8;16x16x16", "--no-time", "--out", str(out / "bench")]
        ) == 0
        hashes.append(
            (_tree_hashes(out), _tree_hashes(out / "ev"), _tree_hashes(out / "bench"))
        )
    n_files = sum(len(h) for h in hashes[0])
    assert _verdict(
        hashes[0] == hashes[1], "rerun determinism",
        f"{n_files} output files hash-identical across reruns of train, eval, gemm-bench",
    )
