"""Command-line surface: kernel checks, benchmarks, training, eval, dumps.

Every command resolves a RunConfig (JSON file plus flag overrides, or a
checkpoint's echo for eval and inspect), stamps outputs with its sha256 hash,
and is bit-reproducible for a fixed seed. Artifacts go into the ``--out``
directory (``reports`` by default), made just before the first of them, so a
run that fails leaves none. Exit codes: 0 success, 1 verification or training
failure, 2 usage/config.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .kernels import (
    CostCounter,
    gemm_i4_packed,
    gemm_i8,
    gemm_mixed,
    pack_int4,
    scalar_reference_gemm,
)
from .losses import qk_stats
from .model import (
    Calibration,
    MicroTransformerConfig,
    forward_tape,
    forward_teacher,
    param_specs,
    params_to_tape,
    perplexity_eval,
)
from .seeding import SEED_RULE, is_seed, substream
from .token_bits import token_importance
from .train import (
    SEEDS,
    QatTrainer,
    RunConfig,
    TrainingDiverged,
    ablation_run,
    make_corpus,
    pretrain_teacher,
    split_corpus,
)
from . import gradtape as gt

_MODEL_KEYS = {f.name for f in fields(MicroTransformerConfig)}
DEFAULT_OUT = "reports"
DEFAULT_BENCH_SHAPES = ((8, 8, 8), (16, 16, 16), (32, 32, 32), (64, 64, 64), (64, 32, 8), (32, 8, 64))


class RunConfigError(ValueError):
    """Unknown keys, malformed values, or unreadable config files."""


def load_run_config(path: str | None, **flags) -> RunConfig:
    """The config file at ``path`` (defaults when None), with the non-None ``flags`` laid over its keys."""
    try:
        raw = {} if path is None else json.loads(Path(path).read_text())
    except OSError as e:
        raise RunConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise RunConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise RunConfigError("config root must be a JSON object")
    raw.update((key, value) for key, value in flags.items() if value is not None)
    model = {key: raw.pop(key) for key in raw.keys() & _MODEL_KEYS}
    try:  # the constructors reject unknown keys (TypeError) and values that break a field's rule
        return RunConfig(model=MicroTransformerConfig(**model), **raw)
    except (TypeError, ValueError) as e:
        raise RunConfigError(str(e)) from e


def _check_splits(rc: RunConfig, n_tokens: int) -> None:
    """Training draws windows of seq_len + 1 tokens at a random start; eval reads whole ones."""
    train, heldout = split_corpus(range(n_tokens), rc.heldout_fraction)  # lengths only, no tokens
    seq = rc.model.seq_len
    for name, have, need in (("training", len(train), seq + 2), ("held-out", len(heldout), seq + 1)):
        if have < need:
            raise RunConfigError(
                f"a {n_tokens}-token corpus leaves {have} {name} tokens at heldout_fraction "
                f"{rc.heldout_fraction}; seq_len {seq} needs at least {need}"
            )


def _run_config_from_echo(config: dict) -> RunConfig:
    """Rebuild a RunConfig from a checkpoint's config echo: run keys beside a 'model' object."""
    model = config.get("model")
    if not isinstance(model, dict):
        raise CheckpointError("config echo has no 'model' object")
    try:
        return RunConfig(**{**config, "model": MicroTransformerConfig(**model)})
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"config echo: {e}") from e


def _check_tensors(cfg: MicroTransformerConfig, params: dict) -> None:
    """Checkpoint tensors must be exactly the configured model's parameters.

    The specs are read lazily, so an echo with a huge size fails at its first
    missing or misshapen tensor without allocating or listing the model.
    """
    seen = set()
    for name, shape, _ in param_specs(cfg):
        if name not in params:
            raise CheckpointError(f"checkpoint has no tensor {name!r}")
        if params[name].shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape {params[name].shape}, the config needs {shape}")
        if not np.isfinite(params[name]).all():
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
        seen.add(name)
    stray = sorted(params.keys() - seen)
    if stray:
        raise CheckpointError(f"checkpoint tensor {stray[0]!r} is not a parameter of the configured model")


def _load_model_checkpoint(path) -> tuple[Checkpoint, RunConfig, Calibration | None]:
    """A checkpoint, the run config it echoes and its calibration, all checked against each other."""
    ckpt = load_checkpoint(path)
    rc = _run_config_from_echo(ckpt.config)
    _check_tensors(rc.model, ckpt.params)
    try:
        calib = None if ckpt.calibration is None else Calibration.from_state_dict(ckpt.calibration, rc.model.layers)
    except ValueError as e:
        raise CheckpointError(f"calibration: {e}") from e
    return ckpt, rc, calib


def _load_corpus(rc: RunConfig) -> np.ndarray:
    if rc.corpus is not None:
        try:
            tokens = np.load(rc.corpus)
        except (OSError, ValueError) as e:
            raise RunConfigError(f"cannot read corpus {rc.corpus}: {e}") from e
        vocab = rc.model.vocab
        if not isinstance(tokens, np.ndarray) or tokens.ndim != 1 or tokens.dtype.kind not in "iu":
            raise RunConfigError(f"corpus {rc.corpus} is not a 1-D integer token array")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab):
            raise RunConfigError(f"corpus {rc.corpus} has token ids outside [0, {vocab})")
        _check_splits(rc, tokens.size)
        return tokens.astype(np.int64)
    _check_splits(rc, rc.corpus_length)
    return make_corpus(rc.model.seed, rc.model.vocab, rc.corpus_length)


def _out_dir(args) -> Path:
    """The ``--out`` directory, made on the spot: commands call it just before their first artifact."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# verify-kernels


def _random_case(seed: int, index: int):
    rng = substream(seed, f"verify.{index}")
    m, k, n = (int(v) for v in rng.integers(1, 65, size=3))
    w = rng.integers(-8, 8, size=(m, k)).astype(np.int8)
    x = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
    return w, x


def cmd_verify_kernels(args) -> int:
    seed, cases = args.seed, args.cases
    if cases < 1:
        print("cases must be >= 1", file=sys.stderr)
        return 2
    if not is_seed(seed):  # verify-kernels reads no config, so its flag is checked here
        raise RunConfigError(f"seed must be {SEED_RULE}, got {seed}")
    for i in range(cases):
        w, x = _random_case(seed, i)
        byte = gemm_i8(w, x, CostCounter())
        packed = gemm_i4_packed(pack_int4(w), x, CostCounter())
        ref = scalar_reference_gemm(w, x)
        if not (np.array_equal(byte, ref) and np.array_equal(packed, ref)):
            m, k = w.shape
            n = x.shape[1]
            print(
                f"MISMATCH case={i} seed={seed} shape M={m} K={k} N={n}; "
                f"rerun: squant verify-kernels --seed {seed} --cases {i + 1}"
            )
            return 1
        if args.corrupt and i == 0:
            # fault injection for the harness itself: bump one packed unit's
            # low lane (row 0, always a real row) in the form the kernel reads
            wp = pack_int4(w)
            wp.lanes[0, 0] += 1
            bad = gemm_i4_packed(wp, x, CostCounter())
            if np.array_equal(bad, ref):
                print(f"MISMATCH case={i} seed={seed}: corruption went undetected")
                return 1
            print(
                f"MISMATCH case={i} seed={seed} shape M={w.shape[0]} K={w.shape[1]} "
                f"N={x.shape[1]}: injected fault detected as intended"
            )
            return 1
    print(f"verify-kernels: {cases} cases, byte == packed == scalar reference, 0 mismatches")
    return 0


# ---------------------------------------------------------------------------
# gemm-bench


def _parse_shapes(text: str) -> tuple:
    """The (M, K, N) triples of a non-empty ``--shapes`` list like '64x64x64;32x16x8', each size >= 1."""
    try:
        shapes = tuple(tuple(int(v) for v in part.strip().split("x")) for part in text.split(";"))
    except ValueError:
        shapes = ()
    if not shapes or not all(len(s) == 3 and min(s) >= 1 for s in shapes):
        raise RunConfigError(f"--shapes must be a non-empty 'MxKxN;MxKxN' list of integers >= 1, got {text!r}")
    return shapes


def _bench_operands(seed: int, m: int, k: int, n: int):
    rng = substream(seed, f"bench.{m}x{k}x{n}")
    w = rng.integers(-8, 8, size=(m, k)).astype(np.int8)
    x8 = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
    x4 = rng.integers(-8, 8, size=(k, n)).astype(np.int8)
    return w, x8, x4


def _bench_kernel(kernel: str, w, x8, x4):
    cost = CostCounter()
    if kernel == "byte":
        run = lambda c: gemm_i8(w, x8, c)
    elif kernel == "packed":
        wp = pack_int4(w)
        run = lambda c: gemm_i4_packed(wp, x8, c)
    else:  # "mixed"
        wp = pack_int4(w)
        n = x8.shape[1]
        x = np.concatenate([x8[:, : n // 2], x4[:, n // 2 :]], axis=1)  # 8-bit tokens first, then 4-bit
        bits = np.repeat([8, 4], [n // 2, n - n // 2])
        run = lambda c: gemm_mixed(wp, x, bits, c)
    run(cost)
    return run, cost


def cmd_gemm_bench(args) -> int:
    if args.reps < 1:
        print("reps must be >= 1", file=sys.stderr)
        return 2
    shapes = DEFAULT_BENCH_SHAPES if args.shapes is None else _parse_shapes(args.shapes)
    rc = load_run_config(args.config, seed=args.seed)
    chash = rc.config_hash()
    kernels = ("byte", "packed", "mixed")
    rows, json_rows = [], []
    for m, k, n in shapes:
        w, x8, x4 = _bench_operands(rc.model.seed, m, k, n)
        for kernel in kernels:
            if kernel == "mixed" and n < 2:
                continue
            run, cost = _bench_kernel(kernel, w, x8, x4)
            if args.no_time:
                median_ns = 0
            else:
                times = []
                for _ in range(args.reps):
                    t0 = time.perf_counter_ns()
                    run(CostCounter())
                    times.append(time.perf_counter_ns() - t0)
                median_ns = int(statistics.median(times))
            rows.append([m, k, n, kernel, cost.mul_count, cost.add_count, median_ns, args.reps, chash])
            # wall time per modelled multiply, JSON only: the CSV header is fixed
            json_rows.append(rows[-1] + [median_ns / cost.mul_count])
    header = ["m", "k", "n", "kernel", "mul_count", "add_count", "median_wall_ns", "reps", "config_hash"]
    out_dir = _out_dir(args)
    _write_csv(out_dir / "gemm_bench.csv", header, rows)
    _write_json(
        out_dir / "gemm_bench.json",
        {"header": header + ["ns_per_mul"], "rows": json_rows, "config_hash": chash},
    )
    print(f"gemm-bench: {len(rows)} rows -> {out_dir / 'gemm_bench.csv'}")
    return 0


# ---------------------------------------------------------------------------
# train / eval / ablate


def cmd_train(args) -> int:
    rc = load_run_config(args.config, seed=args.seed)
    chash = rc.config_hash()
    cfg = rc.model
    corpus = _load_corpus(rc)
    train_split, heldout = split_corpus(corpus, rc.heldout_fraction)
    teacher = pretrain_teacher(cfg, train_split, rc.teacher_steps, rc.teacher_lr)
    teacher_ppl = perplexity_eval(cfg, teacher, heldout, quantized=False)
    trainer = QatTrainer(cfg, teacher, train_split)
    reports = trainer.run(cfg.steps)
    student_ppl = perplexity_eval(cfg, trainer.params, heldout, calib=trainer.calib, quantized=True)
    out_dir = _out_dir(args)
    with open(out_dir / "loss_log.jsonl", "w") as f:
        for report in reports:
            f.write(json.dumps({k: float(v) for k, v in report.to_dict().items()}, sort_keys=True) + "\n")
    save_checkpoint(out_dir / "teacher.ckpt", Checkpoint(config=rc.resolved(), params=teacher))
    save_checkpoint(
        out_dir / "student.ckpt",
        Checkpoint(config=rc.resolved(), params=trainer.params, calibration=trainer.calib.state_dict()),
    )
    summary = {
        "config_hash": chash,
        "steps": cfg.steps,
        "teacher_ppl": teacher_ppl,
        "student_ppl": student_ppl,
        "final_loss": float(reports[-1].total) if reports else None,
    }
    _write_json(out_dir / "summary.json", summary)
    print(f"train: teacher ppl {teacher_ppl:.4f}, student ppl {student_ppl:.4f} -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    if args.checkpoint is None:
        print("eval requires --checkpoint", file=sys.stderr)
        return 2
    ckpt, rc, calib = _load_model_checkpoint(args.checkpoint)
    cfg = rc.model
    corpus = _load_corpus(rc)
    _, heldout = split_corpus(corpus, rc.heldout_fraction)
    ppl = perplexity_eval(cfg, ckpt.params, heldout, calib=calib, quantized=calib is not None)
    out_dir = _out_dir(args)
    result = {"config_hash": rc.config_hash(), "ppl": ppl, "role": "teacher" if calib is None else "student"}
    _write_json(out_dir / "eval.json", result)
    print(f"eval: ppl {ppl:.4f} -> {out_dir / 'eval.json'}")
    return 0


def cmd_ablate(args) -> int:
    rc = load_run_config(args.config)
    if rc.corpus is not None:
        raise RunConfigError(
            f"ablate synthesizes one corpus per seed from corpus_length and cannot read corpus {rc.corpus!r}"
        )
    if rc.model.seed != 0:
        raise RunConfigError(f"ablate runs its own seeds {list(SEEDS)} and cannot honour seed {rc.model.seed}")
    _check_splits(rc, rc.corpus_length)
    chash = rc.config_hash()
    rows = ablation_run(rc)
    header = (
        ["loss_cell", "quant_cell"]
        + [f"ppl_seed{s}" for s in SEEDS]
        + ["ppl_mean", "mul_per_token", "config_hash"]
    )
    csv_rows = [
        [r["loss_cell"], r["quant_cell"]]
        + [f"{p:.6f}" for p in r["ppl_by_seed"]]
        + [f"{r['ppl_mean']:.6f}", f"{r['mul_per_token']:.2f}", chash]
        for r in rows
    ]
    out_dir = _out_dir(args)
    _write_csv(out_dir / "ablation.csv", header, csv_rows)
    _write_json(out_dir / "ablation.json", {"rows": rows, "config_hash": chash, "seeds": list(SEEDS)})
    print(f"ablate: {len(rows)} cells x {len(SEEDS)} seeds -> {out_dir / 'ablation.csv'}")
    return 0


# ---------------------------------------------------------------------------
# inspect


def _histogram_rows(layer: int, tensor: str, teacher_vals, student_vals, chash, bins: int = 16):
    lim = float(max(np.abs(teacher_vals).max(), np.abs(student_vals).max(), 1e-8))
    edges = np.linspace(-lim, lim, bins + 1)
    t_counts, _ = np.histogram(teacher_vals, bins=edges)
    s_counts, _ = np.histogram(student_vals, bins=edges)
    return [
        [layer, tensor, b, f"{edges[b]:.6g}", f"{edges[b + 1]:.6g}", int(t_counts[b]), int(s_counts[b]), chash]
        for b in range(bins)
    ]


def _inspect_tokens(text: str, cfg) -> np.ndarray | None:
    """Token ids of ``--tokens``; None, after one line on stderr, if unusable."""
    try:
        ids = [int(v) for v in text.split(",")]
    except ValueError:
        problem = f"must be comma-separated integers, got {text!r}"
    else:
        bad = [i for i in ids if not 0 <= i < cfg.vocab]
        if not 1 <= len(ids) <= cfg.seq_len:
            problem = f"gives {len(ids)} ids; the model reads 1 to {cfg.seq_len}"
        elif bad:
            problem = f"id {bad[0]} is outside the vocabulary [0, {cfg.vocab})"
        else:
            return np.array(ids, dtype=np.int64)
    print(f"inspect: --tokens {problem}", file=sys.stderr)
    return None


def cmd_inspect(args) -> int:
    ckpt_path = args.checkpoint
    if ckpt_path is None:
        print("inspect requires --checkpoint", file=sys.stderr)
        return 2
    ckpt, rc, calib = _load_model_checkpoint(ckpt_path)
    cfg = rc.model
    chash = rc.config_hash()
    if args.tokens is not None:
        tokens = _inspect_tokens(args.tokens, cfg)
        if tokens is None:
            return 2
    else:
        corpus = _load_corpus(rc)
        _, heldout = split_corpus(corpus, rc.heldout_fraction)
        tokens = heldout[: cfg.seq_len]
    teacher_params = ckpt.params
    if args.teacher:
        teacher_params = load_checkpoint(args.teacher).params
        _check_tensors(cfg, teacher_params)
    teacher_res = forward_teacher(cfg, teacher_params, tokens)
    tape = gt.Tape(dtype=np.float32)
    tp = params_to_tape(tape, ckpt.params, trainable=False)
    student_res = forward_tape(tape, tp, tokens, cfg, quantized=calib is not None, training=False, calib=calib)
    out_dir = _out_dir(args)

    def head_stack(nodes):  # [L, H, T, dh]
        return np.stack([gt.head_view(node.array, cfg.heads) for node in nodes])

    tq, tk = head_stack(teacher_res.q_nodes), head_stack(teacher_res.k_nodes)
    sq, sk = head_stack(student_res.q_nodes), head_stack(student_res.k_nodes)
    t_stats = qk_stats(tq, tk)
    s_stats = qk_stats(sq, sk)
    var_rows = [
        [l, h, f"{t_stats.var_q[l, h]:.6g}", f"{t_stats.var_k[l, h]:.6g}",
         f"{s_stats.var_q[l, h]:.6g}", f"{s_stats.var_k[l, h]:.6g}", chash]
        for l in range(cfg.layers)
        for h in range(cfg.heads)
    ]
    _write_csv(
        out_dir / "qk_variance.csv",
        ["layer", "head", "teacher_q_var", "teacher_k_var", "student_q_var", "student_k_var", "config_hash"],
        var_rows,
    )

    hist_rows = []
    for l in range(cfg.layers):
        hist_rows += _histogram_rows(l, "q", tq[l].ravel(), sq[l].ravel(), chash)
        hist_rows += _histogram_rows(l, "k", tk[l].ravel(), sk[l].ravel(), chash)
    _write_csv(
        out_dir / "qk_histograms.csv",
        ["layer", "tensor", "bin", "bin_lo", "bin_hi", "teacher_count", "student_count", "config_hash"],
        hist_rows,
    )

    t_len = tokens.size
    map_rows = []
    for l in range(cfg.layers):
        t_mean = teacher_res.attn_nodes[l].array.mean(axis=0)
        s_mean = student_res.attn_nodes[l].array.mean(axis=0)
        for r in range(t_len):
            for c in range(t_len):
                map_rows.append([l, r, c, f"{t_mean[r, c]:.6g}", f"{s_mean[r, c]:.6g}", chash])
    _write_csv(
        out_dir / "attention_mean.csv",
        ["layer", "row", "col", "teacher_value", "student_value", "config_hash"],
        map_rows,
    )

    score_rows = []
    for l in range(cfg.layers):
        scores = token_importance(student_res.attn_nodes[l].array)
        score_rows += [[l, t, f"{scores[t]:.6g}", chash] for t in range(t_len)]
    _write_csv(
        out_dir / "first_col_scores.csv",
        ["layer", "token_index", "score", "config_hash"],
        score_rows,
    )

    plan_rows = []
    for l, plan in enumerate(student_res.plans or []):
        if plan is None:
            continue
        for t in range(t_len):
            plan_rows.append([l, t, int(plan.bits[t]), chash])
    _write_csv(out_dir / "bit_plans.csv", ["layer", "token_index", "bits", "config_hash"], plan_rows)
    print(f"inspect: wrote qk_variance, qk_histograms, attention_mean, first_col_scores, bit_plans -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="squant", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-kernels", help="randomized kernel equivalence suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--corrupt", action="store_true", help="inject a packing fault to prove detection")
    p.set_defaults(func=cmd_verify_kernels)

    p = sub.add_parser("gemm-bench", help="instruction counts and wall time per kernel")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--shapes", help="semicolon list like '64x64x64;32x16x8'")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--no-time", action="store_true", help="zero the timing column for bit-stable output")
    p.add_argument("--out", default=DEFAULT_OUT)
    p.set_defaults(func=cmd_gemm_bench)

    p = sub.add_parser("train", help="pretrain teacher, then distillation QAT")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=DEFAULT_OUT)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="held-out perplexity of a checkpoint, under the recipe it echoes")
    p.add_argument("--checkpoint")
    p.add_argument("--out", default=DEFAULT_OUT)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="loss-cell x quant-cell grid over seeds")
    p.add_argument("--config")
    p.add_argument("--out", default=DEFAULT_OUT)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect", help="q/k stats, attention maps, scores, bit plans")
    p.add_argument("--checkpoint")
    p.add_argument("--teacher", help="separate teacher checkpoint for comparisons")
    p.add_argument("--tokens", help="comma-separated token ids; default first held-out window")
    p.add_argument("--out", default=DEFAULT_OUT)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a diverging run overflows on its way to the finiteness check that stops it: no warnings on top
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except RunConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a legal config too large for this machine, such as a huge corpus_length or dim
        print(f"config error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except TrainingDiverged as e:  # train and ablate: the offending step's dump, on one line
        print(json.dumps(e.dump, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
