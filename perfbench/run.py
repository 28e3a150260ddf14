"""squant benchmark: closed-loop workloads against the unmodified library.

Usage, from the repository root:

    python3 perfbench/run.py --workload qat_train --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload with no instrumentation and reports the
end-to-end metrics. ``--trace 1`` runs it again under the span recorder and
reports the per-layer metrics. Human-readable report lines come first; the
last line of standard output is the JSON result. A record of each run,
including the environment and, when tracing, the first spans, is written to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread: on a 2-core machine the default two threads made the small
# matmuls here slower and noisier. Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("qat_train", "int_infer_wide")

# Sources of the per-layer metrics listed in BENCHMARK.json. Layer functions
# in the loop report calls and self seconds per traced operation; functions
# that run only in setup or in the checks after the loop report inclusive
# seconds of one traced setup plus those checks.
PER_OP_FUNCTIONS = (
    "gradtape.Tape.backward",
    "gradtape.matmul",
    "gradtape.softmax_rows",
    "gradtape.layernorm",
    "gradtape.gather_rows",
    "gradtape.cross_entropy",
    "model.params_to_tape",
    "model.forward_tape",
    "model.forward_teacher",
    "model.forward_int",
    "quant.fake_quant",
    "quant.quantize",
    "quant.calibrate_scale",
    "token_bits.fake_quant_grouped",
    "token_bits.group_quantize",
    "token_bits.plan_for_layer",
    "token_bits.heap_topk",
    "losses.entropy_loss_node",
    "losses.distribution_loss_node",
    "losses.distill_loss_node",
    "losses.total_loss_node",
    "kernels.gemm_i8",
    "kernels.gemm_i4_packed",
    "kernels.gemm_mixed",
    "kernels.pack_int4",
    "kernels.unpack_int4",
    "train.QatTrainer.step",
)
CALLS_ONLY = ("kernels.pack_int4", "kernels.unpack_int4")
SIDE_FUNCTIONS = (
    "train.make_corpus",
    "train.pretrain_teacher",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "model.perplexity_eval",
)
KERNELS = ("kernels.gemm_i8", "kernels.gemm_i4_packed")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_squant():
    if not (SRC / "squant" / "__init__.py").is_file():
        _fail(f"no squant sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import squant

    if Path(squant.__file__).resolve().parent != (SRC / "squant").resolve():
        _fail(f"imported squant from {squant.__file__}, not from {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _low(samples: list[float]) -> tuple[float, float]:
    """Lowest percentile with at least ten samples below it, and that percentile.

    On a shared host the core runs this process either at full speed or about
    1.5x slower while a neighbour contends for it, switching every few tens of
    milliseconds, and the share of fast time drifts over minutes. The median
    and mean of a run read that share; this low order statistic reads the
    program's speed in the fast state. With 20 samples or fewer it is the
    minimum.
    """
    ordered = sorted(samples)
    i = 10 if len(ordered) > 20 else 0
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With 20 samples or fewer that percentile is not above the median, so the
    maximum is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    i = n - 11 if n > 20 else n - 1
    return ordered[i], 100.0 * (i + 1) / n


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


class Tally:
    """Attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def run_untraced(wl, seconds: float, tally: Tally):
    setup_s, state = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = wl.setup()
        setup_s.append(perf_counter() - t0)
    op_s = []
    start = perf_counter()
    deadline = start + seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        t0 = perf_counter()
        out = wl.op(state, k)
        op_s.append(perf_counter() - t0)
        tally.add(wl.check(out))
        k += 1
    loop_s = perf_counter() - start
    for ok in wl.finish(state):
        tally.add(ok)
    low, low_pct = _low(op_s)
    tail, tail_pct = _tail(op_s)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_ms_low": (low * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    report = {
        "setup_s": metrics["setup_s"],
        **wl.report(op_s),
        "tokens_per_s": (wl.tokens_per_op * len(op_s) / loop_s, "tokens/s"),
        f"{wl.latency}_low": metrics["op_ms_low"],
        f"{wl.latency}_low_percentile": (low_pct, "%"),
        f"{wl.latency}_p50": (statistics.median(op_s) * 1e3, "ms"),
        f"{wl.latency}_tail": metrics["op_ms_tail"],
        f"{wl.latency}_tail_percentile": (tail_pct, "%"),
        f"{wl.latency}_samples": (float(len(op_s)), "count"),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_ops_ratio": (tally.failed / max(tally.attempted, 1), "failed/attempted"),
    }
    return metrics, report, {}


def run_traced(wl, seconds: float, tally: Tally):
    from spans import SpanRecorder, patched, traced_names

    names = traced_names()
    side_rec = SpanRecorder(keep=0)
    with patched(names, side_rec.wrap):
        state = wl.setup()

    rec = SpanRecorder()
    traced_s = []

    def traced_op(k):
        rec.op = k
        rec.push("bench.op")
        try:
            out = wl.op(state, k)
        finally:
            traced_s.append(rec.pop())
        tally.add(wl.check(out))
        return out

    def untraced_op(k):
        t0 = perf_counter()
        out = wl.op(reference, k)
        ref_s.append(perf_counter() - t0)
        tally.add(wl.check(out))
        return out

    # The first operations run twice from one snapshot, untraced and traced,
    # in pairs whose order alternates so both sides see the same machine
    # state: outputs must be bit-identical, and times give the overhead.
    reference = copy.deepcopy(state)
    ref_s = []
    identical = True
    deadline = perf_counter() + seconds
    for k in range(wl.compare_ops):
        if k % 2:
            with patched(names, rec.wrap):
                traced = traced_op(k)
            untraced = untraced_op(k)
        else:
            untraced = untraced_op(k)
            with patched(names, rec.wrap):
                traced = traced_op(k)
        identical &= wl.same(traced, untraced)
    tally.add(identical)
    with patched(names, rec.wrap):
        k = wl.compare_ops
        while perf_counter() < deadline:
            traced_op(k)
            k += 1
    with patched(names, side_rec.wrap):
        for ok in wl.finish(state):
            tally.add(ok)

    n = len(traced_s)
    metrics = {}
    for fn in PER_OP_FUNCTIONS:
        metrics[f"{fn}.calls"] = (rec.calls(fn) / n, "calls/op")
        if fn not in CALLS_ONLY:
            metrics[f"{fn}.self_s"] = (rec.self_s(fn) / n, "s/op")
    counts = rec.counts
    metrics["gradtape.nodes_per_step"] = (_ratio(counts["gradtape.tape_nodes"], rec.calls("gradtape.Tape.backward")), "nodes")
    metrics["token_bits.hi_token_fraction"] = (_ratio(counts["token_bits.rows_8bit"], counts["token_bits.rows"]), "share")
    for kernel in KERNELS:
        metrics[f"{kernel}.mul_count"] = (counts[f"{kernel}.mul_count"] / n, "muls/op")
        metrics[f"{kernel}.add_count"] = (counts[f"{kernel}.add_count"] / n, "adds/op")
        metrics[f"{kernel}.ns_per_mul"] = (_ratio(rec.self_s(kernel) * 1e9, counts[f"{kernel}.mul_count"]), "ns")
        metrics[f"{kernel}.bytes_moved"] = (counts[f"{kernel}.bytes_moved"] / n, "computed-B/op")
    for fn in SIDE_FUNCTIONS:
        metrics[f"{fn}.s"] = (side_rec.total_s(fn), "s")
    dual = {"model.dual_path_max_abs_diff": 0.0, "model.plan_mismatch_windows": 0.0, **wl.layer_counts(state)}
    metrics["model.dual_path_max_abs_diff"] = (dual["model.dual_path_max_abs_diff"], "abs")
    metrics["model.plan_mismatch_windows"] = (dual["model.plan_mismatch_windows"], "count")

    wall = rec.total_s("bench.op")
    library_self = sum(st[2] for name, st in rec.stats.items() if name != "bench.op")
    metrics["trace.ops"] = (float(n), "count")
    metrics["trace.op_wall_s"] = (wall / n, "s/op")
    overhead = statistics.median(traced_s[: wl.compare_ops]) - statistics.median(ref_s)
    metrics["trace.overhead_s"] = (overhead, "s/op")
    metrics["trace.self_share"] = (library_self / wall, "share")
    return metrics, dict(metrics), {"side": side_rec.dump(), "loop": rec.dump()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="squant end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_squant()
    from workloads import WORKLOADS

    env = _environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    metrics, report, trace = run(wl, args.seconds, tally)
    for name, (value, unit) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    record = {"env": env, "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()}, **trace}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
