"""commroute benchmark: runs one workload for one seed and prints its metrics.

    python3 perfbench/run.py --workload route_small --seed 0 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the program from its
`src/` directory. Each pass runs every operation of the workload once, one
after another (a closed loop with one caller); passes repeat until
`--seconds` have elapsed. Every answer is checked against a reference and
the program's validators.

--trace 0  end-to-end metrics with tracing off: median pass wall time,
           peak resident memory and the median of several set-ups.
--trace 1  untraced passes, then traced passes whose spans give per-layer
           self times and counts, then one pass that measures assembly
           memory; the traced minus the untraced pass time is the tracing
           overhead.

Report lines come first; the last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}. Full results, and the
spans of a traced run, go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3  # set-ups in child processes, on top of the run's own
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "backends.highs_s": "s", "backends.highs_nodes": "count", "backends.infeasible_s": "s",
    "backends.assemble_s": "s", "backends.assemble_peak_mb": "MB",
    "pipeline.s": "s", "pipeline.solves": "count", "pipeline.phase1_probes": "count",
    "pipeline.phase3_solves": "count",
    "models.build_s": "s", "models.decode_s": "s",
    "models.vars": "count", "models.rows": "count", "models.nnz": "count",
    "oracle.reduce_s": "s", "oracle.starts": "count", "oracle.kernel_s": "s",
    "oracle.kernel_calls": "count", "graphs.automorphisms_s": "s",
    "solutions.embed_s": "s", "bounds.s": "s", "scheduler.s": "s",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s", "trace.overhead_s": "s",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup(workload: str, seed: int, reduced: bool):
    """Imports, instance generation and reference answers; returns the
    Workload and the seconds it took."""
    start = time.perf_counter()
    if not (SRC / "commroute" / "__init__.py").is_file():
        fail(f"no commroute sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import commroute

    if Path(commroute.__file__).resolve().parent != SRC / "commroute":
        fail(f"imported commroute from {commroute.__file__}, not from {SRC}")
    # The program imports these lazily on its first solve; set-up pays that
    # once so the first timed operation does not.
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    import workloads

    try:
        wl = workloads.build(workload, seed, reduced=reduced)
    except ValueError as exc:
        fail(str(exc))
    return wl, time.perf_counter() - start


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.reduced:
        cmd.append("--reduced")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"set-up in a child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(wl, tracer=None) -> dict:
    """One closed-loop pass over the workload's operations."""
    op_s, failures, depth = [], [], 0
    start = time.perf_counter()
    for op in wl.ops:
        if tracer is not None:
            tracer.instance = op.name
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed one, not a crash
            op_s.append(time.perf_counter() - t0)
            failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            continue
        op_s.append(time.perf_counter() - t0)
        try:
            problem = op.check(out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.name}: {problem}")
        routed = getattr(out, "routed_circuit", None)
        if routed is not None:
            depth += routed.depth
    return {"wall_s": time.perf_counter() - start, "op_s": op_s,
            "failures": failures, "circuit_depth": depth}


def run_passes(wl, seconds: float, make_tracer=None) -> list[dict]:
    """Passes until `seconds` have elapsed, at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if make_tracer is None:
            passes.append(run_pass(wl))
        else:
            with make_tracer() as tracer:
                rec = run_pass(wl, tracer)
            rec["tracer"] = tracer
            passes.append(rec)
    return passes


def answer_times(passes: list[dict]) -> dict:
    """Median and tail of per-operation answer times across all passes.

    The tail is the highest order statistic with TAIL_BEYOND samples above
    it; it is reported only when that lies above the median.
    """
    times = sorted(t for p in passes for t in p["op_s"])
    out = {"samples": len(times), "p50_s": statistics.median(times)}
    if len(times) > 2 * TAIL_BEYOND + 1:
        rank = len(times) - TAIL_BEYOND - 1
        out["tail_s"] = times[rank]
        out["tail_percentile"] = round(100 * (rank + 1) / len(times), 1)
    return out


def machine_meta(args) -> dict:
    import numpy
    import scipy

    import commroute.oracle as oracle

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reduced": args.reduced,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "kernel": getattr(oracle, "IMPLEMENTATION", None),
        "loop": "closed, one caller",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl, own_setup_s: float) -> tuple[dict, dict, list[dict]]:
    setups = [child_setup_seconds(args) for _ in range(SETUP_REPEATS)] + [own_setup_s]
    passes = run_passes(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    report = {
        "passes": len(passes),
        "pass_wall_s": {"min": min(p["wall_s"] for p in passes),
                        "max": max(p["wall_s"] for p in passes)},
        "setup_samples_s": setups,
        "answer_s": answer_times(passes),
        "fail_rate": failed / attempted,
        "circuit_depth": passes[0]["circuit_depth"],
    }
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, report, passes


def per_layer(args, wl) -> tuple[dict, dict, list[dict], list[dict]]:
    import tracing

    plain = run_passes(wl, args.seconds)
    traced = run_passes(wl, args.seconds, tracing.Tracer)
    memory = run_passes(wl, 0, lambda: tracing.Tracer(track_memory=True))
    layers = [tracing.layer_metrics(p["tracer"].spans) for p in traced]
    values = {k: (statistics.median_low if LAYER_UNITS[k] == "count" else statistics.median)(
        [m[k] for m in layers]) for k in layers[0]}
    untraced = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values.update({
        "backends.assemble_peak_mb": tracing.assemble_peak_mb(memory[0]["tracer"].spans),
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced,
    })
    counts = [k for k, unit in LAYER_UNITS.items() if unit == "count"]
    report = {
        "passes": {"untraced": len(plain), "traced": len(traced), "memory": 1},
        "tracing_overhead_share": (traced_wall - untraced) / untraced,
        "counts_repeat_across_passes": all(m[k] == layers[0][k] for m in layers for k in counts),
        "unwrapped": traced[0]["tracer"].missing,
    }
    spans = [dict(s, pass_index=i) for i, p in enumerate(traced) for s in p["tracer"].spans]
    metrics = {k: metric(values[k], unit) for k, unit in LAYER_UNITS.items()}
    return metrics, report, plain + traced + memory, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true", help="a few small instances (self-check)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, own_setup_s = setup(args.workload, args.seed, args.reduced)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    spans = None
    if args.trace:
        metrics, report, passes, spans = per_layer(args, wl)
    else:
        metrics, report, passes = end_to_end(args, wl, own_setup_s)
    attempted = sum(len(p["op_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    report.update(meta=machine_meta(args), operations=len(wl.ops),
                  reference_sources=wl.reference_sources, failures=failures[:20])

    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_s{args.seed}_t{args.trace}{'_reduced' if args.reduced else ''}"
    record = {"report": report, "metrics": metrics}
    if spans is not None:
        record["spans"] = spans
    (RESULTS / f"{stem}.json").write_text(json.dumps(record) + "\n")

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
