"""Spans around the public functions each commroute layer calls.

The wrappers live here, in the benchmark, and are installed on module
attributes only for a traced pass; untraced passes run the program
unmodified. A span records its name, start, end, parent span and the
operation (instance) it belongs to. Per-layer numbers are self times:
a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict


def _model_size(rec: dict, args: tuple, out) -> None:
    model = next(a for a in args if hasattr(a, "constraints"))
    rec["vars"] = model.num_vars
    rec["rows"] = model.num_constraints
    rec["nnz"] = sum(len(con.terms) for con in model.constraints)


def _highs_result(rec: dict, args: tuple, out) -> None:
    rec["status"] = int(out.status)
    rec["nodes"] = int(getattr(out, "mip_node_count", 0) or 0)


def _attempt_status(rec: dict, args: tuple, out) -> None:
    rec["status"] = out.status


def _kernel_starts(rec: dict, args: tuple, out) -> None:
    rec["starts"] = len(args[1])


def _targets():
    """(owner, attribute, span name, post-call hook) for every wrapped call.

    The same function is wrapped in each namespace a caller looks it up in.
    """
    import scipy.optimize

    import commroute.graphs as graphs
    import commroute.milp.backends as backends
    import commroute.milp.models as models
    import commroute.oracle as oracle
    import commroute.pipeline as pipeline

    out = [
        (pipeline, "route", "pipeline.route", None),
        (pipeline, "solve_min_swaps", "pipeline.solve_min_swaps", None),
        (pipeline, "is_subgraph_placement", "solutions.is_subgraph_placement", None),
        (oracle, "is_subgraph_placement", "solutions.is_subgraph_placement", None),
        (pipeline, "step_lower_bound", "bounds.step_lower_bound", None),
        (oracle, "max_gain_per_swap", "bounds.max_gain_per_swap", None),
        (oracle, "max_gain_per_step", "bounds.max_gain_per_step", None),
        (pipeline, "solve_min_swaps_at", "models.solve_min_swaps_at", _attempt_status),
        (models, "build_variant", "models.build_variant", None),
        (models, "build_swap_step_model", "models.build_swap_step_model", None),
        (pipeline, "build_swap_step_model", "models.build_swap_step_model", None),
        (models, "add_hardware_symmetry", "models.add_hardware_symmetry", None),
        (models, "add_complete_placement_fixing", "models.add_complete_placement_fixing", None),
        (models, "decode_solution", "models.decode_solution", None),
        (pipeline, "decode_solution", "models.decode_solution", None),
        (backends.ScipyBackend, "solve", "backends.ScipyBackend.solve", _model_size),
        (backends, "solve_lp_relaxation", "backends.solve_lp_relaxation", _model_size),
        (scipy.optimize, "milp", "highs.milp", _highs_result),
        (scipy.optimize, "linprog", "highs.linprog", _highs_result),
        (pipeline, "schedule_circuit", "scheduler.schedule_circuit", None),
        (oracle, "oracle_min_steps", "oracle.oracle_min_steps", None),
        (oracle, "oracle_min_swaps_at", "oracle.oracle_min_swaps_at", None),
        (oracle, "oracle_min_swaps", "oracle.oracle_min_swaps", None),
        (oracle, "automorphisms", "graphs.automorphisms", None),
        (graphs, "automorphisms", "graphs.automorphisms", None),
    ]
    import commroute._search_py as kernel_py

    for kernel in (kernel_py, getattr(oracle, "_kernels", None)):
        if kernel is not None:
            out.append((kernel, "min_steps", "kernel.min_steps", _kernel_starts))
            out.append((kernel, "min_swaps_within", "kernel.min_swaps_within", _kernel_starts))
    return out


class Tracer:
    """Collects spans in memory while installed.

    With `track_memory`, each backend call also records the peak Python
    heap (numpy arrays included) between its entry and the HiGHS call,
    the memory that matrix assembly needs. tracemalloc slows allocation,
    so a memory pass is kept apart from the passes whose times are used.
    """

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[dict] = []
        self.instance: str | None = None
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after):
        tracer = self
        is_backend = name.startswith("backends.")
        is_highs = name.startswith("highs.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            rec = {"id": len(tracer.spans), "name": name, "instance": tracer.instance,
                   "parent": None if parent is None else parent["id"]}
            tracer.spans.append(rec)
            tracer._stack.append(rec)
            if is_backend and tracer.track_memory:
                tracemalloc.start()
            elif is_highs and parent is not None and tracemalloc.is_tracing():
                parent["assemble_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter()
                tracer._stack.pop()
                if is_backend and tracemalloc.is_tracing():
                    tracemalloc.stop()
            if after is not None:
                after(rec, args, out)
                # hook time is tracing cost: keep it out of the parent's self time
                rec["hook_s"] = time.perf_counter() - rec["end"]
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, name, after in _targets():
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[dict]) -> list[float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"] + s.get("hook_s", 0.0)
    return [s["end"] - s["start"] - covered[s["id"]] for s in spans]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def total(*prefixes: str) -> float:
        return sum(t for s, t in zip(spans, own) if s["name"].startswith(prefixes))

    def parent_name(s: dict) -> str | None:
        return None if s["parent"] is None else by_id[s["parent"]]["name"]

    backend = [s for s in spans if s["name"].startswith("backends.")]
    milps = [s for s in spans if s["name"] == "highs.milp"]
    attempts = [s for s in spans if s["name"] == "models.solve_min_swaps_at"
                and parent_name(s) == "pipeline.solve_min_swaps"]
    phase3 = [s for s in backend if parent_name(s) == "pipeline.solve_min_swaps"]
    kernels = [s for s in spans if s["name"].startswith("kernel.")]
    return {
        "backends.highs_s": total("highs."),
        "backends.highs_nodes": sum(s.get("nodes", 0) for s in milps),
        "backends.infeasible_s": sum(s["end"] - s["start"] for s in milps if s.get("status") == 2),
        "backends.assemble_s": total("backends."),
        "pipeline.s": total("pipeline."),
        "pipeline.solves": len(attempts) + len(phase3),
        "pipeline.phase1_probes": sum(1 for s in attempts if s.get("status") != "optimal"),
        "pipeline.phase3_solves": len(phase3),
        "models.build_s": total("models.build_", "models.add_"),
        "models.decode_s": total("models.decode_solution"),
        "models.vars": sum(s.get("vars", 0) for s in backend),
        "models.rows": sum(s.get("rows", 0) for s in backend),
        "models.nnz": sum(s.get("nnz", 0) for s in backend),
        "oracle.reduce_s": total("oracle."),
        "oracle.starts": sum(s.get("starts", 0) for s in kernels),
        "oracle.kernel_s": total("kernel."),
        "oracle.kernel_calls": len(kernels),
        "graphs.automorphisms_s": total("graphs."),
        "solutions.embed_s": total("solutions."),
        "bounds.s": total("bounds."),
        "scheduler.s": total("scheduler."),
    }


def assemble_peak_mb(spans: list[dict]) -> float:
    peaks = [s["assemble_peak_bytes"] for s in spans if "assemble_peak_bytes" in s]
    return max(peaks, default=0) / 2**20
