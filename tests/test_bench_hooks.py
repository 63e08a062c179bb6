"""The benchmark's per-layer spans wrap program functions by name.

perfbench/tracing.py installs its wrappers on module attributes; a rename
or removal in the program leaves a name unwrapped and silently zeroes the
layer metrics built on it. This guard fails instead.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_kernel_calls_reach_the_tracer(monkeypatch):
    # the oracle must look the kernel functions up on commroute._search_py at
    # call time; binding them at import would bypass the wrappers and zero
    # oracle.kernel_s, oracle.kernel_calls and oracle.starts
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from commroute import oracle
    from commroute.graphs import complete_graph, path_graph
    from commroute.solutions import TmpInstance

    inst = TmpInstance(path_graph(4), complete_graph(4))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        mt = oracle.oracle_min_steps(inst)
        oracle.oracle_min_swaps_at(inst, mt)
    finally:
        tracer.uninstall()
    for name in ("kernel.min_steps", "kernel.min_swaps_within"):
        spans = [s for s in tracer.spans if s["name"] == name]
        assert spans, name
        assert all(s["starts"] >= 1 for s in spans), spans


def test_pipeline_search_reaches_the_tracer(monkeypatch):
    # the pipeline's searches must show up as kernel spans under
    # pipeline.solve_min_swaps, and a settled instance runs no HiGHS solve
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from commroute import pipeline
    from commroute.graphs import complete_graph, path_graph
    from commroute.solutions import TmpInstance

    inst = TmpInstance(path_graph(4), complete_graph(4))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        res = pipeline.solve_min_swaps(inst)
    finally:
        tracer.uninstall()
    assert res.complete
    by_id = {s["id"]: s for s in tracer.spans}
    kernels = [s for s in tracer.spans if s["name"].startswith("kernel.")]
    assert {s["name"] for s in kernels} == {"kernel.min_steps", "kernel.min_swaps_within"}
    assert all(by_id[s["parent"]]["name"] == "pipeline.solve_min_swaps" for s in kernels)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["pipeline.phase1_probes"] == 0
    assert metrics["pipeline.solves"] == 0


@pytest.mark.parametrize("name", ["path6-star6", "grid3x3-d0.3-s5"])
def test_benchmark_route_check_accepts_the_result(monkeypatch, name):
    # workloads.route_op checks the answers and reads the PipelineResult
    # fields the benchmark needs; a reshaped result that breaks it would
    # only show in the benchmark's self-check, outside tier-1
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inst = workloads.worked_example() if name == "path6-star6" else workloads.grid_baseline()
    op = workloads.route_op(name, inst, workloads.References().answer(name, inst))
    assert op.check(op.run()) is None


@pytest.mark.parametrize("builder", ["build_variant", "build_swap_step_model"])
def test_reference_lp_reads_the_model_container(monkeypatch, builder):
    # references.lp_objective reads the container's objective, rows, bounds
    # and `minimize` on its own; a change to those attributes that breaks it
    # would only show in the benchmark's self-check, outside tier-1
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import references

    from commroute import milp
    from commroute.graphs import complete_graph, grid_graph
    from commroute.solutions import TmpInstance

    inst = TmpInstance(grid_graph(2, 3), complete_graph(6))
    model = getattr(milp, builder)(inst, steps=1)
    ours = milp.solve_lp_relaxation(model)
    assert ours.status == "optimal"
    assert references.lp_objective(model) == pytest.approx(ours.objective, abs=1e-6)
