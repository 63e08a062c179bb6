import pytest

from commroute.graphs import complete_graph, path_graph
from commroute.milp import (
    BranchBoundBackend,
    MilpModel,
    ModelVariant,
    ScipyBackend,
    build_variant,
    default_backend,
    solve_lp_relaxation,
)
from commroute.solutions import TmpInstance


def knapsack_model():
    # maximize 5a + 4b + 3c with a + b + c <= 2, as minimization
    m = MilpModel("knap")
    for name in ("a", "b", "c"):
        m.add_var(name)
    m.add_constr("cap", [("a", 1), ("b", 1), ("c", 1)], "<=", 2)
    m.set_objective([("a", -5), ("b", -4), ("c", -3)])
    return m


def infeasible_model():
    m = MilpModel("bad")
    m.add_var("a")
    m.add_constr("lo", [("a", 1)], ">=", 2)  # binary cannot reach 2
    m.set_objective([("a", 1)])
    return m


@pytest.mark.parametrize("backend", [ScipyBackend(), BranchBoundBackend()])
def test_knapsack_optimum(backend):
    res = backend.solve(knapsack_model())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-9)
    assert res.values["a"] == pytest.approx(1)
    assert res.values["c"] == pytest.approx(0)


@pytest.mark.parametrize("backend", [ScipyBackend(), BranchBoundBackend()])
def test_infeasible_detected(backend):
    assert backend.solve(infeasible_model()).status == "infeasible"


def test_backends_agree_on_routing_model():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    model = build_variant(inst, 2, ModelVariant.INDICATOR_ONESIDED)
    a = ScipyBackend().solve(model)
    b = BranchBoundBackend().solve(model)
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective)


def test_branch_bound_rejects_continuous():
    m = MilpModel("cont")
    m.add_var("x", lb=0.0, ub=2.0, integer=False)
    m.set_objective([("x", 1)])
    with pytest.raises(ValueError):
        BranchBoundBackend().solve(m)


def test_branch_bound_timeout():
    inst = TmpInstance(path_graph(4), complete_graph(4))
    model = build_variant(inst, 3, ModelVariant.PAIR_MCCORMICK)
    res = BranchBoundBackend().solve(model, time_limit=0.01)
    assert res.status == "timeout"


def test_branch_bound_deterministic():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    model = build_variant(inst, 2, ModelVariant.PAIR_AGGREGATED)
    r1 = BranchBoundBackend().solve(model)
    r2 = BranchBoundBackend().solve(model)
    assert r1.values == r2.values


def test_lp_relaxation_below_integer_optimum():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    model = build_variant(inst, 2, ModelVariant.PAIR_MCCORMICK)
    lp = solve_lp_relaxation(model)
    ip = ScipyBackend().solve(model)
    assert lp.status == "optimal"
    assert lp.objective <= ip.objective + 1e-9


def test_default_backend_solves():
    res = default_backend().solve(knapsack_model())
    assert res.is_optimal


def test_scipy_reports_solver_statistics():
    res = ScipyBackend().solve(knapsack_model())
    assert isinstance(res.nodes, int) and res.nodes >= 0
    assert res.dual_bound == pytest.approx(-9)
    assert res.gap == pytest.approx(0)

    flipped = knapsack_model()
    flipped.set_objective([("a", 5), ("b", 4), ("c", 3)], minimize=False)
    res = ScipyBackend().solve(flipped)
    assert res.objective == pytest.approx(9)
    assert res.dual_bound == pytest.approx(9)

    for res in (BranchBoundBackend().solve(knapsack_model()),
                solve_lp_relaxation(knapsack_model())):
        assert (res.nodes, res.dual_bound, res.gap) == (None, None, None)
