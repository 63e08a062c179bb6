import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from commroute.graphs import Graph, complete_graph, grid_graph, path_graph
from commroute.milp import (
    MilpModel,
    ModelVariant,
    ScipyBackend,
    build_swap_step_model,
    build_variant,
    solve_lp_relaxation,
)
from commroute.milp.backends import _model_arrays
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


@pytest.mark.parametrize("backend", [ScipyBackend()])
def test_knapsack_optimum(backend):
    res = backend.solve(knapsack_model())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-9)
    assert res.values["a"] == pytest.approx(1)
    assert res.values["c"] == pytest.approx(0)


@pytest.mark.parametrize("backend", [ScipyBackend()])
def test_infeasible_detected(backend):
    assert backend.solve(infeasible_model()).status == "infeasible"


def mixed_model():
    # every sense and a fixed variable
    m = MilpModel("mixed")
    for name in ("a", "b", "c", "d", "y"):
        m.add_var(name)
    m.fix_var("y", 1.0)
    m.add_constr("le", [("a", 2), ("c", -1)], "<=", 1)
    m.add_constr("ge", [("b", 1), ("y", 0.5), ("d", 3)], ">=", 2)
    m.add_constr("eq", [("a", 1), ("b", 1), ("c", 1), ("d", 1)], "==", 2)
    m.add_constr("le2", [("y", -4), ("d", 1)], "<=", 0)
    m.set_objective([("a", -5), ("y", 2), ("d", -1)])
    return m


def test_model_arrays_match_dense_rows():
    m = mixed_model()
    c, lb, ub, a, lo, hi = _model_arrays(m)
    assert isinstance(a, sparse.csr_array)
    dense = np.zeros((m.num_constraints, m.num_vars))
    for r, con in enumerate(m.constraints):
        for i, coeff in con.terms:
            dense[r, i] = coeff
    np.testing.assert_array_equal(a.toarray(), dense)
    np.testing.assert_array_equal(c, [-5, 0, 0, -1, 2])
    np.testing.assert_array_equal(lb, [0, 0, 0, 0, 1])
    np.testing.assert_array_equal(ub, [1, 1, 1, 1, 1])
    np.testing.assert_array_equal(lo, [-np.inf, 2, 2, -np.inf])
    np.testing.assert_array_equal(hi, [1, np.inf, 2, 0])


def test_model_arrays_memory_stays_sparse():
    # 1,776 vars by 8,400 rows and 0.3 % nonzero: a dense copy alone is 114 MB
    inst = TmpInstance(grid_graph(4, 4), complete_graph(16))
    model = build_variant(inst, ModelVariant.INDICATOR_ONESIDED, steps=1)
    assert (model.num_vars, model.num_constraints) == (1776, 8400)
    tracemalloc.start()
    try:
        _model_arrays(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"assembly peaked at {peak / 2**20:.1f} MB"


def test_lp_relaxation_below_integer_optimum():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    model = build_variant(inst, ModelVariant.PAIR_MCCORMICK, steps=1)
    lp = solve_lp_relaxation(model)
    ip = ScipyBackend().solve(model)
    assert lp.status == "optimal"
    assert lp.objective <= ip.objective + 1e-9


def test_lp_relaxation_returns_a_vertex():
    # with a zero objective every feasible point is optimal; the polytope is
    # integral (criterion 08), so only a vertex optimum is integral
    inst = TmpInstance(path_graph(3), Graph(3, [(0, 1)]))
    model = build_variant(inst, ModelVariant.PAIR_AGGREGATED, steps=0)
    model.set_objective([])
    lp = solve_lp_relaxation(model)
    assert lp.status == "optimal"
    assert all(abs(x - round(x)) < 1e-9 for x in lp.values.values()), lp.values


@pytest.mark.parametrize("case", [*(v.value for v in ModelVariant), "swap-step", "mixed"])
def test_lp_relaxation_matches_dual_simplex(case):
    from scipy.optimize import linprog

    inst = TmpInstance(grid_graph(2, 3), complete_graph(6))
    if case == "mixed":
        model = mixed_model()
    elif case == "swap-step":
        model = build_swap_step_model(inst, steps=1)
    else:
        model = build_variant(inst, ModelVariant.from_string(case), steps=1)
    c, lb, ub, a, lo, hi = _model_arrays(model)
    eq = lo == hi
    leq = np.isfinite(hi) & ~eq
    geq = np.isfinite(lo) & ~eq
    ref = linprog(
        c,
        A_ub=sparse.vstack([a[leq], -a[geq]]),
        b_ub=np.concatenate([hi[leq], -lo[geq]]),
        A_eq=a[eq],
        b_eq=lo[eq],
        bounds=list(zip(lb, ub)),
        method="highs-ds",
    )
    assert ref.status == 0
    lp = solve_lp_relaxation(model)
    assert lp.status == "optimal"
    assert lp.objective == pytest.approx(ref.fun, abs=1e-6)


def test_scipy_reports_solver_statistics():
    res = ScipyBackend().solve(knapsack_model())
    assert isinstance(res.nodes, int) and res.nodes >= 0
    assert res.dual_bound == pytest.approx(-9)
    assert res.gap == pytest.approx(0)

    res = solve_lp_relaxation(knapsack_model())
    assert (res.nodes, res.dual_bound, res.gap) == (None, None, None)
