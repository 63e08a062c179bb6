"""Solving a MilpModel with HiGHS through scipy.

`_model_arrays` turns the model into the arrays scipy takes, with the
constraint matrix in compressed sparse rows. `ScipyBackend` solves the
0/1 program with `scipy.optimize.milp`; `solve_lp_relaxation` solves
its continuous relaxation by interior point with crossover (vertex optima).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import MilpModel

_STATUS = {0: "optimal", 1: "timeout", 2: "infeasible", 3: "unbounded"}


@dataclass
class SolveResult:
    status: str  # "optimal" | "infeasible" | "timeout" | "unbounded" | "unknown"
    objective: float | None = None
    values: dict[str, float] | None = None
    runtime: float = 0.0
    # branch-and-bound statistics; None where the solver reports none
    nodes: int | None = None
    dual_bound: float | None = None
    gap: float | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _model_arrays(model: MilpModel):
    """(c, lb, ub, A, lo, hi) with lo <= A x <= hi row-wise.

    A is a csr_array built straight from the constraint terms, which the
    model already keeps merged, sorted and free of zero coefficients.
    """
    from scipy import sparse

    n = model.num_vars
    c = np.zeros(n)
    for i, coeff in model.objective:
        c[i] = coeff
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    cons = model.constraints
    indptr = np.zeros(len(cons) + 1, dtype=np.int64)
    np.cumsum([len(con.terms) for con in cons], out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter((i for con in cons for i, _ in con.terms), np.int64, nnz)
    data = np.fromiter((coeff for con in cons for _, coeff in con.terms), np.float64, nnz)
    a = sparse.csr_array((data, indices, indptr), shape=(len(cons), n))
    lo = np.array([-np.inf if con.sense == "<=" else con.rhs for con in cons])
    hi = np.array([np.inf if con.sense == ">=" else con.rhs for con in cons])
    return c, lb, ub, a, lo, hi


def _mip_stats(res) -> dict:
    """Node count, dual bound and gap from a milp result."""
    nodes, dual, gap = (res.get(k) for k in ("mip_node_count", "mip_dual_bound", "mip_gap"))
    return {
        "nodes": None if nodes is None else int(nodes),
        "dual_bound": None if dual is None else float(dual),
        "gap": None if gap is None else float(gap),
    }


def _solve_result(model: MilpModel, c, res, elapsed: float, **stats) -> SolveResult:
    """Decode a scipy result: status, values by name and objective."""
    status = _STATUS.get(res.status, "unknown")
    if res.x is None:
        if status == "optimal":
            status = "unknown"
        return SolveResult(status, runtime=elapsed, **stats)
    values = {v.name: float(x) for v, x in zip(model.variables, res.x)}
    return SolveResult(status, float(np.dot(c, res.x)), values, elapsed, **stats)


def check_time_limit(time_limit: float | None) -> None:
    """ValueError unless time_limit is None or positive. Callers check it on
    entry, before a search may settle the input without any HiGHS solve:
    HiGHS itself stops at once on 0 and only warns on a negative limit."""
    if time_limit is not None and not time_limit > 0:
        raise ValueError("time_limit must be positive")


class ScipyBackend:
    """HiGHS via scipy.optimize.milp."""

    def solve(self, model: MilpModel, time_limit: float | None = None) -> SolveResult:
        from scipy.optimize import Bounds, LinearConstraint, milp

        start = time.monotonic()
        c, lb, ub, a, lo, hi = _model_arrays(model)
        options: dict = {}
        if time_limit is not None:
            options["time_limit"] = time_limit
        kwargs = {}
        if a.shape[0]:
            kwargs["constraints"] = LinearConstraint(a, lo, hi)
        res = milp(
            c,
            integrality=np.ones_like(c),
            bounds=Bounds(lb, ub),
            options=options,
            **kwargs,
        )
        elapsed = time.monotonic() - start
        return _solve_result(model, c, res, elapsed, **_mip_stats(res))


def solve_lp_relaxation(model: MilpModel) -> SolveResult:
    """Solve the continuous relaxation by interior point with crossover (vertex optima).

    scipy's `highs-ipm` always runs crossover, so it returns a basic optimum,
    a vertex, as dual simplex does; criterion 08 needs that, because only a
    vertex optimum over an integral polytope is sure to be integral.
    """
    from scipy.optimize import linprog

    start = time.monotonic()
    c, lb, ub, a, lo, hi = _model_arrays(model)
    eq = lo == hi
    ineq = ~eq  # one finite side each; ">=" rows are negated into "<="
    flip = np.isinf(hi[ineq])
    a_ub = a[ineq]
    a_ub.data[np.repeat(flip, np.diff(a_ub.indptr))] *= -1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.where(flip, -lo[ineq], hi[ineq]),
        A_eq=a[eq],
        b_eq=lo[eq],
        bounds=np.column_stack([lb, ub]),
        method="highs-ipm",
    )
    elapsed = time.monotonic() - start
    return _solve_result(model, c, res, elapsed)
