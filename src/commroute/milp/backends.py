"""Solver backends for MilpModel: scipy/HiGHS plus a dependency-free fallback.

ScipyBackend is the reference solver. BranchBoundBackend is a small exact
DFS with bounds propagation; it only accepts all-binary models and exists
so the test suite can run the tiniest instances even without scipy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol

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


class SolverBackend(Protocol):
    def solve(self, model: MilpModel, time_limit: float | None = None) -> SolveResult: ...


def _model_arrays(model: MilpModel):
    import numpy as np

    n = model.num_vars
    c = np.zeros(n)
    for i, coeff in model.objective:
        c[i] = coeff
    if not model.minimize:
        c = -c
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    integrality = np.array([1 if v.is_integer else 0 for v in model.variables])
    rows, lo, hi = [], [], []
    for con in model.constraints:
        row = np.zeros(n)
        for i, coeff in con.terms:
            row[i] = coeff
        rows.append(row)
        if con.sense == "<=":
            lo.append(-np.inf)
            hi.append(con.rhs)
        elif con.sense == ">=":
            lo.append(con.rhs)
            hi.append(np.inf)
        else:
            lo.append(con.rhs)
            hi.append(con.rhs)
    a = np.vstack(rows) if rows else np.zeros((0, n))
    return c, lb, ub, integrality, a, np.array(lo), np.array(hi)


def _mip_stats(res, minimize: bool) -> dict:
    """Node count, dual bound and gap from a milp result, in the model's sense.

    milp always minimizes, so a maximized model's dual bound flips sign.
    """
    nodes, dual, gap = (res.get(k) for k in ("mip_node_count", "mip_dual_bound", "mip_gap"))
    if dual is not None and not minimize:
        dual = -dual
    return {
        "nodes": None if nodes is None else int(nodes),
        "dual_bound": None if dual is None else float(dual),
        "gap": None if gap is None else float(gap),
    }


class ScipyBackend:
    """HiGHS via scipy.optimize.milp."""

    def solve(self, model: MilpModel, time_limit: float | None = None) -> SolveResult:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp

        start = time.monotonic()
        c, lb, ub, integrality, a, lo, hi = _model_arrays(model)
        options: dict = {}
        if time_limit is not None:
            options["time_limit"] = time_limit
        kwargs = {}
        if len(a):
            kwargs["constraints"] = LinearConstraint(a, lo, hi)
        res = milp(
            c,
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options=options,
            **kwargs,
        )
        elapsed = time.monotonic() - start
        status = _STATUS.get(res.status, "unknown")
        if res.x is None and status == "optimal":
            status = "unknown"
        stats = _mip_stats(res, model.minimize)
        if res.x is None:
            return SolveResult(status, runtime=elapsed, **stats)
        values = {v.name: float(res.x[v.index]) for v in model.variables}
        obj = float(np.dot(c, res.x))
        if not model.minimize:
            obj = -obj
        return SolveResult(status, obj, values, elapsed, **stats)


def solve_lp_relaxation(model: MilpModel) -> SolveResult:
    """Solve the continuous relaxation with dual simplex (vertex optima)."""
    import numpy as np
    from scipy.optimize import linprog

    start = time.monotonic()
    c, lb, ub, _, a, lo, hi = _model_arrays(model)
    eq = np.isfinite(lo) & np.isfinite(hi) & (lo == hi)
    leq = np.isfinite(hi) & ~eq
    geq = np.isfinite(lo) & ~eq
    a_ub = np.vstack([a[leq], -a[geq]]) if (leq.any() or geq.any()) else None
    b_ub = np.concatenate([hi[leq], -lo[geq]]) if a_ub is not None else None
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a[eq] if eq.any() else None,
        b_eq=lo[eq] if eq.any() else None,
        bounds=list(zip(lb, ub)),
        method="highs-ds",
    )
    elapsed = time.monotonic() - start
    status = _STATUS.get(res.status, "unknown")
    if res.x is None:
        return SolveResult(status, runtime=elapsed)
    values = {v.name: float(res.x[v.index]) for v in model.variables}
    obj = float(np.dot(c, res.x))
    if not model.minimize:
        obj = -obj
    return SolveResult(status, obj, values, elapsed)


class BranchBoundBackend:
    """Exact DFS over all-binary models with bounds propagation.

    Deterministic: branches on the lowest-index free variable, zero first.
    Meant for tiny models; raises on continuous variables.
    """

    def solve(self, model: MilpModel, time_limit: float | None = None) -> SolveResult:
        start = time.monotonic()
        n = model.num_vars
        obj = [0.0] * n
        for i, coeff in model.objective:
            obj[i] = coeff if model.minimize else -coeff
        fixed: list[int | None] = [None] * n
        for v in model.variables:
            if not v.is_integer:
                raise ValueError("branch-and-bound backend handles all-binary models only")
            if v.lb == v.ub:
                fixed[v.index] = int(round(v.lb))
            elif v.lb > 0.0:
                fixed[v.index] = 1
            elif v.ub < 1.0:
                fixed[v.index] = 0
        rows = [(c.terms, c.sense, c.rhs) for c in model.constraints]
        var_rows: list[list[int]] = [[] for _ in range(n)]
        for ri, (terms, _, _) in enumerate(rows):
            for vi, _ in terms:
                var_rows[vi].append(ri)

        best_obj = [float("inf")]
        best_assign: list[list[int] | None] = [None]
        deadline = None if time_limit is None else start + time_limit
        timed_out = [False]
        tol = 1e-9

        def propagate(state: list[int | None]) -> bool:
            changed = True
            while changed:
                changed = False
                for terms, sense, rhs in rows:
                    lo = hi = 0.0
                    free = []
                    for vi, coeff in terms:
                        val = state[vi]
                        if val is None:
                            free.append((vi, coeff))
                            lo += min(0.0, coeff)
                            hi += max(0.0, coeff)
                        else:
                            lo += coeff * val
                            hi += coeff * val
                    if sense in ("<=", "==") and lo > rhs + tol:
                        return False
                    if sense in (">=", "==") and hi < rhs - tol:
                        return False
                    for vi, coeff in free:
                        if sense in ("<=", "==") and lo + abs(coeff) > rhs + tol:
                            forced = 0 if coeff > 0 else 1
                        elif sense in (">=", "==") and hi - abs(coeff) < rhs - tol:
                            forced = 1 if coeff > 0 else 0
                        else:
                            continue
                        if state[vi] is None:
                            state[vi] = forced
                            changed = True
                            lo += coeff * forced - min(0.0, coeff)
                            hi += coeff * forced - max(0.0, coeff)
            return True

        def lower_bound(state: list[int | None]) -> float:
            total = 0.0
            for vi, coeff in enumerate(obj):
                if coeff == 0.0:
                    continue
                val = state[vi]
                if val is None:
                    total += min(0.0, coeff)
                else:
                    total += coeff * val
            return total

        def dfs(state: list[int | None]) -> None:
            if timed_out[0]:
                return
            if deadline is not None and time.monotonic() > deadline:
                timed_out[0] = True
                return
            if not propagate(state):
                return
            if lower_bound(state) >= best_obj[0] - tol:
                return
            try:
                branch = state.index(None)
            except ValueError:
                val = lower_bound(state)
                if val < best_obj[0] - tol:
                    best_obj[0] = val
                    best_assign[0] = [int(v) for v in state]  # type: ignore[arg-type]
                return
            for guess in (0, 1):
                child = list(state)
                child[branch] = guess
                dfs(child)

        dfs(fixed)
        elapsed = time.monotonic() - start
        if timed_out[0] and best_assign[0] is None:
            return SolveResult("timeout", runtime=elapsed)
        if best_assign[0] is None:
            return SolveResult("infeasible", runtime=elapsed)
        values = {v.name: float(best_assign[0][v.index]) for v in model.variables}
        objective = best_obj[0] if model.minimize else -best_obj[0]
        status = "timeout" if timed_out[0] else "optimal"
        return SolveResult(status, objective, values, elapsed)


def default_backend() -> SolverBackend:
    try:
        import scipy.optimize  # noqa: F401

        return ScipyBackend()
    except ImportError:
        return BranchBoundBackend()
