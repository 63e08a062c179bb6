"""Reference answers for the benchmark, and the script that regenerates them.

Swap and step optima come from the exhaustive oracle, never from the MILP
pipeline the route workloads time. LP optima of the relax_scale models come
from an LP assembled here as a sparse matrix and solved with HiGHS interior
point, independent of commroute's own matrix assembly and dual simplex call.

    python3 perfbench/references.py

rewrites references.json; on 2 cores it runs in about five minutes, most
of it the oracle on the grid3x3 instance.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

PATH = Path(__file__).with_name("references.json")
# Set-up computes oracle references only this small: a few ms per instance.
ORACLE_AT_SETUP_MAX_NODES = 6


def load() -> dict:
    with open(PATH) as f:
        return json.load(f)


def oracle_answers(inst, node_limit: int = 7, keys=("mt", "ms_at_mt", "ms")) -> dict:
    from commroute.oracle import oracle_min_steps, oracle_min_swaps, oracle_min_swaps_at

    out = {"mt": oracle_min_steps(inst, node_limit)}
    if "ms_at_mt" in keys:
        out["ms_at_mt"] = oracle_min_swaps_at(inst, out["mt"], node_limit)
    if "ms" in keys:
        out["ms"] = oracle_min_swaps(inst, node_limit)
    return out


def lp_objective(model) -> float:
    """Optimum of the continuous relaxation of a MilpModel."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n = model.num_vars
    c = np.zeros(n)
    for i, coeff in model.objective:
        c[i] = coeff if model.minimize else -coeff
    parts = {"<=": ([], [], [], []), "==": ([], [], [], [])}
    for con in model.constraints:
        sign = -1.0 if con.sense == ">=" else 1.0
        rows, cols, vals, rhs = parts["==" if con.sense == "==" else "<="]
        for i, coeff in con.terms:
            rows.append(len(rhs))
            cols.append(i)
            vals.append(sign * coeff)
        rhs.append(sign * con.rhs)
    mats = {
        k: (coo_matrix((v, (r, cl)), shape=(len(b), n)).tocsr(), np.array(b))
        for k, (r, cl, v, b) in parts.items() if b
    }
    ub_part, eq_part = mats.get("<=", (None, None)), mats.get("==", (None, None))
    res = linprog(
        c, A_ub=ub_part[0], b_ub=ub_part[1], A_eq=eq_part[0], b_eq=eq_part[1],
        bounds=[(v.lb, v.ub) for v in model.variables], method="highs-ipm",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP ended with status {res.status}: {res.message}")
    return float(res.fun) if model.minimize else -float(res.fun)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import workloads

    answers, lp = {}, {}

    def record(name, inst, node_limit=7, keys=("mt", "ms_at_mt", "ms")):
        t0 = time.perf_counter()
        answers[name] = oracle_answers(inst, node_limit, keys)
        answers[name]["source"] = f"oracle, node_limit={node_limit}"
        print(name, answers[name], f"{time.perf_counter() - t0:.1f}s", flush=True)

    for name, make in workloads.KERNEL_CASES:
        record(name, make())
    record("twin5cycles-d0.3-s1", workloads.pipeline.generate_instance("twin5cycles", 0.3, 1),
           node_limit=8, keys=("mt", "ms_at_mt"))
    for name, inst in workloads.random_pairs(0, workloads.RANDOM_PAIRS):
        record(name, inst)
    record("grid3x3-d0.3-s5", workloads.grid_baseline(), node_limit=9)
    for spec in workloads.RELAX_MODELS:
        model = workloads.relax_model(*spec[1:])
        lp[spec[0]] = {"objective": lp_objective(model),
                       "source": "scipy linprog highs-ipm on a sparse matrix built in references.py"}
        print(spec[0], lp[spec[0]], flush=True)
    data = {
        "generated_with": "perfbench/references.py",
        "answers": answers,
        "lp": lp,
    }
    PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
