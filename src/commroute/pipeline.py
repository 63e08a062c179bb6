"""End-to-end orchestration: optimal swap counts, routing, instance generation.

The swap-optimal pipeline settles three numbers: the minimal step count
mt, the minimal swap count within mt steps ms_at_mt, and the overall
minimal swap count ms.

0. An embedding check answers 0 for all three when the gates already sit
   on hardware edges under some placement.
1. The relative-frame search (`oracle.RelativeFrameSearch`) runs under a
   fixed work budget. Breadth-first it finds mt; A* at mt finds ms_at_mt;
   and unless `cheaper_swap_floor` already certifies ms = ms_at_mt, one
   more A*, over at most ms_at_mt - 1 steps of one swap each, decides
   whether a cheaper solution exists. The goal state each A* reaches is
   its witness: the solution is rebuilt from the A* path, so a settled
   instance builds no model.
2. Whatever the budget leaves open, HiGHS proves as before: it solves the
   gate-coverage program for increasing t, from the first layer the
   search did not finish, until it turns feasible, which gives mt and ms_at_mt;
   and it solves the one-swap-per-step program one step below ms_at_mt
   with its first `cheaper_swap_floor` steps pinned active, where
   infeasibility certifies ms = ms_at_mt and feasibility gives ms.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import ceil

from .bounds import InfeasibleInstanceError, cheaper_swap_floor, step_lower_bound
from .graphs import Graph, bridged_cycles_graph, grid_graph
from .milp.backends import ScipyBackend, check_time_limit
from .milp.models import build_swap_step_model, decode_solution, solve_min_swaps_at
from .oracle import RelativeFrameSearch
from .scheduler import ScheduleOutcome, ScheduleSolveError, schedule_circuit
from .solutions import (
    RoutedCircuit,
    SwapSolution,
    TmpInstance,
    is_subgraph_placement,
    validate_swap_solution,
)

# Work the relative-frame search may spend per solve: hardware matchings
# enumerated, successors generated and embedding-test steps
# (`oracle.RelativeFrameSearch`). Counting work rather than time makes a
# budgeted run repeat exactly. Spending all 100,000 units took 0.11-0.13 s
# on path8 / K8, 0.19-0.25 s on grid3x3 / K9 and 0.34-0.42 s on grid4x4 /
# K16 (2 cores, Python 3.11). The route bench instances need at most 326
# units (the grid3x3 baseline). With one matching per Aut(H)-orbit at the
# start, these settle all three numbers by search: path7 / K7 in 48,457
# units, its `ms` proof branching on single swaps, and grid3x3 d0.5 s2
# (`generate_instance`) in 16,733, d0.7 s1 in 7,862 and d0.5 s0 in 45,759
# (44,843-49,363 over nine labellings). grid2x4 / K8 takes 95,720-100,079
# over nine labellings, so one of them runs out in its cheaper search.
# d0.7 s0 settles mt and ms_at_mt in 60,927 and its cheaper search runs
# out (151,956 with no budget).
SEARCH_BUDGET = 100_000

HARDWARE_PRESETS = {
    "grid3x3": lambda: grid_graph(3, 3),
    "twin5cycles": bridged_cycles_graph,
}


@dataclass
class PipelineResult:
    mt: int | None = None
    ms_at_mt: int | None = None
    ms: int | None = None
    swap_solution: SwapSolution | None = None
    schedule: ScheduleOutcome | None = None
    timings: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def routed_circuit(self) -> RoutedCircuit | None:
        return None if self.schedule is None else self.schedule.circuit

    # each number is set only once it is proven optimal
    @property
    def mt_optimal(self) -> bool:
        return self.mt is not None

    @property
    def ms_at_mt_optimal(self) -> bool:
        return self.ms_at_mt is not None

    @property
    def ms_optimal(self) -> bool:
        return self.ms is not None

    @property
    def complete(self) -> bool:
        return self.mt_optimal and self.ms_at_mt_optimal and self.ms_optimal

    def to_dict(self) -> dict:
        return {
            "mt": self.mt,
            "ms_at_mt": self.ms_at_mt,
            "ms": self.ms,
            "mt_optimal": self.mt_optimal,
            "ms_at_mt_optimal": self.ms_at_mt_optimal,
            "ms_optimal": self.ms_optimal,
            "swap_solution": None if self.swap_solution is None else self.swap_solution.to_dict(),
            "routed_circuit": None if self.routed_circuit is None else self.routed_circuit.to_dict(),
            "timings": self.timings,
            "notes": self.notes,
        }


def solve_min_swaps(inst: TmpInstance, time_limit: float | None = None) -> PipelineResult:
    """Minimal steps, minimal swaps at that step count, and minimal swaps overall.

    The relative-frame search runs first, under SEARCH_BUDGET
    (`RelativeFrameSearch.settle`). What it settles needs no model: the
    solution comes from the goal state the search reached.

    What the search leaves open HiGHS proves as before, each solve under
    time_limit seconds, which must be positive when given. Phase 1 sweeps the
    step count upward from the larger of `step_lower_bound` and the first
    layer the search did not finish; phase 2 is its first feasible solve.
    Phase 3 solves the one-swap-per-step model one step below ms_at_mt
    with its first max(`cheaper_swap_floor`, the search's lower bound)
    steps pinned active; infeasible, it keeps the ms_at_mt solution.
    When there is a gate between every pair of the hardware's tokens, each
    HiGHS solve fixes the middle placement (`add_complete_placement_fixing`),
    which keeps the optimum.

    Every returned solution, from a search or a HiGHS solve, is a witness
    checked against its certified numbers: one that `validate_swap_solution`
    rejects, that takes more steps than it may or whose swaps differ from
    the certified count raises RuntimeError.

    Disconnected hardware is solved when the search settles all three
    numbers; a search that proves no solution exists raises
    InfeasibleInstanceError, and one that runs out of budget leaves the
    instance refused with ValueError.

    When a HiGHS solve ends with neither an optimum nor a proof of
    infeasibility (a timeout, say), the result carries whatever was
    established; the missing numbers stay None and their optimality flags
    False. `timings` holds the wall time of the search and of each HiGHS
    phase's model builds, solves and decodes: `find_min_steps` covers the
    infeasible probes, `min_swaps_at_min_steps` the first feasible one and
    `min_swaps_overall` the phase-3 solve. `notes` names the certificate of
    each number (a bound, the embedding check, the search with the work it
    spent, or a HiGHS solve) and the status of a solve that ended a phase
    without one.
    """
    check_time_limit(time_limit)
    res = PipelineResult()

    t0 = time.monotonic()
    direct = is_subgraph_placement(inst)
    if direct is not None:
        res.mt = res.ms_at_mt = res.ms = 0
        res.swap_solution = SwapSolution(direct, ())
        res.timings["embed"] = time.monotonic() - t0
        res.notes.append("gates already adjacent under a direct placement")
        return res
    res.timings["embed"] = time.monotonic() - t0

    t0 = time.monotonic()
    search = RelativeFrameSearch(inst, SEARCH_BUDGET)
    steps, at_mt, cheaper = search.settle()
    res.timings["search"] = time.monotonic() - t0
    if steps.exact and steps.value < 0:
        raise InfeasibleInstanceError("no swap sequence realizes every connection")
    settled = at_mt is not None and at_mt.exact and (cheaper is None or cheaper.exact)
    if not settled and not inst.hardware.is_connected():
        raise ValueError(
            "hardware graph must be connected unless the search settles the "
            f"instance within its budget of {SEARCH_BUDGET}"
        )

    if at_mt is not None and at_mt.exact:
        res.mt, res.ms_at_mt = steps.value, at_mt.value
        res.swap_solution = _certified(inst, search.witness(at_mt), at_mt.value, res.mt)
        res.notes.append(f"certified by search: mt = {res.mt} (work {steps.work})")
        res.notes.append(
            f"certified by search: ms_at_mt = {res.ms_at_mt} (work {at_mt.work})"
        )
    elif not _steps_and_swaps_at_mt(inst, time_limit, res, steps):
        return res

    floor = cheaper_swap_floor(inst, res.mt) if search.floor is None else search.floor
    if res.ms_at_mt <= floor:
        res.ms = res.ms_at_mt
        res.notes.append(
            f"certified by bound: a cheaper solution needs at least {floor} swaps, "
            f"so {res.ms_at_mt} is optimal"
        )
        return res
    if cheaper is not None and cheaper.exact:
        if cheaper.value < 0:
            res.ms = res.ms_at_mt
            res.notes.append(
                f"certified by search: no solution has fewer than {res.ms_at_mt} swaps "
                f"(work {cheaper.work})"
            )
        else:
            res.ms = cheaper.value
            res.swap_solution = _certified(
                inst, search.witness(cheaper), cheaper.value, res.ms_at_mt - 1
            )
            res.notes.append(f"certified by search: ms = {res.ms} (work {cheaper.work})")
        return res

    # A cheaper solution, serialized, fits in ms_at_mt - 1 single-swap steps
    # and activates at least as many of them as it has swaps
    # (`cheaper_swap_floor`); steps_ordered makes the active steps a prefix,
    # so those may be pinned to 1. Placement fixing only relabels tokens,
    # which keeps the active steps.
    target = res.ms_at_mt - 1
    pinned = floor if cheaper is None else max(floor, cheaper.value)
    t0 = time.monotonic()
    model = build_swap_step_model(inst, steps=target)
    for t in range(1, pinned + 1):
        model.fix_var(f"s_t{t}", 1.0)
    # imported here, not at the top: perfbench/tracing.py wraps the
    # milp.models attribute, and a name bound at import would bypass it
    from .milp.models import add_complete_placement_fixing

    add_complete_placement_fixing(model, inst, steps=target)
    step_result = ScipyBackend().solve(model, time_limit=time_limit)
    if step_result.is_optimal:
        step_solution = decode_solution(inst, step_result, steps=target)
    res.timings["min_swaps_overall"] = time.monotonic() - t0
    if step_result.status == "infeasible":
        res.ms = res.ms_at_mt
        res.notes.append(
            f"certified by phase-3 solve: no solution with {pinned} to {target} "
            f"swaps fits in {target} single-swap steps"
        )
        return res
    if not step_result.is_optimal:
        res.notes.append(
            f"phase-3 solve at {target} single-swap steps ended with status "
            f"{step_result.status}"
        )
        return res
    res.ms = int(round(step_result.objective))
    res.swap_solution = _certified(inst, step_solution.compacted(), res.ms, target)
    res.notes.append(f"certified by phase-3 solve: optimum {res.ms} single-swap steps")
    return res


def _certified(inst: TmpInstance, solution: SwapSolution | None, swaps: int,
               max_steps: int) -> SwapSolution:
    """solution, the witness of a certified swap count; RuntimeError unless
    it is valid, within max_steps steps and has exactly `swaps` swaps."""
    check = None if solution is None else validate_swap_solution(inst, solution)
    if check is None or not check.valid or check.steps > max_steps or check.swaps != swaps:
        raise RuntimeError(f"the witness contradicts its {swaps} swaps: {check}")
    return solution


def _steps_and_swaps_at_mt(inst, time_limit, res, steps) -> bool:
    """Phases 1 and 2 through HiGHS: set mt, ms_at_mt and their solution on
    res, or add a note naming the solver status that ended the phase and
    return False.

    An exact mt from the search is the only horizon tried, and it is set on
    res, with its note, before any solve, so a failed solve keeps it;
    otherwise the sweep starts at the first layer the search did not
    finish. Only a proof of infeasibility moves the sweep to the next step
    count: any other status proves nothing about t steps.
    """
    if steps.exact:
        res.mt = steps.value
        res.notes.append(f"certified by search: mt = {steps.value} (work {steps.work})")
        start = t_cap = steps.value
    else:
        # phase 0, the embedding check, is the search's first layer: mt >= 1
        lower = step_lower_bound(inst)
        start = max(lower, steps.value, 1)
        t_cap = inst.hardware.n * inst.hardware.n
    phase1 = 0.0
    attempt = None
    t = start
    while t <= t_cap:
        t0 = time.monotonic()
        a = solve_min_swaps_at(inst, t, time_limit=time_limit)
        probe = time.monotonic() - t0
        if a.status == "optimal":
            attempt = a
            break
        if a.status != "infeasible":
            res.timings["find_min_steps"] = phase1 + probe
            res.notes.append(f"phase-1 solve at {t} steps ended with status {a.status}")
            return False
        phase1 += probe
        t += 1
    if attempt is None:
        raise RuntimeError(f"no feasible step count up to {t_cap}")
    res.timings["find_min_steps"] = phase1
    res.timings["min_swaps_at_min_steps"] = probe
    res.ms_at_mt = attempt.swaps
    res.swap_solution = _certified(inst, attempt.solution.compacted(), attempt.swaps, t)
    if not steps.exact:
        res.mt = t
        if t > start:
            res.notes.append(f"certified by phase-1 solves: mt = {t}, none at {t - 1} steps")
        elif start == steps.value:
            res.notes.append(
                f"certified by search: mt = {t}, none within {t - 1} steps (work {steps.work})"
            )
        elif start == lower:
            res.notes.append(f"certified by bound: mt = {t}, the step lower bound")
        else:
            res.notes.append(
                f"certified by embedding check: mt = {t}, no placement puts every gate "
                "on a hardware edge"
            )
    res.notes.append(f"certified by phase-2 solve: ms_at_mt = {res.ms_at_mt}")
    return True


def route(inst: TmpInstance, time_limit: float | None = None) -> PipelineResult:
    """solve_min_swaps, then pack gates into circuit layers; time_limit
    bounds each HiGHS solve of both.

    A note names what certified the fewest extra layers: the scheduler's
    search, with its load bound and work, or HiGHS past the search's
    budget. When that solve ends without a proven optimum, `schedule` and
    `routed_circuit` stay None and a note names the solver status.
    """
    res = solve_min_swaps(inst, time_limit)
    if res.swap_solution is None:
        return res
    t0 = time.monotonic()
    try:
        outcome = schedule_circuit(inst, res.swap_solution, time_limit=time_limit)
    except ScheduleSolveError as exc:
        res.notes.append(str(exc))
        return res
    finally:
        res.timings["schedule"] = time.monotonic() - t0
    res.schedule = outcome
    if outcome.method == "search":
        res.notes.append(
            f"schedule certified by search: extra = {outcome.extra_layers}, "
            f"load bound {outcome.load_bound} (work {outcome.work})"
        )
    elif outcome.method == "milp":
        res.notes.append(f"schedule certified by HiGHS: extra = {outcome.extra_layers}")
    return res


def generate_instance(hardware: str | Graph, density: float, seed: int) -> TmpInstance:
    """Seeded random gate set over a preset or custom hardware graph.

    Draws ceil(n(n-1)/2 * density) distinct token pairs, retrying up to
    1000 times for a connected gate graph and otherwise keeping the last
    draw.
    """
    if isinstance(hardware, str):
        try:
            h = HARDWARE_PRESETS[hardware]()
        except KeyError:
            raise ValueError(
                f"unknown hardware preset {hardware!r}; "
                f"available: {sorted(HARDWARE_PRESETS)}"
            ) from None
    else:
        h = hardware
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    n = h.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = ceil(len(pairs) * density)
    rng = random.Random(seed)
    algorithm = None
    for _ in range(1000):
        algorithm = Graph(n, rng.sample(pairs, m))
        if algorithm.is_connected():
            break
    assert algorithm is not None
    return TmpInstance(h, algorithm)


def circuit_ingest(text: str, hardware: Graph) -> TmpInstance:
    """Parse a gate list (one "p q" pair per line) into an instance.

    Lines starting with # are comments. Qubit labels are arbitrary
    non-space words, numbered by first appearance; repeated pairs collapse
    into one gate.
    """
    labels: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two qubit labels, got {raw!r}")
        ids = []
        for part in parts:
            if part not in labels:
                labels[part] = len(labels)
            ids.append(labels[part])
        a, b = ids
        if a == b:
            raise ValueError(f"line {lineno}: gate on a single qubit pair {raw!r}")
        edges.add((min(a, b), max(a, b)))
    algorithm = Graph(len(labels), sorted(edges))
    return TmpInstance(hardware, algorithm)
