"""End-to-end orchestration: optimal swap counts, routing, instance generation.

The swap-optimal pipeline runs three phases:

1. solve the gate-coverage program over t steps for increasing t until it
   turns feasible; that first t is the minimal step count, and the solve
   already minimizes swaps there;
2. (free with 1) record the minimal swap count within minimal steps;
3. settle the overall swap optimum. A proven floor on any cheaper solution
   (see `_cheaper_swap_floor`) certifies the phase-2 count outright when
   that count does not exceed the floor, and no model is built. Otherwise
   the one-swap-per-step program is solved at a horizon one below the
   phase-2 count with its first `floor` steps pinned active:
   infeasibility certifies the phase-2 count as the overall optimum,
   feasibility hands back the true optimum directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import ceil

from .bounds import step_lower_bound, swap_lower_bound
from .graphs import Graph, bridged_cycles_graph, grid_graph
from .milp.backends import ScipyBackend
from .milp.models import (
    ModelVariant,
    build_swap_step_model,
    decode_solution,
    solve_min_swaps_at,
)
from .scheduler import ScheduleOutcome, ScheduleSolveError, schedule_circuit
from .solutions import (
    RoutedCircuit,
    SwapSolution,
    TmpInstance,
    TokenPlacement,
    is_subgraph_placement,
)

HARDWARE_PRESETS = {
    "grid3x3": lambda: grid_graph(3, 3),
    "twin5cycles": bridged_cycles_graph,
}


@dataclass
class PipelineConfig:
    variant: ModelVariant = ModelVariant.INDICATOR_ONESIDED
    time_limit: float | None = None  # per solve, seconds
    use_hardware_symmetry: bool = False

    def __post_init__(self):
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass
class PipelineResult:
    mt: int | None = None
    ms_at_mt: int | None = None
    ms: int | None = None
    swap_solution: SwapSolution | None = None
    routed_circuit: RoutedCircuit | None = None
    schedule: ScheduleOutcome | None = None
    mt_optimal: bool = False
    ms_at_mt_optimal: bool = False
    ms_optimal: bool = False
    timings: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

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


def _cheaper_swap_floor(inst: TmpInstance, mt: int) -> int:
    """Fewest swaps any solution cheaper than the phase-2 one can have.

    Let ms be the overall swap optimum and ms_at_mt the optimum within mt
    steps. Take any solution with s swaps and perform its swaps one at a
    time: the placements it visits are a superset of the original ones, so
    coverage only grows and the result is a solution with s single-swap
    steps. If s <= mt, padding it with empty steps gives an mt-step
    solution with s swaps, so ms_at_mt <= s. As ms <= ms_at_mt by
    definition, ms == ms_at_mt or ms >= mt + 1; and ms >=
    swap_lower_bound(inst) always. A solution with
    fewer than ms_at_mt swaps therefore has at least
    max(mt + 1, swap_lower_bound(inst)) of them, and ms_at_mt is the
    overall optimum whenever it does not exceed that floor.

    In the one-swap-per-step model, every such solution, serialized as
    above, activates at least `floor` steps, and steps_ordered makes the
    active steps a prefix; so s_t1 .. s_t{floor} may be fixed to 1.
    Symmetry anchoring and placement fixing only relabel nodes or tokens,
    which keeps the active steps, so the pinning holds with either.
    """
    return max(mt + 1, swap_lower_bound(inst))


def solve_min_swaps(inst: TmpInstance, cfg: PipelineConfig | None = None) -> PipelineResult:
    """Minimal steps, minimal swaps at that step count, and minimal swaps overall.

    Phase 1 sweeps the step count upward from `step_lower_bound`, a proven
    bound, so no probe is spent on a count that bound already rules out.
    Placement fixing is derived from the instance: when there is a gate
    between every pair of the hardware's tokens, each solve fixes the
    middle placement (`add_complete_placement_fixing`), which keeps the
    optimum, and symmetry anchoring, which could contradict it, is left
    off.

    On a solver timeout the result carries whatever was established, with
    the optimality flags of the missing pieces left False. Each phase's
    entry in `timings` is the wall time of its model builds, solves and
    decodes: `find_min_steps` covers the infeasible probes,
    `min_swaps_at_min_steps` the first feasible one and `min_swaps_overall`
    the phase-3 solve.
    """
    cfg = cfg or PipelineConfig()
    if not inst.hardware.is_connected():
        raise ValueError("hardware graph must be connected")
    res = PipelineResult()

    t0 = time.monotonic()
    direct = is_subgraph_placement(inst)
    if direct is not None:
        res.mt = res.ms_at_mt = res.ms = 0
        res.mt_optimal = res.ms_at_mt_optimal = res.ms_optimal = True
        res.swap_solution = SwapSolution(direct, ())
        res.timings["embed"] = time.monotonic() - t0
        res.notes.append("gates already adjacent under a direct placement")
        return res
    res.timings["embed"] = time.monotonic() - t0

    fixing = inst.algorithm_is_complete() and inst.algorithm.n == inst.hardware.n
    symmetry = cfg.use_hardware_symmetry and not fixing

    t_cap = inst.hardware.n * inst.hardware.n
    phase1 = 0.0
    attempt = None
    t = step_lower_bound(inst)
    while t <= t_cap:
        t0 = time.monotonic()
        a = solve_min_swaps_at(
            inst, t, cfg.variant,
            time_limit=cfg.time_limit, use_symmetry=symmetry, use_fixing=fixing,
        )
        probe = time.monotonic() - t0
        if a.status == "timeout":
            res.timings["find_min_steps"] = phase1 + probe
            res.notes.append(f"solve timed out while probing {t} steps")
            return res
        if a.status == "optimal":
            attempt = a
            break
        phase1 += probe
        t += 1
    if attempt is None:
        raise RuntimeError(f"no feasible step count up to {t_cap}")
    res.timings["find_min_steps"] = phase1
    res.timings["min_swaps_at_min_steps"] = probe
    res.mt = t
    res.mt_optimal = True
    res.ms_at_mt = attempt.swaps
    res.ms_at_mt_optimal = True
    res.swap_solution = attempt.solution.compacted()

    floor = _cheaper_swap_floor(inst, res.mt)
    if res.ms_at_mt <= floor:
        res.ms = res.ms_at_mt
        res.ms_optimal = True
        res.notes.append(
            f"certified by bound: a cheaper solution needs at least {floor} swaps, "
            f"so {res.ms_at_mt} is optimal"
        )
        return res

    target = res.ms_at_mt - 1
    t0 = time.monotonic()
    model = build_swap_step_model(inst, steps=target)
    for t in range(1, floor + 1):
        model.fix_var(f"s_t{t}", 1.0)
    if symmetry:
        from .milp.models import add_hardware_symmetry

        add_hardware_symmetry(model, inst, steps=target)
    if fixing:
        from .milp.models import add_complete_placement_fixing

        add_complete_placement_fixing(model, inst, steps=target)
    step_result = ScipyBackend().solve(model, time_limit=cfg.time_limit)
    if step_result.is_optimal:
        step_solution = decode_solution(inst, step_result, steps=target)
    res.timings["min_swaps_overall"] = time.monotonic() - t0
    if step_result.status == "infeasible":
        res.ms = res.ms_at_mt
        res.ms_optimal = True
        res.notes.append(
            f"certified by phase-3 solve: no solution with {floor} to {target} "
            f"swaps fits in {target} single-swap steps"
        )
        return res
    if not step_result.is_optimal:
        res.notes.append(f"step-count solve ended with status {step_result.status}")
        return res
    res.ms = int(round(step_result.objective))
    res.ms_optimal = True
    res.notes.append(f"certified by phase-3 solve: optimum {res.ms} single-swap steps")
    res.swap_solution = step_solution.compacted()
    return res


def route(inst: TmpInstance, cfg: PipelineConfig | None = None) -> PipelineResult:
    """solve_min_swaps, then pack gates into circuit layers.

    When the schedule solve ends without a proven optimum, `schedule` and
    `routed_circuit` stay None and a note names the solver status.
    """
    cfg = cfg or PipelineConfig()
    res = solve_min_swaps(inst, cfg)
    if res.swap_solution is None:
        return res
    t0 = time.monotonic()
    try:
        outcome = schedule_circuit(inst, res.swap_solution, time_limit=cfg.time_limit)
    except ScheduleSolveError as exc:
        res.notes.append(str(exc))
        return res
    finally:
        res.timings["schedule"] = time.monotonic() - t0
    res.schedule = outcome
    res.routed_circuit = outcome.circuit
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
