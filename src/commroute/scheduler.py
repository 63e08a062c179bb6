"""Turn a swap solution plus gate set into a depth-minimized routed circuit.

Each swap step of the solution becomes one circuit layer; gates are either
merged into a swap layer (when both their tokens sit on an unmatched edge)
or placed into extra gate-only layers inserted right before a swap layer.
An integer program picks the placement minimizing the number of extra
layers, under the restriction that a swap matching is never split across
layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .milp.backends import ScipyBackend
from .milp.model import MilpModel
from .solutions import (
    CircuitLayer,
    Edge,
    RoutedCircuit,
    SwapSolution,
    TmpInstance,
    TokenPlacement,
    placement_trajectory,
    validate_swap_solution,
)


@dataclass(frozen=True)
class GateWindows:
    """Steps where one gate can run. Step t means "right before swap layer t";
    the last step index is the artificial trailing position after all swaps."""

    empty_layer_steps: tuple[int, ...]
    swap_layer_steps: tuple[int, ...]


@dataclass
class ScheduleContext:
    instance: TmpInstance
    solution: SwapSolution  # compacted: no empty matchings
    placements: list[TokenPlacement]  # length = steps + 1
    windows: dict[int, GateWindows]  # gate index -> windows
    budgets: list[int]  # extra-layer budget per step, length = steps + 1
    unschedulable: list[int] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.solution.matchings)

    @property
    def gates(self) -> list[Edge]:
        return list(self.instance.connections)


def compute_windows(inst: TmpInstance, sol: SwapSolution) -> ScheduleContext:
    """Executable steps per gate, plus the per-step extra-layer budgets.

    The budget before each swap layer is one more than the max degree of
    the graph of gates executable there, which always suffices to host
    them all. Gates with empty windows land in context.unschedulable,
    which signals an invalid or incomplete swap solution.
    """
    check = validate_swap_solution(inst, sol)
    if not check.valid:
        raise ValueError(f"swap solution invalid: {'; '.join(check.problems)}")
    compact = sol.compacted()
    placements = placement_trajectory(compact)
    k = len(compact.matchings)
    h = inst.hardware
    windows: dict[int, GateWindows] = {}
    executable: list[list[Edge]] = [[] for _ in range(k + 1)]
    unschedulable = []
    for g, (p, q) in enumerate(inst.connections):
        empty_steps = []
        swap_steps = []
        for t in range(1, k + 2):
            f = placements[t - 1]
            a, b = f.node_of(p), f.node_of(q)
            if not h.has_edge(a, b):
                continue
            empty_steps.append(t)
            executable[t - 1].append((min(a, b), max(a, b)))
            if t <= k:
                matched = {v for e in compact.matchings[t - 1] for v in e}
                if a not in matched and b not in matched:
                    swap_steps.append(t)
        windows[g] = GateWindows(tuple(empty_steps), tuple(swap_steps))
        if not empty_steps:
            unschedulable.append(g)
    budgets = []
    for t in range(k + 1):
        degree: dict[int, int] = {}
        for a, b in executable[t]:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        budgets.append((max(degree.values()) if degree else 0) + 1)
    return ScheduleContext(inst, compact, placements, windows, budgets, unschedulable)


def _u(t: int, b: int) -> str:
    return f"u_t{t}_b{b}"


def _a(g: int, t: int, b: int) -> str:
    return f"a_g{g}_t{t}_b{b}"


def build_schedule_model(ctx: ScheduleContext) -> MilpModel:
    """Layer-assignment program: every gate exactly once, one gate per token
    per layer, extra layers counted only when used and filled front-first."""
    if ctx.unschedulable:
        raise ValueError(f"gates without any executable step: {ctx.unschedulable}")
    k = ctx.num_steps
    model = MilpModel(name=f"schedule_k{k}_g{len(ctx.windows)}")
    for t in range(1, k + 2):
        for b in range(1, ctx.budgets[t - 1] + 1):
            model.add_var(_u(t, b))
    for g in sorted(ctx.windows):
        w = ctx.windows[g]
        for t in w.swap_layer_steps:
            model.add_var(_a(g, t, 0))
        for t in w.empty_layer_steps:
            for b in range(1, ctx.budgets[t - 1] + 1):
                model.add_var(_a(g, t, b))
    for g in sorted(ctx.windows):
        w = ctx.windows[g]
        terms = [(_a(g, t, 0), 1.0) for t in w.swap_layer_steps]
        terms += [
            (_a(g, t, b), 1.0)
            for t in w.empty_layer_steps
            for b in range(1, ctx.budgets[t - 1] + 1)
        ]
        model.add_constr(f"gate_once_g{g}", terms, "==", 1.0)
    gates = ctx.gates
    tokens_of: dict[int, list[int]] = {}
    for g, (p, q) in enumerate(gates):
        tokens_of.setdefault(p, []).append(g)
        tokens_of.setdefault(q, []).append(g)
    for t in range(1, k + 2):
        for b in range(1, ctx.budgets[t - 1] + 1):
            for r in sorted(tokens_of):
                terms = [
                    (_a(g, t, b), 1.0)
                    for g in tokens_of[r]
                    if t in ctx.windows[g].empty_layer_steps
                ]
                if terms:
                    model.add_constr(
                        f"token_cap_t{t}_b{b}_p{r}",
                        terms + [(_u(t, b), -1.0)], "<=", 0.0,
                    )
    for t in range(1, k + 1):
        matched = {v for e in ctx.solution.matchings[t - 1] for v in e}
        f = ctx.placements[t - 1]
        for r in sorted(tokens_of):
            if f.node_of(r) in matched:
                continue
            terms = [
                (_a(g, t, 0), 1.0)
                for g in tokens_of[r]
                if t in ctx.windows[g].swap_layer_steps
            ]
            if terms:
                model.add_constr(f"swap_slot_cap_t{t}_p{r}", terms, "<=", 1.0)
    for t in range(1, k + 1):
        for b in range(1, ctx.budgets[t - 1]):
            model.add_constr(
                f"layers_ordered_t{t}_b{b}",
                [(_u(t, b + 1), 1.0), (_u(t, b), -1.0)], "<=", 0.0,
            )
    model.set_objective(
        [
            (_u(t, b), 1.0)
            for t in range(1, k + 2)
            for b in range(1, ctx.budgets[t - 1] + 1)
        ]
    )
    return model


Assignment = dict[int, tuple[int, int]]  # gate -> (step t, layer b; b=0 is the swap layer)


def extract_assignment(ctx: ScheduleContext, values: dict[str, float]) -> Assignment:
    out: Assignment = {}
    for g in sorted(ctx.windows):
        w = ctx.windows[g]
        slots = [(t, 0) for t in w.swap_layer_steps]
        slots += [
            (t, b)
            for t in w.empty_layer_steps
            for b in range(1, ctx.budgets[t - 1] + 1)
        ]
        hits = [(t, b) for t, b in slots if values[_a(g, t, b)] > 0.5]
        if len(hits) != 1:
            raise ValueError(f"gate {g} scheduled {len(hits)} times")
        out[g] = hits[0]
    return out


def assemble_circuit(ctx: ScheduleContext, assignment: Assignment) -> RoutedCircuit:
    """Materialize layers from a gate -> slot assignment.

    Extra layers appear before their swap layer in slot order; slots no
    gate uses are dropped. Gate edges are taken under the placement in
    force at their step.
    """
    k = ctx.num_steps
    gates = ctx.gates
    by_slot: dict[tuple[int, int], list[int]] = {}
    for g, slot in assignment.items():
        by_slot.setdefault(slot, []).append(g)
    layers: list[CircuitLayer] = []
    for t in range(1, k + 2):
        f = ctx.placements[t - 1]

        def gate_edges(slot_gates: list[int]) -> tuple[Edge, ...]:
            edges = []
            for g in sorted(slot_gates):
                p, q = gates[g]
                a, b = f.node_of(p), f.node_of(q)
                edges.append((min(a, b), max(a, b)))
            return tuple(sorted(edges))

        for b in range(1, ctx.budgets[t - 1] + 1):
            found = by_slot.get((t, b), [])
            if found:
                layers.append(CircuitLayer((), gate_edges(found)))
        if t <= k:
            layers.append(
                CircuitLayer(
                    ctx.solution.matchings[t - 1], gate_edges(by_slot.get((t, 0), []))
                )
            )
    return RoutedCircuit(ctx.solution.initial, tuple(layers))


class ScheduleSolveError(RuntimeError):
    """The layer-assignment solve stopped without a proven optimum."""


@dataclass
class ScheduleOutcome:
    circuit: RoutedCircuit
    extra_layers: int
    method: str  # "milp", or "direct" when there is no gate to place


def schedule_circuit(
    inst: TmpInstance,
    sol: SwapSolution,
    time_limit: float | None = None,
) -> ScheduleOutcome:
    """Full scheduling pass: windows, layer-assignment solve, assemble.

    Raises ScheduleSolveError, naming the solver status, when the solve
    ends without a proven optimum.
    """
    ctx = compute_windows(inst, sol)
    if not ctx.windows:
        return ScheduleOutcome(assemble_circuit(ctx, {}), 0, "direct")
    model = build_schedule_model(ctx)
    result = ScipyBackend().solve(model, time_limit=time_limit)
    if not result.is_optimal:
        raise ScheduleSolveError(f"schedule solve ended with status {result.status}")
    circuit = assemble_circuit(ctx, extract_assignment(ctx, result.values))
    return ScheduleOutcome(circuit, int(round(result.objective)), "milp")
