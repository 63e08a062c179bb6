"""Turn a swap solution plus gate set into a depth-minimized routed circuit.

Each swap step of the solution becomes one circuit layer; gates are either
merged into a swap layer (when both their tokens sit on an unmatched edge)
or placed into extra gate-only layers inserted right before a swap layer.
A gate -> slot assignment picks the placement minimizing the number of
extra layers, under the restriction that a swap matching is never split
across layers. Slot (t, 0) is swap layer t; slot (t, b), b >= 1, is the
b-th extra layer before step t, and step k + 1 is the position after the
last swap layer.

Extra-layer budgets. At most budgets[t - 1] extra layers are allowed
before step t: one more than the maximum degree of the graph, on the
hardware nodes, of the gates executable at t. This loses no optimum. The
placement in force at t is a bijection, so distinct gates sit on distinct
node pairs and the gates an assignment puts into extra layers at t form a
simple subgraph of that graph. By Vizing's theorem its edges colour
properly with max degree + 1 colours; the colour classes are layers with
at most one gate per token, so any assignment that uses more extra layers
at t can be re-packed into at most budgets[t - 1] of them without using
more.

Load bound. Let d_p be the number of gates on token p and f_p the number
of distinct steps in the union of their `swap_layer_steps`. Each layer
runs at most one gate per token, so at most one gate of p runs in swap
layer t, and only at a step t in that union: at most f_p gates of p ride
swap layers. The other d_p - f_p or more run in extra layers, pairwise
distinct ones. Hence extra >= max_p (d_p - f_p) (`load_bound`).

Search. For L = load bound, load bound + 1, ... a depth-first search
(`search_assignment`) places the gates one at a time, each time the
unplaced gate with the fewest free slots, and backtracks when one has
none. A gate's free slots are the swap slots at its swap steps that
neither token uses, the extra layers already opened at its steps that
neither token uses, and, while fewer than L layers are open, the next
unopened layer at each of its steps t that has fewer than budgets[t - 1]
open. Layers at a step are thus opened in order. Every assignment within
L extra layers and the budgets is reached: follow the branch that puts
each gate where that assignment does, renaming each step's extra layers
in the order the branch first uses them. Renaming keeps every layer's
token set and the number of layers used at each step, so each placement
along the branch is a free slot, and the search space is exactly the
integer program's. Every L that fails was therefore searched
exhaustively, so no assignment has fewer than L + 1 extra layers, and
the first L that succeeds is the optimum: its assignment opens at most L
layers and, every opened layer holding a gate, at least L, or a smaller L
would have succeeded.

Fallback. The search counts the gate placements it tries and stops past
SEARCH_BUDGET; then `build_schedule_model` states the same assignment
problem as an integer program and HiGHS solves it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .milp.backends import ScipyBackend, check_time_limit
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

# Gate placements the layer-assignment search may try per schedule
# (`search_assignment`); past them HiGHS solves the integer program.
# Counting placements rather than time makes a budgeted run repeat exactly.
# The route bench instances need at most 23 (seeds 0-9, 11 and 100).
# Grid3x3 / K9 needs 539 at a solution with mt = 4 steps (0.016 s; HiGHS
# 0.6 s) and 2,646 at the 9-step odd-even transposition sort along a snake
# path (0.07 s; HiGHS 0.18 s). Spending all 5,000 took 0.22-0.35 s on
# grid4x4 / K16 at its 16-step snake solution, which HiGHS then solves in
# 1.8 s (2 cores, Python 3.11).
SEARCH_BUDGET = 5_000


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

    @property
    def num_steps(self) -> int:
        return len(self.solution.matchings)

    @property
    def gates(self) -> list[Edge]:
        return list(self.instance.connections)

    def slots(self, g: int) -> list[tuple[int, int]]:
        """Every slot gate g may take: (t, 0) at each of its swap steps, then
        (t, b) for b = 1 .. budget at each of its empty steps."""
        w = self.windows[g]
        out = [(t, 0) for t in w.swap_layer_steps]
        out += [(t, b) for t in w.empty_layer_steps for b in range(1, self.budgets[t - 1] + 1)]
        return out


def compute_windows(inst: TmpInstance, sol: SwapSolution) -> ScheduleContext:
    """Executable steps per gate, plus the per-step extra-layer budgets.

    The budget before each swap layer is one more than the max degree of
    the graph of gates executable there, which always suffices to host
    them all. An invalid swap solution raises ValueError, so every gate
    has at least one executable step.
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
    matched_at = [{v for e in m for v in e} for m in compact.matchings]
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
            if t <= k and a not in matched_at[t - 1] and b not in matched_at[t - 1]:
                swap_steps.append(t)
        windows[g] = GateWindows(tuple(empty_steps), tuple(swap_steps))
    budgets = []
    for t in range(k + 1):
        degree: dict[int, int] = {}
        for a, b in executable[t]:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        budgets.append((max(degree.values()) if degree else 0) + 1)
    return ScheduleContext(inst, compact, placements, windows, budgets)


def _u(t: int, b: int) -> str:
    return f"u_t{t}_b{b}"


def _a(g: int, t: int, b: int) -> str:
    return f"a_g{g}_t{t}_b{b}"


def _gates_of_token(gates: list[Edge]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for g, (p, q) in enumerate(gates):
        out.setdefault(p, []).append(g)
        out.setdefault(q, []).append(g)
    return out


def build_schedule_model(ctx: ScheduleContext) -> MilpModel:
    """Layer-assignment program: every gate exactly once, one gate per token
    per layer, extra layers counted only when used and filled front-first."""
    k = ctx.num_steps
    model = MilpModel(name=f"schedule_k{k}_g{len(ctx.windows)}")
    for t in range(1, k + 2):
        for b in range(1, ctx.budgets[t - 1] + 1):
            model.add_var(_u(t, b))
    for g in sorted(ctx.windows):
        for t, b in ctx.slots(g):
            model.add_var(_a(g, t, b))
    for g in sorted(ctx.windows):
        model.add_constr(f"gate_once_g{g}", [(_a(g, t, b), 1.0) for t, b in ctx.slots(g)],
                         "==", 1.0)
    tokens_of = _gates_of_token(ctx.gates)
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
        for r in sorted(tokens_of):
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
        hits = [(t, b) for t, b in ctx.slots(g) if values[_a(g, t, b)] > 0.5]
        if len(hits) != 1:
            raise ValueError(f"gate {g} scheduled {len(hits)} times")
        out[g] = hits[0]
    return out


def load_bound(ctx: ScheduleContext) -> int:
    """max over tokens p of d_p - f_p, a lower bound on the extra layers
    (module docstring)."""
    return max(
        (
            len(gs) - len({t for g in gs for t in ctx.windows[g].swap_layer_steps})
            for gs in _gates_of_token(ctx.gates).values()
        ),
        default=0,
    )


class _OutOfBudget(Exception):
    pass


def search_assignment(
    ctx: ScheduleContext, bound: int, budget: float
) -> tuple[Assignment | None, int]:
    """(assignment, work): a fewest-extra-layer assignment, found by trying
    L = bound, bound + 1, ... extra layers (module docstring), and the gate
    placements made; the assignment is None when the search needs more
    than budget placements. bound must be a valid lower bound, such as
    `load_bound`.
    """
    gates = ctx.gates
    windows = [ctx.windows[g] for g in range(len(gates))]
    busy: dict[tuple[int, int], int] = {}  # slot -> bits of the tokens it runs
    opened_at = [0] * (ctx.num_steps + 2)  # extra layers opened before step t
    slot_of: Assignment = {}
    work = opened = limit = 0

    def free_slots(g: int) -> list[tuple[int, int]]:
        p, q = gates[g]
        bits = 1 << p | 1 << q
        w = windows[g]
        out = [(t, 0) for t in w.swap_layer_steps if not busy.get((t, 0), 0) & bits]
        out += [
            (t, b)
            for t in w.empty_layer_steps
            for b in range(1, opened_at[t] + 1)
            if not busy[t, b] & bits
        ]
        if opened < limit:
            out += [
                (t, opened_at[t] + 1)
                for t in w.empty_layer_steps
                if opened_at[t] < ctx.budgets[t - 1]
            ]
        return out

    def fill() -> bool:
        # depth-first without recursion, so no gate count meets Python's
        # recursion limit; each stack entry is (gate, its free slots, index
        # of the next slot to try)
        stack: list[list] = []
        while len(slot_of) < len(gates):
            # the unplaced gate with the fewest free slots; one with none
            # backtracks at once
            g, slots = -1, None
            for h in range(len(gates)):
                if h not in slot_of:
                    hs = free_slots(h)
                    if slots is None or len(hs) < len(slots):
                        g, slots = h, hs
                        if len(hs) <= 1:
                            break
            stack.append([g, slots, 0])
            while True:
                if not stack:
                    return False
                top = stack[-1]
                g, slots, i = top
                if i:
                    unplace(g, *slots[i - 1])
                if i == len(slots):
                    stack.pop()
                    continue
                put(g, *slots[i])
                top[2] = i + 1
                break
        return True

    def put(g: int, t: int, b: int) -> None:
        nonlocal work, opened
        if work == budget:
            raise _OutOfBudget
        work += 1
        if b > opened_at[t]:
            opened_at[t] += 1
            opened += 1
        p, q = gates[g]
        busy[t, b] = busy.get((t, b), 0) | 1 << p | 1 << q
        slot_of[g] = (t, b)

    def unplace(g: int, t: int, b: int) -> None:
        # a layer left empty is the last one opened at t: any opened after
        # it was opened deeper in the search and already closed
        nonlocal opened
        p, q = gates[g]
        busy[t, b] ^= 1 << p | 1 << q
        del slot_of[g]
        if b and not busy[t, b]:
            opened_at[t] -= 1
            opened -= 1

    try:
        for limit in range(bound, sum(ctx.budgets) + 1):
            if fill():
                return slot_of, work
    except _OutOfBudget:
        return None, work
    raise RuntimeError("no gate assignment fits the extra-layer budgets")


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
    method: str  # "search", "milp", or "direct" when there is no gate to place
    load_bound: int = 0
    work: int = 0  # gate placements the search made


def schedule_circuit(
    inst: TmpInstance,
    sol: SwapSolution,
    time_limit: float | None = None,
) -> ScheduleOutcome:
    """Full scheduling pass: windows, layer-assignment search, assemble.

    The search certifies the fewest extra layers within SEARCH_BUDGET gate
    placements; past it the integer program is solved with HiGHS instead,
    under time_limit. Raises ScheduleSolveError, naming the solver status,
    when that solve ends without a proven optimum, and ValueError when
    time_limit is not positive.
    """
    check_time_limit(time_limit)
    ctx = compute_windows(inst, sol)
    if not ctx.windows:
        return ScheduleOutcome(assemble_circuit(ctx, {}), 0, "direct")
    bound = load_bound(ctx)
    assignment, work = search_assignment(ctx, bound, SEARCH_BUDGET)
    if assignment is not None:
        extra = len({slot for slot in assignment.values() if slot[1] >= 1})
        return ScheduleOutcome(assemble_circuit(ctx, assignment), extra, "search", bound, work)
    model = build_schedule_model(ctx)
    result = ScipyBackend().solve(model, time_limit=time_limit)
    if not result.is_optimal:
        raise ScheduleSolveError(f"schedule solve ended with status {result.status}")
    circuit = assemble_circuit(ctx, extract_assignment(ctx, result.values))
    return ScheduleOutcome(circuit, int(round(result.objective)), "milp", bound, work)
