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
of distinct swap slots those gates may take. Each layer runs at most one
gate per token, so at most one gate of p runs in swap layer t, and only
when (t, 0) is one of those slots: at most f_p gates of p ride swap
layers. The other d_p - f_p or more run in extra layers, pairwise
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

Slot table. `compute_windows` numbers the slots once, for every reader:
`ScheduleContext.slots[s]` is slot s, the swap slots (t, 0) by step
(bit t - 1) and then the extra slots (t, b) in (t, b) order, and
`ScheduleContext.cand[g]` is the mask of the slots gate g may take, its
swap slots and every extra slot at its executable steps. `load_bound`
reads the swap bits of the masks, `build_schedule_model` and
`extract_assignment` one variable per bit, and `assemble_circuit` the
positions the table was read from. The search keeps a mask per token of
the slots it runs in; `open_mask` holds the swap slots and the opened
extra layers, and `next_mask` the next layer each step with room may
open. A gate's free slots are its mask and the open slots (and, while
fewer than L layers are open, the next ones), less the slots either
token runs in: a few integer operations and one `bit_count()` per gate
and placement, however many slots there are. The gate placed is the
first unplaced one with the fewest free slots, and the scan stops at one
with at most one; its open free slots are tried in ascending bit order,
and after them its next-layer slots by step. A count of the gates in
each slot tells when a layer is left empty, and closes it.

Fallback. The search counts the gate placements it tries and stops past
SEARCH_BUDGET; then `build_schedule_model` states the same assignment
problem as an integer program and HiGHS solves it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .graphs import _normalize_edge
from .milp.backends import ScipyBackend, check_time_limit
from .milp.model import MilpModel
from .solutions import (
    CircuitLayer,
    Edge,
    RoutedCircuit,
    SwapSolution,
    TmpInstance,
    validate_swap_solution,
)

# Gate placements the layer-assignment search may try per schedule
# (`search_assignment`); past them HiGHS solves the integer program.
# Counting placements rather than time makes a budgeted run repeat exactly.
# At the odd-even transposition sort along a snake path, grid3x3 / K9
# needs 2,646, and grid4x4 / K16 spends all 5,000 failing to rule out its
# load bound (both in test_scheduler.py).
SEARCH_BUDGET = 5_000


@dataclass
class ScheduleContext:
    """A compacted solution's slot table (module docstring), its per-step
    positions and its extra-layer budgets."""

    instance: TmpInstance
    solution: SwapSolution  # compacted: no empty matchings
    positions: list[tuple[int, ...]]  # per step, token -> node; length = steps + 1
    budgets: list[int]  # extra-layer budget per step, length = steps + 1
    slots: list[tuple[int, int]]  # slot s -> (t, b)
    cand: list[int]  # per gate, the mask of the slots it may take

    @property
    def num_steps(self) -> int:
        return len(self.solution.matchings)

    @property
    def gates(self) -> list[Edge]:
        return list(self.instance.connections)


def compute_windows(inst: TmpInstance, sol: SwapSolution) -> ScheduleContext:
    """The schedule's slot table: the slots, each gate's mask of the slots
    it may take, and the per-step extra-layer budgets.

    The budget before each swap layer is one more than the max degree of
    the graph of gates executable there, which always suffices to host
    them all. A gate may take swap slot (t, 0) where its tokens sit on a
    hardware edge that step t does not swap, and every extra slot at each
    step where they sit on a hardware edge. An invalid swap solution
    raises ValueError, so every gate has at least one slot.

    One pass builds the trajectory of the compacted solution and checks
    its structure: the placement size, that each step is a matching, and
    that each swap is a hardware edge. Coverage is then read from the
    masks: a gate's executable steps are exactly the placements of the
    trajectory that put its tokens on a hardware edge, and the compacted
    trajectory holds every placement the full one does, so a gate with no
    slot is exactly a connection `validate_swap_solution` finds
    uncovered. Only a rejected solution calls the validator, to word the
    error.
    """
    compact = sol.compacted()
    edge_set = inst.hardware.edge_set
    n = inst.num_nodes
    valid = len(sol.initial) == n
    trajectory = [sol.initial.pos]
    matched_at: list[set[int]] = []  # the nodes each step swaps
    if valid:
        pos = list(sol.initial.pos)
        tok = list(sol.initial.token_at)
        for m in compact.matchings:
            ends = {v for e in m for v in e}
            if len(ends) != 2 * len(m) or any(_normalize_edge(*e) not in edge_set for e in m):
                valid = False
                break
            matched_at.append(ends)
            for u, v in m:
                p, q = tok[u], tok[v]
                tok[u], tok[v] = q, p
                pos[p], pos[q] = v, u
            trajectory.append(tuple(pos))
    k = len(compact.matchings)
    gates = inst.connections
    slots = [(t, 0) for t in range(1, k + 1)]
    cand = [0] * len(gates)
    budgets = []
    for t, pos in enumerate(trajectory if valid else (), start=1):
        matched = matched_at[t - 1] if t <= k else None
        degree = [0] * n
        executable = []
        for g, (p, q) in enumerate(gates):
            a, b = pos[p], pos[q]
            if (a, b) not in edge_set and (b, a) not in edge_set:
                continue
            executable.append(g)
            degree[a] += 1
            degree[b] += 1
            if matched is not None and a not in matched and b not in matched:
                cand[g] |= 1 << t - 1
        room = max(degree, default=0) + 1
        extra = (1 << room) - 1 << len(slots)  # the extra slots (t, 1 .. room)
        for g in executable:
            cand[g] |= extra
        budgets.append(room)
        slots += [(t, b) for b in range(1, room + 1)]
    if not valid or not all(cand):
        problems = validate_swap_solution(inst, sol).problems
        raise ValueError(f"swap solution invalid: {'; '.join(problems)}")
    return ScheduleContext(inst, compact, trajectory, budgets, slots, cand)


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


def _bits(mask: int):
    """The indices of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_schedule_model(ctx: ScheduleContext) -> MilpModel:
    """Layer-assignment program: every gate exactly once, one gate per token
    per layer, extra layers counted only when used and filled front-first."""
    k = ctx.num_steps
    slots = ctx.slots
    model = MilpModel(name=f"schedule_k{k}_g{len(ctx.cand)}")
    for t, b in slots[k:]:
        model.add_var(_u(t, b))
    for g, cand in enumerate(ctx.cand):
        names = [_a(g, *slots[s]) for s in _bits(cand)]
        for name in names:
            model.add_var(name)
        model.add_constr(f"gate_once_g{g}", [(name, 1.0) for name in names], "==", 1.0)
    tokens_of = _gates_of_token(ctx.gates)
    for s in [*range(k, len(slots)), *range(k)]:  # the extra slots' rows, then the swap slots'
        t, b = slots[s]
        for r in sorted(tokens_of):
            terms = [(_a(g, t, b), 1.0) for g in tokens_of[r] if ctx.cand[g] >> s & 1]
            if terms and b:
                model.add_constr(f"token_cap_t{t}_b{b}_p{r}", terms + [(_u(t, b), -1.0)],
                                 "<=", 0.0)
            elif terms:
                model.add_constr(f"swap_slot_cap_t{t}_p{r}", terms, "<=", 1.0)
    for t, b in slots[k:]:
        if b > 1:
            model.add_constr(f"layers_ordered_t{t}_b{b - 1}",
                             [(_u(t, b), 1.0), (_u(t, b - 1), -1.0)], "<=", 0.0)
    model.set_objective([(_u(t, b), 1.0) for t, b in slots[k:]])
    return model


Assignment = dict[int, tuple[int, int]]  # gate -> (step t, layer b; b=0 is the swap layer)


def extract_assignment(ctx: ScheduleContext, values: dict[str, float]) -> Assignment:
    out: Assignment = {}
    for g, cand in enumerate(ctx.cand):
        hits = [ctx.slots[s] for s in _bits(cand) if values[_a(g, *ctx.slots[s])] > 0.5]
        if len(hits) != 1:
            raise ValueError(f"gate {g} scheduled {len(hits)} times")
        out[g] = hits[0]
    return out


def load_bound(ctx: ScheduleContext) -> int:
    """max over tokens p of d_p - f_p, a lower bound on the extra layers
    (module docstring)."""
    swap_bits = (1 << ctx.num_steps) - 1
    gates_on = [0] * ctx.instance.num_nodes  # d_p per token p
    steps_of = [0] * ctx.instance.num_nodes  # per token, the swap slots of f_p
    for (p, q), cand in zip(ctx.gates, ctx.cand):
        gates_on[p] += 1
        gates_on[q] += 1
        steps_of[p] |= cand & swap_bits
        steps_of[q] |= cand & swap_bits
    return max((d - f.bit_count() for d, f in zip(gates_on, steps_of) if d), default=0)


def search_assignment(
    ctx: ScheduleContext, bound: int, budget: float
) -> tuple[Assignment | None, int]:
    """(assignment, work): a fewest-extra-layer assignment, found by trying
    L = bound, bound + 1, ... extra layers (module docstring), and the gate
    placements made; the assignment is None when the search needs more
    than budget placements. bound must be a valid lower bound, such as
    `load_bound`.
    """
    k = ctx.num_steps
    budgets = ctx.budgets
    start = last = 0  # each step's first and last extra slot
    for s, (t, b) in enumerate(ctx.slots):
        if b == 1:
            start |= 1 << s
        if b == budgets[t - 1]:
            last |= 1 << s
    rows = [(g, cand, p, q) for g, (cand, (p, q)) in enumerate(zip(ctx.cand, ctx.gates))]
    busy = [0] * ctx.instance.num_nodes  # per token, the slots it runs in
    held = [0] * len(ctx.slots)  # per slot, the gates placed in it
    work = 0

    for limit in range(bound, sum(budgets) + 1):
        open_mask = (1 << k) - 1  # the swap slots and the opened extra layers
        next_mask = start  # per step with room, the next extra layer it may open
        opened = 0
        unplaced = rows[:]
        # depth-first without recursion, so no gate count meets Python's
        # recursion limit; each stack entry is [its unplaced row, the open
        # slots and the next-layer slots it has yet to try, its slot]
        stack: list[list] = []
        while unplaced:
            # the unplaced gate with the fewest free slots, the first of them;
            # one with none backtracks at once
            allowed = open_mask | next_mask if opened < limit else open_mask
            best, fewest = 0, -1
            for i, (_, cand, p, q) in enumerate(unplaced):
                free = (cand & allowed & ~(busy[p] | busy[q])).bit_count()
                if fewest < 0 or free < fewest:
                    best, fewest = i, free
                    if free <= 1:
                        break
            row = unplaced.pop(best)
            _, cand, p, q = row
            later = cand & next_mask if opened < limit else 0
            stack.append([row, cand & open_mask & ~(busy[p] | busy[q]), later, -1])
            while stack:
                entry = stack[-1]
                row, now, later, s = entry
                _, _, p, q = row
                if s >= 0:
                    bit = 1 << s
                    busy[p] ^= bit
                    busy[q] ^= bit
                    held[s] -= 1
                    if s >= k and not held[s]:
                        # a layer left empty is the last one opened at its
                        # step: any opened after it was opened deeper in the
                        # search and already closed
                        open_mask ^= bit
                        if not last & bit:
                            next_mask ^= bit << 1
                        next_mask |= bit
                        opened -= 1
                if now:
                    bit = now & -now
                    entry[1] = now ^ bit
                elif later:
                    bit = later & -later
                    entry[2] = later ^ bit
                else:
                    stack.pop()
                    bisect.insort(unplaced, row)
                    continue
                if work == budget:
                    return None, work
                work += 1
                s = entry[3] = bit.bit_length() - 1
                if not open_mask & bit:
                    open_mask |= bit
                    next_mask ^= bit
                    if not last & bit:
                        next_mask |= bit << 1
                    opened += 1
                busy[p] |= bit
                busy[q] |= bit
                held[s] += 1
                break
            else:
                break  # every branch failed: no assignment within L
        else:  # every gate placed
            return {row[0]: ctx.slots[s] for row, _, _, s in stack}, work
    raise RuntimeError("no gate assignment fits the extra-layer budgets")


def assemble_circuit(ctx: ScheduleContext, assignment: Assignment) -> RoutedCircuit:
    """Materialize layers from a gate -> slot assignment.

    Extra layers appear before their swap layer in slot order; slots no
    gate uses are dropped. Gate edges are taken under the placement in
    force at their step.
    """
    gates = ctx.gates
    edges_at: dict[tuple[int, int], list[Edge]] = {slot: [] for slot in ctx.slots[:ctx.num_steps]}
    for g, (t, b) in assignment.items():
        p, q = gates[g]
        pos = ctx.positions[t - 1]
        u, v = pos[p], pos[q]
        edges_at.setdefault((t, b), []).append((u, v) if u < v else (v, u))
    layers = []
    for t, b in sorted(edges_at, key=lambda slot: (slot[0], not slot[1], slot[1])):
        swaps = () if b else ctx.solution.matchings[t - 1]
        layers.append(CircuitLayer(swaps, tuple(sorted(edges_at[t, b]))))
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
    """Full scheduling pass: slot table, layer-assignment search, assemble.

    The search certifies the fewest extra layers within SEARCH_BUDGET gate
    placements; past it the integer program is solved with HiGHS instead,
    under time_limit. Raises ScheduleSolveError, naming the solver status,
    when that solve ends without a proven optimum, and ValueError when
    time_limit is not positive.
    """
    check_time_limit(time_limit)
    ctx = compute_windows(inst, sol)
    if not ctx.cand:
        return ScheduleOutcome(assemble_circuit(ctx, {}), 0, "direct")
    bound = load_bound(ctx)
    assignment, work = search_assignment(ctx, bound, SEARCH_BUDGET)
    method = "search"
    if assignment is None:
        result = ScipyBackend().solve(build_schedule_model(ctx), time_limit=time_limit)
        if not result.is_optimal:
            raise ScheduleSolveError(f"schedule solve ended with status {result.status}")
        assignment = extract_assignment(ctx, result.values)
        method = "milp"
    # at an optimum every opened layer holds a gate, so the distinct extra
    # slots in use are the extra layers on both paths
    extra = len({slot for slot in assignment.values() if slot[1] >= 1})
    return ScheduleOutcome(assemble_circuit(ctx, assignment), extra, method, bound, work)
