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

Slot masks. The search numbers the slots: swap slot (t, 0) is bit t - 1,
and the extra slots (t, b) follow in (t, b) order. Each gate has one mask
of the slots it may take (`ScheduleContext.slots`) and each token a mask
of the slots it runs in; `open_mask` holds the swap slots and the opened
extra layers, and `next_mask` the next layer each step with room may
open. A gate's free slots are its mask and the open slots (and, while
fewer than L layers are open, the next ones), less the slots either token
runs in: a few integer operations and one `bit_count()` per gate and
placement, however many slots there are. The masks keep the search's
order, and so its work count and its assignment: the gate placed is the
first unplaced one with the fewest free slots, and the scan stops at one
with at most one; its open free slots are tried in ascending bit order,
which is the swap slots by step and then the extra layers in (t, b)
order, and after them its next-layer slots by step. A count of the gates
in each slot tells when a layer is left empty, and closes it.

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
    TokenPlacement,
    validate_swap_solution,
)

# Gate placements the layer-assignment search may try per schedule
# (`search_assignment`); past them HiGHS solves the integer program.
# Counting placements rather than time makes a budgeted run repeat exactly.
# The route bench instances need at most 23 (seeds 0-9, 11 and 100).
# Grid3x3 / K9 needs 539 at a solution with mt = 4 steps (HiGHS 0.6 s) and
# 2,646 at the 9-step odd-even transposition sort along a snake path
# (0.008 s; HiGHS 0.18 s). Spending all 5,000 takes 0.02 s, about 4 us a
# placement, on grid4x4 / K16 at its 16-step snake solution, which HiGHS
# then solves in 1.8 s (2 cores, Python 3.11).
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

    One pass builds the trajectory of the compacted solution and checks
    its structure: the placement size, that each step is a matching, and
    that each swap is a hardware edge. Coverage is then read from the
    windows: a gate's executable steps are exactly the placements of the
    trajectory that put its tokens on a hardware edge, and the compacted
    trajectory holds every placement the full one does, so a gate with no
    executable step is exactly a connection `validate_swap_solution`
    finds uncovered. Only a rejected solution calls the validator, to
    word the error.
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
    empty_steps: list[list[int]] = [[] for _ in gates]
    swap_steps: list[list[int]] = [[] for _ in gates]
    budgets = []
    for t, pos in enumerate(trajectory if valid else (), start=1):
        matched = matched_at[t - 1] if t <= k else None
        degree = [0] * n
        for g, (p, q) in enumerate(gates):
            a, b = pos[p], pos[q]
            if (a, b) not in edge_set and (b, a) not in edge_set:
                continue
            empty_steps[g].append(t)
            degree[a] += 1
            degree[b] += 1
            if matched is not None and a not in matched and b not in matched:
                swap_steps[g].append(t)
        budgets.append(max(degree, default=0) + 1)
    if not valid or not all(empty_steps):
        problems = validate_swap_solution(inst, sol).problems
        raise ValueError(f"swap solution invalid: {'; '.join(problems)}")
    windows = {
        g: GateWindows(tuple(empty_steps[g]), tuple(swap_steps[g])) for g in range(len(gates))
    }
    placements = [TokenPlacement(pos) for pos in trajectory]
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
    gates_on = [0] * ctx.instance.num_nodes  # d_p per token p
    steps_of = [0] * ctx.instance.num_nodes  # per token, the steps of f_p as a bitmask
    for g, (p, q) in enumerate(ctx.gates):
        steps = 0
        for t in ctx.windows[g].swap_layer_steps:
            steps |= 1 << t
        gates_on[p] += 1
        gates_on[q] += 1
        steps_of[p] |= steps
        steps_of[q] |= steps
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
    # slot s is bit s: the swap slots (t, 0) first, then the extra slots in
    # (t, b) order; first[t - 1] is the bit of (t, 1), and last has the bit
    # of each step's last extra slot
    first = []
    last = 0
    size = k
    start = 0  # (t, 1) at each step with room
    for room in budgets:
        first.append(size)
        if room:
            start |= 1 << size
            last |= 1 << size + room - 1
        size += room
    rows = []  # per gate: (gate, its candidate slots, its tokens)
    for g, (p, q) in enumerate(ctx.gates):
        w = ctx.windows[g]
        cand = 0
        for t in w.swap_layer_steps:
            cand |= 1 << t - 1
        for t in w.empty_layer_steps:
            cand |= (1 << budgets[t - 1]) - 1 << first[t - 1]
        rows.append((g, cand, p, q))
    busy = [0] * ctx.instance.num_nodes  # per token, the slots it runs in
    held = [0] * size  # per slot, the gates placed in it
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
            slot_at = [(t, 0) for t in range(1, k + 1)]
            for t, room in enumerate(budgets, start=1):
                slot_at += [(t, b) for b in range(1, room + 1)]
            return {row[0]: slot_at[s] for row, _, _, s in stack}, work
    raise RuntimeError("no gate assignment fits the extra-layer budgets")


def assemble_circuit(ctx: ScheduleContext, assignment: Assignment) -> RoutedCircuit:
    """Materialize layers from a gate -> slot assignment.

    Extra layers appear before their swap layer in slot order; slots no
    gate uses are dropped. Gate edges are taken under the placement in
    force at their step.
    """
    k = ctx.num_steps
    gates = ctx.gates
    edges_at: dict[tuple[int, int], list[Edge]] = {}  # slot -> its gates' edges
    for g, (t, b) in assignment.items():
        p, q = gates[g]
        pos = ctx.placements[t - 1].pos
        u, v = pos[p], pos[q]
        edges_at.setdefault((t, b), []).append((u, v) if u < v else (v, u))
    layers: list[CircuitLayer] = []
    for t in range(1, k + 2):
        for b in range(1, ctx.budgets[t - 1] + 1):
            if (t, b) in edges_at:
                layers.append(CircuitLayer((), tuple(sorted(edges_at[t, b]))))
        if t <= k:
            gate_edges = tuple(sorted(edges_at.get((t, 0), ())))
            layers.append(CircuitLayer(ctx.solution.matchings[t - 1], gate_edges))
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
