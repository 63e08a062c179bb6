"""Builders translating a routing instance into MilpModel programs.

Conventions shared by every builder here:

* A horizon is given as `steps` swap steps, a keyword-only argument; it
  spans T = steps + 1 placements (bijections token -> node). Placement
  indices run 1..T, and model names carry T.
* Tokens are 0..n-1 over the hardware size n; tokens past the algorithm
  size are padding and appear in no gate constraint.
* Variables, in declaration order: w (token p sits on node i at placement
  t), x (token p rides the arc i -> j between placements t and t+1, with
  j = i allowed as a stay arc), then per-gate linearization variables,
  then step indicators. All orderings are sorted, so a rebuilt model is
  byte-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..graphs import Graph, automorphism_orbits
from ..polytope import block_covering_constraints
from ..solutions import SwapSolution, TmpInstance, TokenPlacement
from .backends import ScipyBackend, SolveResult
from .model import MilpModel


class ModelVariant(enum.Enum):
    """How the "tokens p and q meet at placement t" condition is linearized."""

    PAIR_MCCORMICK = "pair-mccormick"  # variable per ordered adjacent node pair, product rows
    PAIR_AGGREGATED = "pair-aggregated"  # pair variables, neighborhood-aggregated caps
    INDICATOR_FULL = "indicator-full"  # one meeting indicator, both lifted families
    INDICATOR_ONESIDED = "indicator-onesided"  # indicator, only the rows that cap it

    @classmethod
    def from_string(cls, s: str) -> ModelVariant:
        for v in cls:
            if v.value == s or v.name == s.upper().replace("-", "_"):
                return v
        raise ValueError(f"unknown model variant {s!r}")


def _placements(steps: int) -> int:
    """Placement count T of a horizon of `steps` swap steps."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    return steps + 1


def _w(t: int, p: int, i: int) -> str:
    return f"w_t{t}_p{p}_n{i}"


def _x(t: int, p: int, i: int, j: int) -> str:
    return f"x_t{t}_p{p}_n{i}_n{j}"


def _y(t: int, g: int, i: int, j: int) -> str:
    return f"y_t{t}_g{g}_n{i}_n{j}"


def _z(t: int, g: int) -> str:
    return f"z_t{t}_g{g}"


def build_base(inst: TmpInstance, *, steps: int) -> MilpModel:
    """Placement and routing skeleton, objective = number of swaps.

    Gate coverage is NOT included; add_gate_constraints layers it on.
    """
    T = _placements(steps)
    h = inst.hardware
    n = h.n
    model = MilpModel(name=f"route_n{n}_T{T}")
    for t in range(1, T + 1):
        for p in range(n):
            for i in range(n):
                model.add_var(_w(t, p, i))
    arcs = [(i, j) for i in range(n) for j in sorted([i, *h.adjacency[i]])]
    for t in range(1, T):
        for p in range(n):
            for i, j in arcs:
                model.add_var(_x(t, p, i, j))
    for t in range(1, T + 1):
        for i in range(n):
            model.add_constr(
                f"node_full_t{t}_n{i}", [(_w(t, p, i), 1.0) for p in range(n)], "==", 1.0
            )
    for t in range(1, T + 1):
        for p in range(n):
            model.add_constr(
                f"token_placed_t{t}_p{p}", [(_w(t, p, i), 1.0) for i in range(n)], "==", 1.0
            )
    for t in range(1, T):
        for p in range(n):
            for i in range(n):
                out = [(_x(t, p, i, j), 1.0) for j in sorted([i, *h.adjacency[i]])]
                model.add_constr(
                    f"flow_out_t{t}_p{p}_n{i}", out + [(_w(t, p, i), -1.0)], "==", 0.0
                )
    for t in range(1, T):
        for p in range(n):
            for i in range(n):
                inc = [(_x(t, p, j, i), 1.0) for j in sorted([i, *h.adjacency[i]])]
                model.add_constr(
                    f"flow_in_t{t}_p{p}_n{i}", inc + [(_w(t + 1, p, i), -1.0)], "==", 0.0
                )
    for t in range(1, T):
        for u, v in h.edges:
            terms = [(_x(t, p, u, v), 1.0) for p in range(n)]
            terms += [(_x(t, p, v, u), -1.0) for p in range(n)]
            model.add_constr(f"swap_balance_t{t}_n{u}_n{v}", terms, "==", 0.0)
    objective = [
        (_x(t, p, i, j), 0.5)
        for t in range(1, T)
        for p in range(n)
        for i, j in arcs
        if i != j
    ]
    model.set_objective(objective)
    return model


def _ordered_adjacent(h: Graph) -> list[tuple[int, int]]:
    return [(i, j) for i in range(h.n) for j in sorted(h.adjacency[i])]


def add_gate_constraints(
    model: MilpModel,
    inst: TmpInstance,
    variant: ModelVariant = ModelVariant.INDICATOR_ONESIDED,
    *,
    steps: int,
) -> MilpModel:
    """Layer gate coverage onto a build_base model, per the chosen variant."""
    T = _placements(steps)
    h = inst.hardware
    gates = list(inst.connections)
    pairs = _ordered_adjacent(h)
    if variant in (ModelVariant.PAIR_MCCORMICK, ModelVariant.PAIR_AGGREGATED):
        for t in range(1, T + 1):
            for g in range(len(gates)):
                for i, j in pairs:
                    model.add_var(_y(t, g, i, j))
        for g, (p, q) in enumerate(gates):
            cover = [
                (_y(t, g, i, j), 1.0) for t in range(1, T + 1) for i, j in pairs
            ]
            model.add_constr(f"gate_cover_g{g}", cover, ">=", 1.0)
        if variant is ModelVariant.PAIR_MCCORMICK:
            for t in range(1, T + 1):
                for g, (p, q) in enumerate(gates):
                    for i, j in pairs:
                        y = _y(t, g, i, j)
                        model.add_constr(
                            f"y_le_first_t{t}_g{g}_n{i}_n{j}",
                            [(y, 1.0), (_w(t, p, i), -1.0)], "<=", 0.0,
                        )
                        model.add_constr(
                            f"y_le_second_t{t}_g{g}_n{i}_n{j}",
                            [(y, 1.0), (_w(t, q, j), -1.0)], "<=", 0.0,
                        )
                        model.add_constr(
                            f"y_ge_overlap_t{t}_g{g}_n{i}_n{j}",
                            [(_w(t, p, i), 1.0), (_w(t, q, j), 1.0), (y, -1.0)], "<=", 1.0,
                        )
        else:
            for t in range(1, T + 1):
                for g, (p, q) in enumerate(gates):
                    for i in range(h.n):
                        nbrs = sorted(h.adjacency[i])
                        if not nbrs:
                            continue
                        model.add_constr(
                            f"y_out_cap_t{t}_g{g}_n{i}",
                            [(_y(t, g, i, j), 1.0) for j in nbrs] + [(_w(t, p, i), -1.0)],
                            "<=", 0.0,
                        )
                        model.add_constr(
                            f"y_in_cap_t{t}_g{g}_n{i}",
                            [(_y(t, g, j, i), 1.0) for j in nbrs] + [(_w(t, q, i), -1.0)],
                            "<=", 0.0,
                        )
        return model

    covering = block_covering_constraints(h)
    if variant is ModelVariant.INDICATOR_ONESIDED:
        covering = [c for c in covering if c.kind == "miss"]
    for t in range(1, T + 1):
        for g in range(len(gates)):
            model.add_var(_z(t, g))
    for g in range(len(gates)):
        model.add_constr(
            f"gate_cover_g{g}", [(_z(t, g), 1.0) for t in range(1, T + 1)], ">=", 1.0
        )
    # each row's nonzero support, found once rather than once per (t, g)
    supports = [
        (
            cc,
            [(j, c) for j, c in enumerate(cc.x_coeffs) if c != 0.0],
            [(j, c) for j, c in enumerate(cc.y_coeffs) if c != 0.0],
        )
        for cc in covering
    ]
    for t in range(1, T + 1):
        for g, (p, q) in enumerate(gates):
            for cc, x_support, y_support in supports:
                terms = [(_w(t, p, j), c) for j, c in x_support]
                terms += [(_w(t, q, j), c) for j, c in y_support]
                terms.append((_z(t, g), cc.z_coeff))
                model.add_constr(
                    f"z_{cc.kind}_{cc.side}_t{t}_g{g}_n{cc.node}", terms, "<=", cc.rhs
                )
    return model


def build_variant(
    inst: TmpInstance,
    variant: ModelVariant = ModelVariant.INDICATOR_ONESIDED,
    *,
    steps: int,
) -> MilpModel:
    return add_gate_constraints(build_base(inst, steps=steps), inst, variant, steps=steps)


def add_hardware_symmetry(model: MilpModel, inst: TmpInstance, *, steps: int) -> MilpModel:
    """Pin token 0 near one representative per hardware-automorphism orbit.

    At the middle placement token 0 must sit on a representative node, and
    at other placements it cannot sit farther from the representative set
    than the elapsed steps allow. Never changes the optimal objective, only
    prunes mirrored solutions. No solve path adds it.
    """
    T = _placements(steps)
    h = inst.hardware
    reps = sorted(min(orbit) for orbit in automorphism_orbits(h))
    k = max(1, T // 2)
    model.add_constr(
        f"sym_anchor_t{k}", [(_w(k, 0, i), 1.0) for i in reps], "==", 1.0
    )
    dist = h.distances
    for t in range(1, T + 1):
        for j in range(h.n):
            if min(dist[i][j] for i in reps) >= 1 + abs(k - t):
                model.fix_var(_w(t, 0, j), 0.0)
    return model


def add_complete_placement_fixing(
    model: MilpModel,
    inst: TmpInstance,
    *,
    steps: int,
) -> MilpModel:
    """Fix the full middle placement to the identity when there is a gate
    between every pair of the hardware's tokens; otherwise return the model
    unchanged.

    When every token pair is a gate, relabeling tokens maps solutions to
    solutions of the same cost, so any full placement can be designated as
    the middle one without losing optimal solutions, and tokens can then be
    excluded from nodes farther away than the remaining steps.
    """
    T = _placements(steps)
    if not inst.algorithm_is_complete():
        return model
    n = inst.hardware.n
    k = max(1, T // 2)
    dist = inst.hardware.distances
    for p in range(n):
        model.fix_var(_w(k, p, p), 1.0)
    for t in range(1, T + 1):
        for p in range(n):
            for j in range(n):
                if dist[p][j] >= 1 + abs(k - t):
                    model.fix_var(_w(t, p, j), 0.0)
    return model


def build_swap_step_model(inst: TmpInstance, *, steps: int) -> MilpModel:
    """Minimize active steps with at most one swap each.

    The optimum equals the minimum swap count achievable within `steps`
    steps when one-swap-per-step solutions are allowed to idle: step
    indicators are ordered so active steps form a prefix, and no gate may
    be newly covered after an idle step.
    """
    T = _placements(steps)
    model = build_variant(inst, ModelVariant.INDICATOR_ONESIDED, steps=steps)
    h = inst.hardware
    n = h.n
    gates = list(inst.connections)
    for t in range(1, T):
        model.add_var(f"s_t{t}")
    for t in range(1, T):
        terms = [
            (_x(t, p, i, j), 1.0)
            for p in range(n)
            for i in range(n)
            for j in sorted(h.adjacency[i])
        ]
        terms.append((f"s_t{t}", -2.0))
        model.add_constr(f"swap_count_t{t}", terms, "==", 0.0)
    for t in range(1, T - 1):
        model.add_constr(
            f"steps_ordered_t{t}", [(f"s_t{t + 1}", 1.0), (f"s_t{t}", -1.0)], "<=", 0.0
        )
    for t in range(1, T):
        for g in range(len(gates)):
            model.add_constr(
                f"late_meeting_t{t}_g{g}",
                [(_z(t + 1, g), 1.0), (f"s_t{t}", -1.0)], "<=", 0.0,
            )
    model.set_objective([(f"s_t{t}", 1.0) for t in range(1, T)])
    return model


class DecodeError(ValueError):
    pass


def decode_solution(inst: TmpInstance, result: SolveResult, *, steps: int) -> SwapSolution:
    """Read placements from w values and matchings from x arcs.

    Raises DecodeError when the values do not describe placements or when
    arc moves fail to pair up into swaps.
    """
    T = _placements(steps)
    if result.values is None:
        raise DecodeError(f"no variable values to decode (status {result.status})")
    vals = result.values
    n = inst.hardware.n
    placements = []
    for t in range(1, T + 1):
        pos = []
        for p in range(n):
            nodes = [i for i in range(n) if vals[_w(t, p, i)] > 0.5]
            if len(nodes) != 1:
                raise DecodeError(f"token {p} sits on {len(nodes)} nodes at placement {t}")
            pos.append(nodes[0])
        placements.append(TokenPlacement(tuple(pos)))
    matchings = []
    for t in range(1, T):
        moves = {}
        for p in range(n):
            i = placements[t - 1].node_of(p)
            j = placements[t].node_of(p)
            key = _x(t, p, i, j)
            if key not in vals or vals[key] < 0.5:
                raise DecodeError(f"placement change of token {p} at step {t} has no arc")
            if i != j:
                moves[i] = j
        edges = set()
        for i, j in moves.items():
            if moves.get(j) != i:
                raise DecodeError(f"move {i}->{j} at step {t} is not part of a swap")
            edges.add((min(i, j), max(i, j)))
        matchings.append(tuple(sorted(edges)))
    return SwapSolution(placements[0], tuple(matchings))


@dataclass
class SolveAttempt:
    status: str  # solver status: optimal | infeasible | timeout | ...
    swaps: int | None
    solution: SwapSolution | None


# an optimal objective farther than this from an integer is a solver fault
_OBJECTIVE_TOL = 1e-6


def _integral_objective(value: float) -> int:
    r = round(value)
    if abs(value - r) > _OBJECTIVE_TOL:
        raise DecodeError(f"objective {value} is not integral within {_OBJECTIVE_TOL}")
    return int(r)


def solve_min_swaps_at(
    inst: TmpInstance,
    steps: int,
    variant: ModelVariant = ModelVariant.INDICATOR_ONESIDED,
    time_limit: float | None = None,
) -> SolveAttempt:
    """Minimum swap count over exactly `steps` swap steps, with solution.

    When there is a gate between every pair of the hardware's tokens, the
    middle placement is fixed (`add_complete_placement_fixing`), which
    keeps the optimum. status "infeasible" means no solution covers all
    gates within the horizon; swaps/solution are then None.
    """
    model = build_variant(inst, variant, steps=steps)
    add_complete_placement_fixing(model, inst, steps=steps)
    result = ScipyBackend().solve(model, time_limit=time_limit)
    if not result.is_optimal:
        return SolveAttempt(result.status, None, None)
    solution = decode_solution(inst, result, steps=steps)
    return SolveAttempt("optimal", _integral_objective(result.objective), solution)
