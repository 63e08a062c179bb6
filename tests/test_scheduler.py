import random
from math import prod

import pytest

import commroute.scheduler as scheduler
from commroute.graphs import Graph, complete_graph, grid_graph, path_graph, star_graph
from commroute.milp import solve_min_swaps_at
from commroute.pipeline import generate_instance, route, solve_min_swaps
from commroute.scheduler import (
    assemble_circuit,
    compute_windows,
    load_bound,
    schedule_circuit,
    search_assignment,
)
from commroute.solutions import (
    SwapSolution,
    TmpInstance,
    TokenPlacement,
    placement_trajectory,
    validate_routed_circuit,
    validate_swap_solution,
)

from conftest import brute_min_depth, random_connected_graph
from test_acceptance import _schedule_cases_p3


def test_windows_zero_swap_case():
    inst = TmpInstance(path_graph(4), path_graph(4))
    sol = SwapSolution(TokenPlacement.identity(4), ())
    ctx = compute_windows(inst, sol)
    assert ctx.num_steps == 0
    assert ctx.slots == [(1, 1), (1, 2), (1, 3)]
    assert ctx.cand == [0b111] * 3  # no swap slot, and every extra slot of step 1
    assert ctx.budgets == [3]  # middle node degree 2 in the executable graph, plus one


def test_invalid_solution_rejected():
    inst = TmpInstance(path_graph(4), star_graph(4))
    sol = SwapSolution(TokenPlacement.identity(4), ())
    with pytest.raises(ValueError):
        compute_windows(inst, sol)


def test_zero_swap_path_needs_two_extra_layers():
    # P4's three edges as gates form a path, whose edges 2-color
    inst = TmpInstance(path_graph(4), path_graph(4))
    sol = SwapSolution(TokenPlacement.identity(4), ())
    out = schedule_circuit(inst, sol)
    assert out.extra_layers == 2
    assert out.circuit.depth == 2
    assert validate_routed_circuit(inst, out.circuit).valid


def test_gate_rides_swap_layer():
    inst = TmpInstance(path_graph(4), Graph(2, [(0, 1)]))
    sol = SwapSolution(TokenPlacement.identity(4), (((2, 3),),))
    out = schedule_circuit(inst, sol)
    assert out.extra_layers == 0
    assert out.circuit.depth == 1
    layer = out.circuit.layers[0]
    assert layer.swap_edges == ((2, 3),)
    assert layer.gate_edges == ((0, 1),)


def test_zero_gate_solution_passes_through():
    inst = TmpInstance(path_graph(3), Graph(3, []))
    sol = SwapSolution(TokenPlacement.identity(3), (((0, 1),),))
    out = schedule_circuit(inst, sol)
    assert out.method == "direct"
    assert out.circuit.depth == 1
    assert out.circuit.swaps == 1


def test_example_end_to_end(example_at_three_steps):
    inst, att = example_at_three_steps
    out = schedule_circuit(inst, att.solution)
    v = validate_routed_circuit(inst, out.circuit)
    assert v.valid, v.problems
    swap_multiset = sorted(e for layer in out.circuit.layers for e in layer.swap_edges)
    assert swap_multiset == sorted(e for m in att.solution.matchings for e in m)


@pytest.mark.parametrize("budget", [None, 0], ids=["search", "highs"])
def test_extra_layers_counted_alike_on_both_paths(monkeypatch, example_at_three_steps, budget):
    # the search and the HiGHS fallback both report the extra layers the
    # circuit holds beyond its swap layers
    inst, att = example_at_three_steps
    if budget is not None:
        monkeypatch.setattr(scheduler, "SEARCH_BUDGET", budget)
    out = schedule_circuit(inst, att.solution)
    assert out.method == ("search" if budget is None else "milp")
    assert out.extra_layers == out.circuit.depth - len(att.solution.compacted().matchings)


def _small_cases(rng):
    """12 random 4-node instances, each with a fewest-swap solution of at
    most 2 steps."""
    checked = 0
    while checked < 12:
        h = random_connected_graph(4, rng)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        gates = rng.sample(pairs, rng.randint(1, 3))
        inst = TmpInstance(h, Graph(4, gates))
        att = None
        for steps in range(3):
            att = solve_min_swaps_at(inst, steps=steps)
            if att.status == "optimal":
                break
        if att is None or att.status != "optimal":
            continue
        yield inst, att.solution
        checked += 1


def test_depth_matches_brute_force_small(rng):
    for inst, sol in _small_cases(rng):
        want = brute_min_depth(inst, sol)
        out = schedule_circuit(inst, sol)
        assert out.circuit.depth == want, (inst.hardware.edges, inst.algorithm.edges, sol)


@pytest.mark.parametrize("budget, method", [(scheduler.SEARCH_BUDGET, "search"), (0, "milp")],
                         ids=["search", "milp"])
def test_both_schedulers_match_brute_force(rng, monkeypatch, budget, method):
    # the search at its default budget, and HiGHS when the search gets none
    monkeypatch.setattr(scheduler, "SEARCH_BUDGET", budget)
    cases = list(_small_cases(rng)) + list(_schedule_cases_p3())
    for inst, sol in cases:
        out = schedule_circuit(inst, sol)
        assert out.method == method
        want = brute_min_depth(inst, sol)
        assert out.circuit.depth == want, (inst.hardware.edges, inst.algorithm.edges, sol)
        assert out.load_bound <= want - len(sol.compacted().matchings)
        v = validate_routed_circuit(inst, out.circuit)
        assert v.valid, v.problems


@pytest.mark.parametrize("inst", [
    TmpInstance(path_graph(6), star_graph(6)),
    generate_instance("grid3x3", 0.3, 5),
    # at its one-swap solution, placing the gates without the search's cap
    # on open layers needs 5 extra layers; the optimum is 4
    TmpInstance(
        Graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 3), (1, 4), (1, 5), (3, 5)]),
        Graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (3, 5)]),
    ),
], ids=["path6-star6", "grid3x3-d0.3-s5", "rand6"])
def test_search_and_highs_agree_on_extra_layers(monkeypatch, inst):
    sol = solve_min_swaps(inst).swap_solution
    searched = schedule_circuit(inst, sol)
    monkeypatch.setattr(scheduler, "SEARCH_BUDGET", 0)
    solved = schedule_circuit(inst, sol)
    assert (searched.method, solved.method) == ("search", "milp")
    assert searched.extra_layers == solved.extra_layers
    assert searched.load_bound <= searched.extra_layers
    assert searched.circuit.depth == solved.circuit.depth


def _snake_transposition(rows: int, cols: int) -> tuple[TmpInstance, SwapSolution]:
    """grid rows x cols / K_n at the n-step odd-even transposition sort along
    the snake path: every pair of tokens meets on a path edge."""
    n = rows * cols
    snake = [r * cols + (c if r % 2 == 0 else cols - 1 - c) for r in range(rows) for c in range(cols)]
    steps = tuple(
        tuple(tuple(sorted((snake[i], snake[i + 1]))) for i in range(s % 2, n - 1, 2))
        for s in range(n)
    )
    return (TmpInstance(grid_graph(rows, cols), complete_graph(n)),
            SwapSolution(TokenPlacement.identity(n), steps))


def test_search_budget_on_grid4x4_snake():
    # the load bound 15 is one short: the search spends its whole budget
    # failing to rule it out, and from 16 fills in each gate once
    inst, sol = _snake_transposition(4, 4)
    ctx = compute_windows(inst, sol)
    assert load_bound(ctx) == 15
    assert search_assignment(ctx, 15, scheduler.SEARCH_BUDGET) == (None, scheduler.SEARCH_BUDGET)
    assignment, work = search_assignment(ctx, 16, scheduler.SEARCH_BUDGET)
    assert work == len(assignment) == 120
    circuit = assemble_circuit(ctx, assignment)
    assert circuit.depth == 16 + 16
    assert validate_routed_circuit(inst, circuit).valid


def test_search_backtracks_on_grid3x3_snake():
    # the load bound 8 is one short: ruling it out takes 2,610 of the 2,646
    # placements, within the search's budget, and 9 is filled in 36
    inst, sol = _snake_transposition(3, 3)
    out = schedule_circuit(inst, sol)
    assert out.method == "search"
    assert (out.extra_layers, out.load_bound, out.work, out.circuit.depth) == (9, 8, 2646, 18)
    assert validate_routed_circuit(inst, out.circuit).valid


@pytest.mark.parametrize("sol", [
    SwapSolution(TokenPlacement.identity(5), ()),
    SwapSolution(TokenPlacement.identity(4), (((0, 1),), ((0, 1), (1, 2)))),
    SwapSolution(TokenPlacement.identity(4), ((), ((0, 2),))),
    SwapSolution(TokenPlacement.identity(4), (((2, 3),),)),
], ids=["wrong-size", "not-a-matching", "non-hardware-edge", "uncovered-gate"])
def test_compute_windows_rejects_with_the_validator_message(sol):
    inst = TmpInstance(path_graph(4), Graph(4, [(0, 1), (0, 2), (0, 3)]))
    check = validate_swap_solution(inst, sol)
    assert not check.valid
    with pytest.raises(ValueError) as err:
        compute_windows(inst, sol)
    assert str(err.value) == "swap solution invalid: " + "; ".join(check.problems)


@pytest.mark.parametrize("inst, pinned", [
    (TmpInstance(path_graph(6), star_graph(6)), (4, 4, 5, 7)),
    (generate_instance("grid3x3", 0.3, 5), (5, 5, 11, 6)),
], ids=["path6-star6", "grid3x3-d0.3-s5"])
def test_schedule_pinned_on_pipeline_witnesses(inst, pinned):
    # (extra layers, load bound, work, depth) of the schedule route() certifies
    res = route(inst)
    out = res.schedule
    assert out.method == "search"
    assert (out.extra_layers, out.load_bound, out.work, res.routed_circuit.depth) == pinned


def _random_solution(n: int, rng: random.Random) -> tuple[TmpInstance, SwapSolution]:
    """A random hardware graph, start and matchings on n nodes, with a random
    subset of the token pairs the trajectory brings together as gates."""
    h = random_connected_graph(n, rng)
    start = list(range(n))
    rng.shuffle(start)
    steps = []
    for _ in range(rng.randint(0, 3)):
        used: set[int] = set()
        m = []
        for e in rng.sample(h.edges, len(h.edges)):
            if rng.random() < 0.5 and not used & set(e):
                used.update(e)
                m.append(e)
        steps.append(tuple(m))
    sol = SwapSolution(TokenPlacement(tuple(start)), tuple(steps))
    met = set()
    for f in placement_trajectory(sol):
        for u, v in h.edges:
            met.add(tuple(sorted((f.token_at[u], f.token_at[v]))))
    gates = rng.sample(sorted(met), rng.randint(1, len(met)))
    return TmpInstance(h, Graph(n, gates)), sol


def test_backtracking_search_matches_brute_force():
    # solutions whose search backtracks (more placements than gates), on
    # 4-5 nodes, where enumerating every assignment stays small; the
    # placements each search made pin its choice and trial order
    rng = random.Random(11)
    works = []
    while len(works) < 10:
        inst, sol = _random_solution(rng.randint(4, 5), rng)
        ctx = compute_windows(inst, sol)
        if prod(cand.bit_count() for cand in ctx.cand) > 50_000:
            continue
        out = schedule_circuit(inst, sol)
        if out.work <= len(ctx.cand):
            continue
        assert out.method == "search"
        assert out.circuit.depth == brute_min_depth(inst, sol), (inst, sol)
        works.append(out.work)
    assert works == [17, 10, 3, 9, 3, 11, 10, 8, 11, 25]
