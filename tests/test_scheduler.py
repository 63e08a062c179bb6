import random

import pytest

import commroute.scheduler as scheduler
from commroute.graphs import Graph, path_graph, star_graph
from commroute.milp import solve_min_swaps_at
from commroute.pipeline import generate_instance, solve_min_swaps
from commroute.scheduler import (
    compute_windows,
    schedule_circuit,
)
from commroute.solutions import (
    SwapSolution,
    TmpInstance,
    TokenPlacement,
    validate_routed_circuit,
)

from conftest import brute_min_depth, random_connected_graph
from test_acceptance import _schedule_cases_p3


def test_windows_zero_swap_case():
    inst = TmpInstance(path_graph(4), path_graph(4))
    sol = SwapSolution(TokenPlacement.identity(4), ())
    ctx = compute_windows(inst, sol)
    assert ctx.num_steps == 0
    assert all(w.empty_layer_steps == (1,) for w in ctx.windows.values())
    assert all(w.swap_layer_steps == () for w in ctx.windows.values())
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
