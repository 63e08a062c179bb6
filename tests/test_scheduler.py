import random

import pytest

from commroute.graphs import Graph, path_graph, star_graph
from commroute.milp import solve_min_swaps_at
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


def test_depth_matches_brute_force_small(rng):
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
        want = brute_min_depth(inst, att.solution)
        out = schedule_circuit(inst, att.solution)
        assert out.circuit.depth == want, (h.edges, gates, att.solution)
        checked += 1

