import random
from itertools import combinations, permutations

import pytest

from commroute.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from commroute.solutions import (
    CircuitLayer,
    RoutedCircuit,
    SwapSolution,
    TmpInstance,
    TokenPlacement,
    covered_connections,
    embed_within,
    is_subgraph_placement,
    placement_trajectory,
    validate_routed_circuit,
    validate_swap_solution,
)


def test_instance_pads_tokens_with_dummies():
    inst = TmpInstance(path_graph(4), Graph(2, [(0, 1)]))
    assert inst.num_nodes == 4
    assert inst.connections == ((0, 1),)


def test_instance_rejects_oversized_algorithm():
    with pytest.raises(ValueError):
        TmpInstance(path_graph(3), complete_graph(4))


def test_algorithm_is_complete():
    assert TmpInstance(path_graph(4), complete_graph(4)).algorithm_is_complete()
    assert not TmpInstance(path_graph(4), complete_graph(3)).algorithm_is_complete()
    assert not TmpInstance(path_graph(4), path_graph(4)).algorithm_is_complete()


def test_placement_is_bijection():
    with pytest.raises(ValueError):
        TokenPlacement((0, 0, 1))
    p = TokenPlacement((2, 0, 1))
    assert p.node_of(0) == 2
    assert p.token_at == (1, 2, 0)


def test_apply_matching_swaps_tokens():
    p = TokenPlacement.identity(4)
    q = p.apply_matching(((1, 2),))
    assert q.pos == (0, 2, 1, 3)
    # swapping twice restores
    assert q.apply_matching(((1, 2),)) == p


def test_apply_matching_rejects_overlap():
    p = TokenPlacement.identity(4)
    with pytest.raises(ValueError):
        p.apply_matching(((0, 1), (1, 2)))


def test_trajectory_and_coverage():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    sol = SwapSolution(TokenPlacement.identity(3), (((0, 1),),))
    traj = placement_trajectory(sol)
    assert len(traj) == 2
    covered = covered_connections(inst, traj)
    assert covered == {(0, 1), (0, 2), (1, 2)}


def test_validate_swap_solution_accepts_hand_case():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    sol = SwapSolution(TokenPlacement.identity(3), (((0, 1),),))
    v = validate_swap_solution(inst, sol)
    assert v.valid
    assert v.steps == 1 and v.swaps == 1
    assert v.uncovered == []


def test_validate_swap_solution_flags_uncovered():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    sol = SwapSolution(TokenPlacement.identity(3), ())
    v = validate_swap_solution(inst, sol)
    assert not v.valid
    assert v.uncovered == [(0, 2)]


def test_validate_swap_solution_rejects_non_hardware_edge():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    sol = SwapSolution(TokenPlacement.identity(3), (((0, 2),),))
    v = validate_swap_solution(inst, sol)
    assert not v.valid
    assert any("hardware" in p for p in v.problems)


def test_swap_solution_round_trip():
    sol = SwapSolution(TokenPlacement((1, 0, 2)), (((0, 1),), ((1, 2),)))
    assert SwapSolution.from_dict(sol.to_dict()) == sol


def test_routed_circuit_validates():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    circuit = RoutedCircuit(
        TokenPlacement.identity(3),
        (
            CircuitLayer(gate_edges=((0, 1), (1, 2))),  # invalid: overlap on node 1
        ),
    )
    v = validate_routed_circuit(inst, circuit)
    assert not v.valid


def test_routed_circuit_happy_path():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    circuit = RoutedCircuit(
        TokenPlacement.identity(3),
        (
            CircuitLayer(gate_edges=((0, 1),)),
            CircuitLayer(gate_edges=((1, 2),)),
            CircuitLayer(swap_edges=((0, 1),)),
            CircuitLayer(gate_edges=((1, 2),)),  # now holds tokens 0 and 2
        ),
    )
    v = validate_routed_circuit(inst, circuit)
    assert v.valid, v.problems
    assert v.depth == 4 and v.swaps == 1


def test_routed_circuit_rejects_double_execution():
    inst = TmpInstance(path_graph(3), Graph(2, [(0, 1)]))
    circuit = RoutedCircuit(
        TokenPlacement.identity(3),
        (CircuitLayer(gate_edges=((0, 1),)), CircuitLayer(gate_edges=((0, 1),))),
    )
    v = validate_routed_circuit(inst, circuit)
    assert not v.valid
    assert any("twice" in p for p in v.problems)


def test_routed_circuit_round_trip():
    c = RoutedCircuit(
        TokenPlacement.identity(3),
        (CircuitLayer(swap_edges=((0, 1),)), CircuitLayer(gate_edges=((1, 2),))),
    )
    assert RoutedCircuit.from_dict(c.to_dict()) == c


def test_is_subgraph_placement_found():
    inst = TmpInstance(path_graph(4), Graph(3, [(0, 1), (1, 2)]))
    f = is_subgraph_placement(inst)
    assert f is not None
    for p, q in inst.connections:
        assert inst.hardware.has_edge(f.node_of(p), f.node_of(q))


def test_is_subgraph_placement_star_into_path():
    # K_{1,3} does not embed into P4 (max degree 2)
    inst = TmpInstance(path_graph(4), star_graph(4))
    assert is_subgraph_placement(inst) is None


def test_is_subgraph_placement_cycle():
    inst = TmpInstance(cycle_graph(5), cycle_graph(5))
    assert is_subgraph_placement(inst) is not None


def _random_graph(n: int, rng: random.Random) -> Graph:
    density = rng.random()
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])


def test_embedding_matches_brute_force():
    # every injective map, tried one by one, against the backtracking search
    rng = random.Random(7)
    seen = set()
    for _ in range(600):
        h = _random_graph(rng.randint(1, 6), rng)
        a = _random_graph(rng.randint(0, min(5, h.n)), rng)
        want = any(all(h.has_edge(f[u], f[v]) for u, v in a.edges)
                   for f in permutations(range(h.n), a.n))
        image, _ = embed_within(a, h)
        if image is not None:
            assert len(set(image)) == a.n and all(0 <= x < h.n for x in image)
            assert all(h.has_edge(image[u], image[v]) for u, v in a.edges)
        assert (image is not None) == want, (a.edges, h.edges)
        placement = is_subgraph_placement(TmpInstance(h, a))
        assert (placement is not None) == want
        if want:
            dummies = placement.pos[a.n:]
            assert list(dummies) == sorted(dummies)
        features = {"isolated gate vertex": any(a.degree(p) == 0 for p in range(a.n)),
                    "fewer gate vertices": a.n < h.n,
                    "disconnected hardware": not h.is_connected()}
        seen.update((name, want) for name, on in features.items() if on)
    assert len(seen) == 6, seen


def test_pruned_embedding_is_exact_at_every_limit():
    # the counting reject and the free-neighbour lookahead drop only
    # assignments that extend to no embedding: at every step limit an image
    # is an embedding, and a None within the limit means that none exists
    rng = random.Random(23)
    seen = set()
    for _ in range(400):
        n = rng.randint(4, 7)
        density = rng.choice((0.3, 0.5, 0.7))
        h = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        a = _random_graph(rng.randint(2, n), rng)
        want = any(all(h.has_edge(f[u], f[v]) for u, v in a.edges)
                   for f in permutations(range(n), a.n))
        _, used = embed_within(a, h)
        for limit in range(used + 1):
            image, steps = embed_within(a, h, limit)
            assert steps <= limit + 1
            if image is not None:
                assert len(set(image)) == a.n
                assert all(h.has_edge(image[u], image[v]) for u, v in a.edges)
            elif steps <= limit:
                assert not want, (a.edges, h.edges, limit)
        seen.add((want, used == 0))
    assert seen == {(True, False), (False, False), (False, True)}, seen


def test_counting_reject_needs_no_step():
    # the host has more edges than the gate graph but too few nodes of high
    # degree: two gate vertices of degree 3, one such node
    gates = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    host = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)])
    assert gates.num_edges < host.num_edges
    assert embed_within(gates, host) == (None, 0)
    # one fewer gate of degree 3, and the search has to place vertices
    image, steps = embed_within(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), host)
    assert image is not None and steps > 0


def test_instance_round_trip():
    inst = TmpInstance(path_graph(4), star_graph(3))
    assert TmpInstance.from_dict(inst.to_dict()) == inst
