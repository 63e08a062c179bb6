"""Exhaustive-search reference values on hand-checkable instances."""

import random

import pytest

from commroute.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from commroute.oracle import (
    InfeasibleInstanceError,
    SizeLimitError,
    oracle_min_steps,
    oracle_min_swaps,
    oracle_min_swaps_at,
)
from commroute.solutions import TmpInstance

from conftest import brute_swaps_within, random_connected_graph, random_tree


def test_zero_when_algorithm_embeds():
    inst = TmpInstance(path_graph(4), path_graph(4))
    assert oracle_min_steps(inst) == 0
    assert oracle_min_swaps(inst) == 0


def test_p3_complete():
    # two path edges hold at start, one swap meets the remaining pair
    inst = TmpInstance(path_graph(3), complete_graph(3))
    assert oracle_min_steps(inst) == 1
    assert oracle_min_swaps(inst) == 1
    assert oracle_min_swaps_at(inst, 0) is None
    assert oracle_min_swaps_at(inst, 1) == 1


def test_p4_complete():
    inst = TmpInstance(path_graph(4), complete_graph(4))
    assert oracle_min_steps(inst) == 2
    assert oracle_min_swaps_at(inst, 1) is None


def test_star_hardware_complete():
    inst = TmpInstance(star_graph(4), complete_graph(4))
    assert oracle_min_steps(inst) == 2


def test_example_instance_values():
    inst = TmpInstance(path_graph(6), star_graph(6))
    assert oracle_min_steps(inst) == 2
    assert oracle_min_swaps_at(inst, 2) == 4
    assert oracle_min_swaps_at(inst, 3) == 3
    assert oracle_min_swaps(inst) == 3


def test_min_swaps_at_is_monotone():
    rng = random.Random(5)
    for _ in range(10):
        inst = TmpInstance(random_connected_graph(4, rng), random_connected_graph(4, rng))
        mt = oracle_min_steps(inst)
        values = [oracle_min_swaps_at(inst, t) for t in range(mt, mt + 3)]
        assert all(v is not None for v in values)
        assert values[0] >= values[1] >= values[2]
        assert oracle_min_swaps(inst) == min(values[2], oracle_min_swaps(inst))


def test_min_swaps_needs_no_horizon():
    rng = random.Random(9)
    for _ in range(8):
        inst = TmpInstance(random_connected_graph(4, rng), random_connected_graph(4, rng))
        ms = oracle_min_swaps(inst)
        mt = oracle_min_steps(inst)
        assert mt <= ms
        # at a generous horizon the constrained value meets the free one
        assert oracle_min_swaps_at(inst, ms) == ms


def test_node_limit_enforced():
    inst = TmpInstance(path_graph(8), complete_graph(8))
    with pytest.raises(SizeLimitError):
        oracle_min_steps(inst)
    # raising the limit admits the instance
    assert oracle_min_steps(TmpInstance(path_graph(5), path_graph(5)), node_limit=5) == 0


def test_negative_steps_rejected():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    with pytest.raises(ValueError):
        oracle_min_swaps_at(inst, -1)


def test_no_connections_is_free():
    inst = TmpInstance(path_graph(4), Graph(4, []))
    assert oracle_min_steps(inst) == 0
    assert oracle_min_swaps(inst) == 0
    assert oracle_min_swaps_at(inst, 0) == 0


def _dense_gates(k: int, rng) -> Graph:
    pairs = [(p, q) for p in range(k) for q in range(p + 1, k)]
    return Graph(k, rng.sample(pairs, rng.randint(len(pairs) // 2, len(pairs))))


def _two_trees(a: int, b: int, rng) -> Graph:
    left, right = random_tree(a, rng), random_tree(b, rng)
    return Graph(a + b, list(left.edges) + [(u + a, v + a) for u, v in right.edges])


def test_relative_frame_matches_brute_force():
    # the search runs from the identity placement only, the brute force from
    # every start, so a flaw in the relative-frame argument shows up here;
    # dummy tokens and hardware in several components are where it would
    rng = random.Random(2024)
    cases = [TmpInstance(random_tree(n, rng), _dense_gates(n, rng)) for n in (4, 4, 4, 5, 5, 5, 5, 5)]
    cases += [TmpInstance(random_tree(5, rng), _dense_gates(k, rng)) for k in (3, 3, 4, 4, 4)]
    cases += [TmpInstance(_two_trees(a, b, rng), _dense_gates(k, rng))
              for a, b, k in ((3, 2, 3), (4, 1, 4), (3, 2, 4), (2, 3, 3), (2, 2, 3), (3, 2, 5))]
    cases += [
        TmpInstance(path_graph(5), complete_graph(5)),
        TmpInstance(path_graph(5), complete_graph(4)),
        TmpInstance(Graph(5, [(0, 1), (1, 2), (2, 3)]), complete_graph(4)),
        TmpInstance(path_graph(6), star_graph(6)),  # 4 swaps at 2 steps, 3 at 3
        TmpInstance(path_graph(6), star_graph(5)),
    ]
    horizon = 4
    seen = set()
    for inst in cases:
        want = brute_swaps_within(inst, horizon)
        got = [oracle_min_swaps_at(inst, t) for t in range(horizon + 1)]
        assert got == want, (inst.hardware.edges, inst.algorithm.edges)
        if want[-1] is None:
            seen.add("infeasible")
            with pytest.raises(InfeasibleInstanceError):
                oracle_min_steps(inst)
        else:
            mt = next(t for t, v in enumerate(want) if v is not None)
            seen.add(f"mt={mt}")
            assert oracle_min_steps(inst) == mt
    assert seen == {"infeasible", "mt=0", "mt=1", "mt=2", "mt=3"}
