"""Exhaustive-search reference values on hand-checkable instances."""

import random

import pytest

from commroute.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from commroute.oracle import (
    SizeLimitError,
    oracle_min_steps,
    oracle_min_swaps,
    oracle_min_swaps_at,
)
from commroute.solutions import TmpInstance

from conftest import random_connected_graph


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

