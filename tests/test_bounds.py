"""Degree-based bound checks, frozen against hand computation."""

import random

import pytest

from commroute.bounds import (
    InfeasibleInstanceError,
    bound_report,
    max_gain_per_step,
    max_gain_per_swap,
    step_lower_bound,
    swap_lower_bound,
    swap_upper_bound,
)
from commroute.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from commroute.oracle import oracle_min_steps, oracle_min_swaps
from commroute.solutions import TmpInstance

from conftest import random_connected_graph


@pytest.mark.parametrize("g,expected", [
    (path_graph(3), 1),
    (path_graph(4), 2),
    (cycle_graph(4), 2),
    (star_graph(6), 4),
    (complete_graph(4), 0),  # all pairs already adjacent, a swap gains nothing
    (grid_graph(3, 3), 5),
])
def test_max_gain_per_swap_frozen(g, expected):
    assert max_gain_per_swap(g) == expected


def test_max_gain_per_swap_matches_set_formula():
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_graph(6, rng)
        want = 0
        for u, v in g.edges:
            nu, nv = set(g.neighbors(u)), set(g.neighbors(v))
            want = max(want, len(nu | nv) - len(nu & nv) - 2)
        assert max_gain_per_swap(g) == want


@pytest.mark.parametrize("g,expected", [
    (path_graph(4), 2),
    (path_graph(6), 3),
    (star_graph(6), 4),
    (complete_graph(4), 4),  # K=1: min(3+3-2, 6-1) = 4
])
def test_max_gain_per_step_frozen(g, expected):
    assert max_gain_per_step(g) == expected


def test_deficit_bounds_p4_complete():
    # 6 connections, 3 hardware edges, per-swap gain 2, per-step gain 2
    inst = TmpInstance(path_graph(4), complete_graph(4))
    assert swap_lower_bound(inst) == 2
    assert step_lower_bound(inst) == 2


def test_bounds_zero_when_no_deficit():
    inst = TmpInstance(path_graph(6), star_graph(6))
    assert swap_lower_bound(inst) == 0
    assert step_lower_bound(inst) == 0


def test_infeasible_instance_detected():
    # disconnected hardware where no swap ever gains a connection
    h = Graph(4, [(0, 1), (2, 3)])
    inst = TmpInstance(h, complete_graph(4))
    with pytest.raises(InfeasibleInstanceError):
        swap_lower_bound(inst)


def test_swap_upper_bound():
    inst = TmpInstance(path_graph(6), star_graph(6))
    assert swap_upper_bound(inst, 2) == 6
    assert swap_upper_bound(inst, 0) == 0


def test_bound_report_fields():
    inst = TmpInstance(path_graph(4), complete_graph(4))
    rep = bound_report(inst, min_steps=2)
    assert rep.swap_lower == 2
    assert rep.step_lower == 2
    assert rep.swap_upper == 4
    assert rep.to_dict()["max_gain_per_swap"] == 2


def test_report_without_steps_leaves_upper_unset():
    rep = bound_report(TmpInstance(path_graph(3), complete_graph(3)))
    assert rep.swap_upper is None


def test_lower_bounds_never_exceed_oracle():
    rng = random.Random(23)
    for _ in range(15):
        h = random_connected_graph(4, rng)
        a = random_connected_graph(4, rng)
        inst = TmpInstance(h, a)
        assert step_lower_bound(inst) <= oracle_min_steps(inst)
        assert swap_lower_bound(inst) <= oracle_min_swaps(inst)
