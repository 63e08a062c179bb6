"""Exhaustive-search reference values on hand-checkable instances."""

import random

import pytest

from commroute._search_py import Outcome
from commroute.graphs import (
    Graph,
    all_matchings,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from commroute.oracle import (
    InfeasibleInstanceError,
    RelativeFrameSearch,
    SizeLimitError,
    oracle_min_steps,
    oracle_min_swaps,
    oracle_min_swaps_at,
)
from commroute.pipeline import SEARCH_BUDGET, generate_instance
from commroute.solutions import TmpInstance, embed_within, validate_swap_solution

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


def test_path7_complete():
    # criterion 03's closed forms at n = 7: mt = n - 2 and ms = C(n - 1, 2)
    inst = TmpInstance(path_graph(7), complete_graph(7))
    assert oracle_min_steps(inst) == 5
    assert oracle_min_swaps_at(inst, 5) == 15
    assert oracle_min_swaps(inst) == 15


def test_node_frame_search_work():
    # work counts repeat exactly, where a timing would only drift: a search
    # that keys its states by label placement again spends 40,350 units
    # here, one that expands stale A* entries 8,586, one whose cheaper
    # search branches on every matching instead of on single swaps 7,506,
    # and each fails this
    search = RelativeFrameSearch(TmpInstance(path_graph(6), complete_graph(6)))
    steps, at_mt, cheaper = search.settle()
    assert (steps.value, at_mt.value, cheaper.value) == (4, 10, -1)
    assert search.work <= 5_000


def test_path7_settles_within_the_pipeline_budget():
    # the single-swap cheaper search proves ms = 15 in 76,400 units in all;
    # branching on every matching it ran out at 99,996
    search = RelativeFrameSearch(TmpInstance(path_graph(7), complete_graph(7)), SEARCH_BUDGET)
    steps, at_mt, cheaper = search.settle()
    assert all(out.exact for out in (steps, at_mt, cheaper))
    assert (steps.value, at_mt.value, cheaper.value) == (5, 15, -1)


def test_grid_baseline_search_work():
    # the embedding test that places gate vertices in connected order spends
    # 1,835 units here; the degree-ordered one spent 2,427 and fails this
    search = RelativeFrameSearch(generate_instance("grid3x3", 0.3, 5))
    steps, at_mt, cheaper = search.settle()
    assert (steps.value, at_mt.value, cheaper) == (1, 2, None)
    assert search.work <= 2_000


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
    # the search runs once, the brute force from every start, so a flaw in
    # the relative-frame or the node-frame argument shows up here; dummy
    # tokens and hardware in several components are where it would
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
        # a solution with s <= horizon swaps serializes into s steps, so a
        # brute-force minimum within the horizon is the overall one
        if want[-1] is not None and want[-1] <= horizon:
            seen.add("ms checked")
            assert oracle_min_swaps(inst) == want[-1], (inst.hardware.edges, inst.algorithm.edges)
        if want[-1] is None:
            seen.add("infeasible")
            with pytest.raises(InfeasibleInstanceError):
                oracle_min_steps(inst)
        else:
            mt = next(t for t, v in enumerate(want) if v is not None)
            seen.add(f"mt={mt}")
            assert oracle_min_steps(inst) == mt
        # every exact answer's goal state rebuilds into a solution that attains it
        search = RelativeFrameSearch(inst)
        outcomes = [(search.min_steps(), None)]
        outcomes += [(search.min_swaps_within(t), t) for t in range(horizon + 1)]
        for out, steps in outcomes:
            assert out.exact
            if out.value < 0:
                assert out.path == ()
                continue
            check = validate_swap_solution(inst, search.witness(out))
            assert check.valid, (inst.hardware.edges, inst.algorithm.edges, out)
            assert check.steps <= (out.value if steps is None else steps)
            if steps is not None:
                assert check.swaps == out.value
    assert seen == {"infeasible", "mt=0", "mt=1", "mt=2", "mt=3", "ms checked"}


def _budgeted(inst, extra):
    """A search whose budget leaves `extra` work after the matching enumeration."""
    return RelativeFrameSearch(inst, len(all_matchings(inst.hardware, include_empty=False)) + extra)


def test_budgeted_answers_are_lower_bounds():
    # a search that runs out must return a bound no greater than the optimum;
    # this is where an inadmissible A* heuristic shows, since its f overshoots
    rng = random.Random(31)
    cases = [
        TmpInstance(star_graph(5), complete_graph(5)),
        TmpInstance(star_graph(6), complete_graph(6)),
        TmpInstance(path_graph(5), complete_graph(5)),
        TmpInstance(path_graph(6), star_graph(6)),
    ]
    cases += [TmpInstance(random_tree(5, rng), _dense_gates(5, rng)) for _ in range(4)]
    for inst in cases:
        full = RelativeFrameSearch(inst)
        mt = full.min_steps()
        assert mt.exact and mt.value == oracle_min_steps(inst)
        for extra in range(mt.work + 1):
            out = _budgeted(inst, extra).min_steps()
            assert out.work <= extra
            assert out == mt if out.exact else out.value <= mt.value
        for t in (mt.value, mt.value + 1):
            want = full.min_swaps_within(t)
            assert want.value == oracle_min_swaps_at(inst, t)
            for extra in range(0, want.work + 1, max(1, want.work // 40)):
                out = _budgeted(inst, extra).min_swaps_within(t)
                assert out.work <= extra
                if out.exact:
                    assert out.value == want.value
                else:
                    assert out.value <= want.value, (inst.hardware.edges, t, extra)


def test_budget_bounds_the_matching_enumeration():
    # grid4x4 has 10,012 matchings; a budget below that stops the enumeration
    inst = TmpInstance(grid_graph(4, 4), complete_graph(16))
    search = RelativeFrameSearch(inst, 500)
    assert search.work == 501
    assert search.min_steps() == Outcome(0, False, 0)
    assert search.min_swaps_within(3) == Outcome(0, False, 0)


def test_budget_bounds_the_embedding_tests():
    # 36 gates on grid4x4: after one expansion the embedding tests, not the
    # 2 x 10,012 matchings and successors, are what uses up the budget
    inst = generate_instance(grid_graph(4, 4), 0.3, 1)
    search = RelativeFrameSearch(inst, 25_000)
    out = search.min_steps()
    assert not out.exact and out.value >= 1
    assert 2 * 10_012 < search.work <= 25_000


def test_embedding_gives_up_one_step_past_its_limit():
    assert embed_within(complete_graph(4), complete_graph(4))[0] is not None
    # a 4-node path does not fit in a triangle plus an isolated node
    triangle = Graph(4, [(0, 1), (1, 2), (0, 2)])
    image, steps = embed_within(path_graph(4), triangle)
    assert image is None and steps > 2  # decided: no
    assert embed_within(path_graph(4), triangle, 2) == (None, 3)  # undecided


def test_cheaper_swaps_decides_the_overall_optimum():
    inst = TmpInstance(path_graph(6), star_graph(6))  # ms_at_mt = 4 at 2 steps, ms = 3
    search = RelativeFrameSearch(inst)
    assert search.cheaper_swaps(4).value == 3
    assert search.cheaper_swaps(3).value == -1


def test_cheaper_witness_swaps_one_edge_per_step():
    # (instance, a swap count to undercut, the fewest swaps): the worked
    # example's ms_at_mt and ms, and path / complete with ms = C(n - 1, 2)
    cases = [(TmpInstance(path_graph(6), star_graph(6)), 4, 3)]
    cases += [(TmpInstance(path_graph(n), complete_graph(n)), n * n, (n - 1) * (n - 2) // 2)
              for n in (3, 4, 5)]
    for inst, ms_at_mt, ms in cases:
        search = RelativeFrameSearch(inst)
        out = search.cheaper_swaps(ms_at_mt)
        assert out.exact and out.value == ms
        solution = search.witness(out)
        assert all(len(m) == 1 for m in solution.matchings)
        assert len(solution.matchings) == out.value <= ms_at_mt - 1
        check = validate_swap_solution(inst, solution)
        assert check.valid and check.swaps == out.value
