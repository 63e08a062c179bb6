"""Exhaustive-search reference values on hand-checkable instances."""

import gc
import random
import weakref

import pytest

import commroute.oracle as oracle_module
from commroute._search_py import Outcome
from commroute.graphs import (
    Graph,
    all_matchings,
    complete_graph,
    cycle_graph,
    grid_graph,
    iter_matchings,
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


def test_searches_share_one_goal_test_memo(monkeypatch):
    # breadth-first search, A* at mt and the cheaper search ask one goal
    # test, so no mask reaches the embedding search twice; with a memo per
    # search, A* re-tested what breadth-first had decided and the worked
    # example took 1,076 units
    embed = oracle_module.embed_masks
    tested = []

    def spy(order, adj, limit):
        tested.append(tuple(adj))
        return embed(order, adj, limit)

    monkeypatch.setattr(oracle_module, "embed_masks", spy)
    search = RelativeFrameSearch(TmpInstance(path_graph(6), star_graph(6)))
    steps, at_mt, cheaper = search.settle()
    assert (steps.value, at_mt.value, cheaper.value) == (2, 4, 3)
    assert tested and len(set(tested)) == len(tested)
    assert search.work == 734


def test_path7_settles_within_the_pipeline_budget():
    # the single-swap cheaper search proves ms = 15 in 76,372 units in all;
    # branching on every matching it ran out at 99,996
    search = RelativeFrameSearch(TmpInstance(path_graph(7), complete_graph(7)), SEARCH_BUDGET)
    steps, at_mt, cheaper = search.settle()
    assert all(out.exact for out in (steps, at_mt, cheaper))
    assert (steps.value, at_mt.value, cheaper.value) == (5, 15, -1)


def test_grid_baseline_search_work():
    # the embedding test with the counting reject and the free-neighbour
    # lookahead spends 911 units here (breadth-first 214, A* at mt 567);
    # without them it spent 1,715, four failing tests of 258 steps each, and
    # the degree-ordered one spends 2,267
    search = RelativeFrameSearch(generate_instance("grid3x3", 0.3, 5))
    steps, at_mt, cheaper = search.settle()
    assert (steps.value, at_mt.value, cheaper) == (1, 2, None)
    assert (steps.work, at_mt.work) == (214, 567)
    assert search.work == 911


@pytest.mark.parametrize("inst", [
    generate_instance("grid3x3", 0.3, 5),
    TmpInstance(path_graph(6), star_graph(6)),
], ids=["grid-baseline", "worked-example"])
def test_witness_reads_the_goal_tests_embedding(monkeypatch, inst):
    # the goal test keeps the image it found, so rebuilding a witness runs
    # no embedding search, neither the goal test's nor a placement check
    search = RelativeFrameSearch(inst)
    steps, at_mt, cheaper = search.settle()
    tested = []

    def spy(*args):
        tested.append(args)
        raise AssertionError("the witness ran an embedding search")

    monkeypatch.setattr(oracle_module, "embed_masks", spy)
    monkeypatch.setattr(oracle_module, "is_subgraph_placement", spy)
    for out, max_steps in ((at_mt, steps.value), (cheaper, at_mt.value - 1)):
        if out is None:
            continue
        check = validate_swap_solution(inst, search.witness(out))
        assert check.valid and check.swaps == out.value and check.steps <= max_steps
    assert tested == []


def test_witness_of_a_path_the_goal_test_never_passed_is_none():
    # a goal mask the goal test failed, or has not tested yet, holds no image
    inst = TmpInstance(path_graph(6), star_graph(6))
    out = RelativeFrameSearch(inst).min_swaps_within(2)
    assert out.value == 4
    search = RelativeFrameSearch(inst)
    assert search.witness(out) is None  # not tested yet
    assert search.min_steps().value == 2
    assert search.witness(out._replace(path=())) is None  # the hardware edges fail
    assert search.min_swaps_within(2).path == out.path
    assert validate_swap_solution(inst, search.witness(out)).valid


def _relabel(inst, rng):
    """An isomorphic copy: hardware nodes and gate qubits permuted apart."""
    nodes = rng.sample(range(inst.hardware.n), inst.hardware.n)
    qubits = rng.sample(range(inst.algorithm.n), inst.algorithm.n)
    return TmpInstance(Graph(inst.hardware.n, [(nodes[u], nodes[v]) for u, v in inst.hardware.edges]),
                       Graph(inst.algorithm.n, [(qubits[p], qubits[q]) for p, q in inst.algorithm.edges]))


@pytest.mark.parametrize("inst", [
    generate_instance("grid3x3", 0.3, 5),
    generate_instance("grid3x3", 0.5, 2),
    TmpInstance(path_graph(6), star_graph(6)),
], ids=["grid-baseline", "grid3x3-d0.5-s2", "worked-example"])
def test_relabelling_keeps_every_answer(inst):
    # the pair bits, the delta swaps and the embedding test's pruning depend
    # on the numbering only through bit order, and the answers not at all;
    # the work does, so under the pipeline's budget the cheaper search of a
    # relabelling may run out, and its value is then a lower bound
    steps, at_mt, cheaper = RelativeFrameSearch(inst, SEARCH_BUDGET).settle()
    assert steps.exact and at_mt.exact and (cheaper is None or cheaper.exact)
    rng = random.Random(6)
    for _ in range(8):
        got = RelativeFrameSearch(_relabel(inst, rng), SEARCH_BUDGET).settle()
        assert got[0].exact and got[1].exact
        assert (got[0].value, got[1].value) == (steps.value, at_mt.value)
        if cheaper is None:
            assert got[2] is None
        elif got[2].exact:
            assert got[2].value == cheaper.value
        else:
            assert got[2].value <= cheaper.value


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
        # one search answers every horizon through one goal-test memo, and
        # each A* goal state rebuilds into a solution that attains its answer
        search = RelativeFrameSearch(inst)
        for t in range(horizon + 1):
            out = search.min_swaps_within(t)
            assert out.exact and out.value == (-1 if want[t] is None else want[t])
            if out.value < 0:
                assert out.path == ()
                continue
            check = validate_swap_solution(inst, search.witness(out))
            assert check.valid, (inst.hardware.edges, inst.algorithm.edges, out)
            assert check.steps <= t and check.swaps == out.value
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
            # a search of its own, so its work is what a budgeted one needs:
            # `full` remembers the goal tests of its earlier searches
            want = RelativeFrameSearch(inst).min_swaps_within(t)
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
    # a 4-node path does not fit in a triangle plus a disjoint edge, though
    # the host has enough nodes of each degree for the counting reject
    host = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    image, steps = embed_within(path_graph(4), host)
    assert image is None and steps > 2  # decided: no
    assert embed_within(path_graph(4), host, 2) == (None, 3)  # undecided


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


def _cold(inst):
    """Drop the tables cached for the instance's hardware (or an equal graph)."""
    oracle_module._hardware_tables.pop(inst.hardware, None)


def _copy(g):
    return Graph(g.n, g.edges)


def _cache_cases():
    rng = random.Random(16)
    cases = [
        TmpInstance(path_graph(6), star_graph(6)),
        TmpInstance(path_graph(6), complete_graph(6)),
        generate_instance("grid3x3", 0.3, 5),
    ]
    cases += [TmpInstance(random_tree(5, rng), _dense_gates(5, rng)) for _ in range(3)]
    return cases


def test_cached_tables_keep_every_answer_and_work_count():
    # a search that builds the tables, one that finds them, and one on equal
    # but distinct graphs settle alike, to the unit of work and the path
    for inst in _cache_cases():
        _cold(inst)
        fresh = RelativeFrameSearch(inst)
        assert inst.hardware in oracle_module._hardware_tables
        want = fresh.settle()
        hit = RelativeFrameSearch(inst)
        equal = RelativeFrameSearch(TmpInstance(_copy(inst.hardware), _copy(inst.algorithm)))
        for search in (hit, equal):
            assert search.settle() == want
            assert search.work == fresh.work


def test_cached_tables_charge_a_budget_as_building_them_does():
    # a budget below the matching count refuses with the same work whether
    # the tables are cached or not, and a refused enumeration keeps nothing
    for inst in _cache_cases():
        count = len(all_matchings(inst.hardware, include_empty=False))
        for budget in (0, count // 2, count - 1):
            _cold(inst)
            miss = RelativeFrameSearch(inst, budget)
            assert inst.hardware not in oracle_module._hardware_tables
            assert miss.work == budget + 1
            assert miss.min_steps() == Outcome(0, False, 0)
            full = RelativeFrameSearch(inst)
            assert full.min_steps().exact
            hit = RelativeFrameSearch(inst, budget)
            assert hit.work == miss.work
            assert hit.min_steps() == Outcome(0, False, 0)
        # a budget the enumeration fits in is charged the full count either way
        _cold(inst)
        assert RelativeFrameSearch(inst, count).work == count
        assert RelativeFrameSearch(inst, count).work == count


def test_cached_tables_go_with_their_graphs():
    hw = Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (0, 4)])
    gates = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (3, 4)])
    inst = TmpInstance(hw, gates)
    search = RelativeFrameSearch(inst)
    assert search.settle()[0].exact
    assert hw in oracle_module._hardware_tables
    hw_ref = weakref.ref(hw)
    del hw, inst, search
    gc.collect()
    # the cache did not keep the graph alive, and nothing equal to it is cached
    assert hw_ref() is None
    assert Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (0, 4)]) not in oracle_module._hardware_tables


def test_oracle_calls_on_one_hardware_enumerate_its_matchings_once(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return iter_matchings(g)

    monkeypatch.setattr(oracle_module, "iter_matchings", counting)
    inst = TmpInstance(path_graph(6), star_graph(6))
    _cold(inst)
    mt = oracle_min_steps(inst)
    assert oracle_min_swaps_at(inst, mt) == 4
    assert oracle_min_swaps(inst) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("inst", [
    TmpInstance(path_graph(4), path_graph(4)),
    TmpInstance(path_graph(6), path_graph(3)),  # fewer qubits than nodes
    TmpInstance(cycle_graph(5), Graph(4, [(0, 1), (1, 2), (2, 3)])),
    TmpInstance(grid_graph(2, 3), cycle_graph(4)),
    TmpInstance(path_graph(4), Graph(4, [])),  # no gates
    TmpInstance(path_graph(4), Graph(2, [])),
], ids=["path4", "path3-on-path6", "path4-on-cycle5", "cycle4-on-grid2x3", "no-gates",
        "no-gates-two-qubits"])
def test_direct_embedding_is_the_first_goal_test(monkeypatch, inst):
    # the oracle has no embedding pre-check of its own: the search's first
    # goal test, on the hardware edges, answers 0
    def refuse(inst):
        raise AssertionError("the oracle ran a separate embedding check")

    monkeypatch.setattr(oracle_module, "is_subgraph_placement", refuse)
    assert oracle_min_steps(inst) == 0
    assert oracle_min_swaps(inst) == 0
    assert oracle_min_swaps_at(inst, 0) == 0
