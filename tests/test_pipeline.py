import itertools
import random
import time
import weakref

import pytest

import commroute._search_py as search_kernel
import commroute.milp.models as milp_models
import commroute.pipeline as pipeline_module
import commroute.scheduler as scheduler
import commroute.solutions as solutions_module

from commroute.bounds import cheaper_swap_floor, step_lower_bound, swap_lower_bound
from commroute.graphs import Graph, complete_graph, cycle_graph, grid_graph, path_graph, star_graph
from commroute.milp import SolveResult
from commroute.oracle import (
    InfeasibleInstanceError,
    RelativeFrameSearch,
    oracle_min_steps,
    oracle_min_swaps,
    oracle_min_swaps_at,
)
from commroute.pipeline import (
    PipelineResult,
    circuit_ingest,
    generate_instance,
    route,
    solve_min_swaps,
)
from commroute.scheduler import compute_windows
from commroute.solutions import (
    SwapSolution,
    TmpInstance,
    validate_routed_circuit,
    validate_swap_solution,
)

from conftest import connected_graphs, random_connected_graph, random_tree


@pytest.fixture
def highs_only(monkeypatch):
    """No search budget: every number is certified by a bound or by HiGHS."""
    monkeypatch.setattr(pipeline_module, "SEARCH_BUDGET", 0)


@pytest.fixture
def no_highs(monkeypatch):
    """Any HiGHS solve fails the test: the search must settle everything."""
    def refuse(self, model, time_limit=None):
        raise AssertionError("HiGHS ran on an instance the search settles")

    monkeypatch.setattr(pipeline_module.ScipyBackend, "solve", refuse)


def test_worked_example(no_highs):
    inst = TmpInstance(path_graph(6), star_graph(6))
    res = solve_min_swaps(inst)
    assert (res.mt, res.ms_at_mt, res.ms) == (2, 4, 3)
    assert res.complete
    assert validate_swap_solution(inst, res.swap_solution).valid
    assert res.swap_solution.swaps == 3
    # the search settles all three numbers and its goal state is the witness
    claims = ["mt = 2 (work", "ms_at_mt = 4 (work", "ms = 3 (work"]
    assert len(res.notes) == 3
    for note, claim in zip(res.notes, claims):
        assert note.startswith("certified by search: " + claim), note
    assert "search" in res.timings
    assert "min_swaps_overall" not in res.timings
    assert "min_swaps_at_min_steps" not in res.timings


def test_worked_example_through_highs(highs_only):
    inst = TmpInstance(path_graph(6), star_graph(6))
    res = solve_min_swaps(inst)
    assert (res.mt, res.ms_at_mt, res.ms) == (2, 4, 3)
    assert res.complete
    assert validate_swap_solution(inst, res.swap_solution).valid
    assert res.notes == [
        "certified by phase-1 solves: mt = 2, none at 1 steps",
        "certified by phase-2 solve: ms_at_mt = 4",
        "certified by phase-3 solve: optimum 3 single-swap steps",
    ]
    assert res.timings["find_min_steps"] > 0


def test_subgraph_fast_path():
    inst = TmpInstance(path_graph(5), Graph(4, [(0, 1), (1, 2), (2, 3)]))
    res = solve_min_swaps(inst)
    assert res.mt == 0 and res.ms == 0 and res.ms_at_mt == 0
    assert res.swap_solution.matchings == ()
    assert res.complete
    assert "find_min_steps" not in res.timings


def test_phase_three_skipped_when_tight():
    cases = [
        # (P3, K3): one step, one swap, nothing left to improve
        (TmpInstance(path_graph(3), complete_graph(3)), (1, 1, 1)),
        # (P5, S5): ms_at_mt = mt + 1, so no cheaper solution can exist
        (TmpInstance(path_graph(5), star_graph(5)), (1, 2, 2)),
    ]
    for inst, expected in cases:
        res = solve_min_swaps(inst)
        assert (res.mt, res.ms_at_mt, res.ms) == expected
        assert res.complete
        assert "min_swaps_overall" not in res.timings
        assert any(note.startswith("certified by bound") for note in res.notes)


def test_timings_include_model_build(monkeypatch, highs_only):
    build = milp_models.build_variant

    def slow_build(*args, **kwargs):
        time.sleep(0.2)
        return build(*args, **kwargs)

    monkeypatch.setattr(milp_models, "build_variant", slow_build)
    res = solve_min_swaps(TmpInstance(path_graph(3), complete_graph(3)))
    assert res.mt == 1
    assert res.timings["find_min_steps"] == 0  # the first probe is feasible
    assert res.timings["min_swaps_at_min_steps"] >= 0.2


def _oracle_profile(inst):
    mt = oracle_min_steps(inst)
    return mt, oracle_min_swaps_at(inst, mt), oracle_min_swaps(inst)


def _tree_dense_instance(seed):
    """Random 5-node tree hardware with 7 to 10 of the 10 possible gates."""
    r = random.Random(seed)
    h = random_tree(5, r)
    pairs = list(itertools.combinations(range(5), 2))
    return TmpInstance(h, Graph(5, r.sample(pairs, r.randint(7, 10))))


# seeds of _tree_dense_instance where ms_at_mt - mt >= 2, so phase 3 runs
GAP_SEEDS = (4, 10, 43)


def test_cheaper_swap_floor_on_oracle_sweep():
    cases = []
    for n in (2, 3, 4):
        graphs = connected_graphs(n)
        cases += [TmpInstance(h, a) for h in graphs for a in graphs]
    r = random.Random(404)
    cases += [TmpInstance(random_connected_graph(5, r), random_connected_graph(5, r))
              for _ in range(50)]
    cases += [_tree_dense_instance(seed) for seed in GAP_SEEDS]
    for inst in cases:
        mt, ms_at_mt, ms = _oracle_profile(inst)
        floor = max(mt + 1, swap_lower_bound(inst))
        assert ms == ms_at_mt or ms >= floor, (inst.hardware.edges, inst.algorithm.edges)


@pytest.mark.parametrize("seed", GAP_SEEDS)
def test_pinned_phase_three_matches_oracle(seed, highs_only):
    inst = _tree_dense_instance(seed)
    mt, ms_at_mt, ms = _oracle_profile(inst)
    assert ms_at_mt - mt >= 2
    res = solve_min_swaps(inst)
    assert res.complete
    assert (res.mt, res.ms_at_mt, res.ms) == (mt, ms_at_mt, ms)
    assert "min_swaps_overall" in res.timings
    assert any(note.startswith("certified by phase-3 solve") for note in res.notes)
    assert validate_swap_solution(inst, res.swap_solution).valid


# seeds of _tree_dense_instance where HiGHS spent seconds on phases 2 and 3
SEARCH_SEEDS = (8, 28, 61, 102)


@pytest.mark.parametrize("seed", GAP_SEEDS + SEARCH_SEEDS)
def test_search_certifies_tree_dense_instances(seed, no_highs):
    inst = _tree_dense_instance(seed)
    res = solve_min_swaps(inst)
    assert res.complete
    assert (res.mt, res.ms_at_mt, res.ms) == _oracle_profile(inst)
    check = validate_swap_solution(inst, res.swap_solution)
    assert check.valid and check.swaps == res.ms
    assert all(note.startswith("certified by search") for note in res.notes), res.notes
    assert "find_min_steps" not in res.timings
    assert "min_swaps_overall" not in res.timings


def test_search_certifies_path7_complete(no_highs):
    # criterion 03's closed forms at n = 7; the cheaper search over single
    # swaps proves ms = ms_at_mt within SEARCH_BUDGET, so HiGHS never runs
    inst = TmpInstance(path_graph(7), complete_graph(7))
    res = solve_min_swaps(inst)
    assert res.complete
    assert (res.mt, res.ms_at_mt, res.ms) == (5, 15, 15)
    assert res.notes[-1].startswith("certified by search: no solution has fewer than 15 swaps")
    check = validate_swap_solution(inst, res.swap_solution)
    assert check.valid and check.swaps == 15


def test_partial_search_budgets_match_oracle(monkeypatch):
    # budgets that run out in each of the three searches leave HiGHS a
    # narrowed phase 1, a plain phase 2 or a phase 3 pinned by the search
    tree6 = Graph(6, [(0, 4), (0, 5), (1, 2), (1, 5), (3, 5)])
    cases = [TmpInstance(star_graph(5), complete_graph(5)),  # (3, 3, 3)
             TmpInstance(tree6, complete_graph(6)),  # (4, 7, 6)
             _tree_dense_instance(GAP_SEEDS[0])]  # (3, 6, 6)
    for inst in cases:
        want = _oracle_profile(inst)
        # the work of the pipeline's searches when they all finish
        search = RelativeFrameSearch(inst)
        search.settle()
        for budget in (search.work // 4, search.work // 2, search.work - 1):
            monkeypatch.setattr(pipeline_module, "SEARCH_BUDGET", budget)
            res = solve_min_swaps(inst)
            assert res.complete
            assert (res.mt, res.ms_at_mt, res.ms) == want, (budget, res.notes)
            assert validate_swap_solution(inst, res.swap_solution).swaps == res.ms


@pytest.mark.parametrize("wrong", [lambda path: path[:-1], lambda path: path + path[-1:]],
                         ids=["last-matching-dropped", "last-matching-repeated"])
def test_search_witness_that_contradicts_its_value_raises(monkeypatch, wrong):
    # the right swap count with a path whose U misses a gate, or whose
    # solution is valid but has one matching too many
    right = search_kernel.min_swaps_within

    def wrong_path(*args, **kwargs):
        out = right(*args, **kwargs)
        return out._replace(path=wrong(out.path))

    monkeypatch.setattr(search_kernel, "min_swaps_within", wrong_path)
    with pytest.raises(RuntimeError, match="witness"):
        solve_min_swaps(TmpInstance(path_graph(3), complete_graph(3)))


@pytest.mark.parametrize("owner", [milp_models, pipeline_module], ids=["phase-2", "phase-3"])
def test_highs_solution_that_contradicts_its_value_raises(monkeypatch, highs_only, owner):
    # a decode that loses the last matching: phase 2 decodes through
    # milp.models, phase 3 through the pipeline's own import
    right = milp_models.decode_solution

    def drop_last(*args, **kwargs):
        out = right(*args, **kwargs)
        return SwapSolution(out.initial, out.matchings[:-1])

    monkeypatch.setattr(owner, "decode_solution", drop_last)
    with pytest.raises(RuntimeError, match="witness"):
        solve_min_swaps(TmpInstance(path_graph(6), star_graph(6)))


def _two_components(*paths: int) -> Graph:
    edges, base = [], 0
    for n in paths:
        edges += [(base + k, base + k + 1) for k in range(n - 1)]
        base += n
    return Graph(base, edges)


def test_disconnected_hardware_matches_oracle():
    cases = [TmpInstance(_two_components(4, 2), star_graph(4)),
             TmpInstance(_two_components(4, 2), complete_graph(4)),
             TmpInstance(_two_components(5, 2), star_graph(5))]
    for inst in cases:
        res = route(inst)
        assert res.complete
        assert (res.mt, res.ms) == (oracle_min_steps(inst), oracle_min_swaps(inst))
        assert validate_swap_solution(inst, res.swap_solution).valid
        assert validate_routed_circuit(inst, res.routed_circuit).valid


def test_unroutable_instance_raises_infeasible():
    # four star tokens on two disjoint hardware edges never all meet the center
    inst = TmpInstance(_two_components(2, 2), star_graph(4))
    with pytest.raises(InfeasibleInstanceError):
        solve_min_swaps(inst)


def test_disconnected_hardware_rejected(highs_only):
    # without the search, nothing proves feasibility on disconnected hardware
    inst = TmpInstance(_two_components(4, 2), star_graph(4))
    with pytest.raises(ValueError, match="connected") as exc:
        solve_min_swaps(inst)
    assert not isinstance(exc.value, InfeasibleInstanceError)


def test_config_validates_time_limit():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    with pytest.raises(ValueError):
        solve_min_swaps(inst, time_limit=0)
    with pytest.raises(ValueError):
        solve_min_swaps(inst, time_limit=-1.5)


def test_results_match_oracle_small(rng, highs_only):
    for _ in range(6):
        inst = TmpInstance(random_connected_graph(4, rng), random_connected_graph(4, rng))
        res = solve_min_swaps(inst)
        assert res.complete
        assert res.mt == oracle_min_steps(inst)
        assert res.ms == oracle_min_swaps(inst)


def test_invariant_chain(rng):
    for _ in range(6):
        inst = TmpInstance(random_connected_graph(5, rng), random_connected_graph(4, rng))
        res = solve_min_swaps(inst)
        assert res.complete
        n = inst.hardware.n
        assert res.mt <= res.ms <= res.ms_at_mt <= (n // 2) * max(res.mt, 1)


def test_timeout_yields_partial_result(monkeypatch, highs_only):
    monkeypatch.setattr(pipeline_module.ScipyBackend, "solve",
                        lambda self, model, time_limit=None: SolveResult("timeout"))
    inst = TmpInstance(path_graph(6), star_graph(6))
    res = solve_min_swaps(inst)
    assert not res.complete
    assert not (res.mt_optimal and res.ms_at_mt_optimal and res.ms_optimal)
    assert any("ended with status timeout" in note for note in res.notes)


def test_timeout_keeps_the_mt_the_search_certified(monkeypatch):
    # under a budget of 20,000 the search proves mt = 3 here (work 8,216)
    # and its A* at mt runs out (it settles in 52,581 units); a timed-out
    # phase-2 solve must not drop that certified mt
    monkeypatch.setattr(pipeline_module, "SEARCH_BUDGET", 20_000)
    monkeypatch.setattr(pipeline_module, "solve_min_swaps_at",
                        lambda *args, **kwargs: milp_models.SolveAttempt("timeout", None, None))
    res = solve_min_swaps(generate_instance("grid3x3", 0.7, 0), time_limit=1)
    assert res.mt == 3 and res.mt_optimal
    assert res.ms_at_mt is None and not res.ms_at_mt_optimal
    assert res.notes == ["certified by search: mt = 3 (work 8216)",
                         "phase-1 solve at 3 steps ended with status timeout"]


def test_phase_one_moves_on_only_past_a_proof_of_infeasibility(monkeypatch, highs_only):
    # a first probe that ends with status "unknown" proves nothing about 1
    # step; read as infeasible, it certified mt = 2 on P3 / K3, where mt = 1
    right = pipeline_module.solve_min_swaps_at
    calls = []

    def unknown_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            return milp_models.SolveAttempt("unknown", None, None)
        return right(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "solve_min_swaps_at", unknown_first)
    res = solve_min_swaps(TmpInstance(path_graph(3), complete_graph(3)))
    assert len(calls) == 1
    assert res.mt is None and not res.complete
    assert res.notes == ["phase-1 solve at 1 steps ended with status unknown"]


def test_phase_three_notes_the_status_it_ended_with(monkeypatch, highs_only):
    # only the one-swap-per-step model has step indicators s_t
    solve = pipeline_module.ScipyBackend.solve

    def phase_three_times_out(self, model, time_limit=None):
        if any(v.name == "s_t1" for v in model.variables):
            return SolveResult("timeout")
        return solve(self, model, time_limit)

    monkeypatch.setattr(pipeline_module.ScipyBackend, "solve", phase_three_times_out)
    res = solve_min_swaps(TmpInstance(path_graph(6), star_graph(6)))
    assert (res.mt, res.ms_at_mt, res.ms) == (2, 4, None)
    assert res.notes[-1] == "phase-3 solve at 3 single-swap steps ended with status timeout"


def test_mt_note_names_the_bound_that_starts_the_sweep(highs_only):
    # the step lower bound is 0 on P4 / star4 and the search cannot start,
    # so mt >= 1 rests on the embedding check alone
    inst = TmpInstance(path_graph(4), star_graph(4))
    assert step_lower_bound(inst) == 0
    res = solve_min_swaps(inst)
    assert res.mt == 1
    assert res.notes[0] == ("certified by embedding check: mt = 1, no placement puts "
                            "every gate on a hardware edge")


def test_route_example():
    inst = TmpInstance(path_graph(6), star_graph(6))
    res = route(inst)
    assert res.routed_circuit is not None
    v = validate_routed_circuit(inst, res.routed_circuit)
    assert v.valid, v.problems
    assert res.routed_circuit.swaps == 3


@pytest.mark.parametrize("budget, note", [
    (None, "schedule certified by search: extra = {extra}, load bound {bound} (work {work})"),
    (0, "schedule certified by HiGHS: extra = {extra}"),
], ids=["search", "highs"])
def test_route_notes_the_schedule_certificate(monkeypatch, budget, note):
    if budget is not None:
        monkeypatch.setattr(scheduler, "SEARCH_BUDGET", budget)
    res = route(TmpInstance(path_graph(6), star_graph(6)))
    out = res.schedule
    assert out.method == ("search" if budget is None else "milp")
    assert out.load_bound <= out.extra_layers
    assert res.notes[-1] == note.format(
        extra=out.extra_layers, bound=out.load_bound, work=out.work)


def test_route_keeps_the_solve_when_the_schedule_times_out(monkeypatch):
    # gates already adjacent, so the schedule solve is the only solve; no
    # search budget, so the schedule goes to HiGHS
    inst = TmpInstance(path_graph(6), path_graph(6))
    monkeypatch.setattr(scheduler, "SEARCH_BUDGET", 0)
    monkeypatch.setattr(scheduler.ScipyBackend, "solve",
                        lambda self, model, time_limit=None: SolveResult("timeout"))
    res = route(inst)
    assert res.complete
    assert res.schedule is None and res.routed_circuit is None
    assert "schedule solve ended with status timeout" in res.notes
    assert "schedule" in res.timings


def test_route_builds_the_gate_graphs_embedding_order_once(monkeypatch):
    # the direct-placement check and the search share one EmbeddingOrder
    built = []

    class Orders(weakref.WeakKeyDictionary):
        def __setitem__(self, key, value):
            built.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(solutions_module, "_orders", Orders())
    inst = generate_instance("grid3x3", 0.3, 5)
    res = route(inst)
    assert (res.mt, res.ms_at_mt, res.ms) == (1, 2, 2)
    assert built == [inst.algorithm]


def test_route_zero_gates():
    inst = TmpInstance(path_graph(4), Graph(3, []))
    res = route(inst)
    assert res.routed_circuit.depth == 0
    assert res.routed_circuit.swaps == 0


def test_route_depth_envelope(rng):
    for _ in range(4):
        inst = TmpInstance(random_connected_graph(4, rng), random_connected_graph(4, rng))
        res = route(inst)
        ctx = compute_windows(inst, res.swap_solution)
        k = ctx.num_steps
        assert res.routed_circuit.depth <= k + sum(ctx.budgets)
        assert res.routed_circuit.depth <= (k + 1) * (1 + max(ctx.budgets))


def test_pipeline_result_serializes():
    inst = TmpInstance(path_graph(3), complete_graph(3))
    d = route(inst).to_dict()
    assert d["mt"] == 1 and d["ms"] == 1
    assert d["routed_circuit"]["layers"]
    assert isinstance(d["timings"], dict)


# ---------------------------------------------------------------------------
# instance generation

def test_generate_deterministic():
    a = generate_instance("grid3x3", 0.4, 11)
    b = generate_instance("grid3x3", 0.4, 11)
    assert a == b


def test_generate_density_one_is_complete():
    inst = generate_instance("grid3x3", 1.0, 0)
    assert inst.algorithm.num_edges == 36
    assert inst.algorithm.is_complete()


def test_generate_edge_count_formula():
    # ceil(28 * 0.05) = 2 on the 8-node preset
    inst = generate_instance("twin5cycles", 0.05, 3)
    assert inst.hardware.n == 8
    assert inst.algorithm.num_edges == 2


def test_generate_sparse_may_be_disconnected():
    # 2 edges never connect 8 nodes; the last draw is accepted anyway
    inst = generate_instance("twin5cycles", 0.05, 3)
    assert not inst.algorithm.is_connected()


def test_generate_prefers_connected_draws():
    inst = generate_instance("grid3x3", 0.5, 5)
    assert inst.algorithm.is_connected()


def test_generate_custom_hardware():
    inst = generate_instance(cycle_graph(5), 0.6, 1)
    assert inst.hardware == cycle_graph(5)
    assert inst.algorithm.num_edges == 6


def test_generate_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_instance("grid3x3", 0.0, 0)
    with pytest.raises(ValueError):
        generate_instance("grid3x3", 1.1, 0)
    with pytest.raises(ValueError):
        generate_instance("no-such-preset", 0.5, 0)


# ---------------------------------------------------------------------------
# gate-list ingestion

def test_ingest_aggregates_and_labels():
    text = "q0 q1\nq1 q2\nq0 q1\n"
    inst = circuit_ingest(text, path_graph(4))
    assert inst.algorithm.n == 3
    assert inst.algorithm.edges == ((0, 1), (1, 2))


def test_ingest_comments_and_blanks():
    text = "# header\n\na b  # trailing\nb c\n"
    inst = circuit_ingest(text, path_graph(3))
    assert inst.algorithm.num_edges == 2


def test_ingest_empty_file():
    inst = circuit_ingest("", path_graph(3))
    assert inst.algorithm.num_edges == 0


def test_ingest_rejects_self_gate():
    with pytest.raises(ValueError):
        circuit_ingest("a a\n", path_graph(2))


def test_ingest_rejects_malformed_line():
    with pytest.raises(ValueError):
        circuit_ingest("a b c\n", path_graph(3))


def test_ingest_order_independent_of_pair_order():
    inst = circuit_ingest("x y\nz y\ny x\n", path_graph(3))
    assert inst.algorithm.edges == ((0, 1), (1, 2))
