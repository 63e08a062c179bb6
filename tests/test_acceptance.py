"""Acceptance gate: ten end-to-end criteria, one test (and one verdict line) each.

Run with -v to get the per-criterion PASSED/FAILED lines. The suite favors
exhaustive small-case sweeps cross-checked against the exhaustive-search
reference solver; every comparison is exact unless a tolerance is stated.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from commroute.bounds import step_lower_bound, swap_lower_bound
from commroute.constructive import dfs_swap_solve
from commroute.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from commroute.milp import (
    ModelVariant,
    ScipyBackend,
    add_complete_placement_fixing,
    build_swap_step_model,
    build_variant,
    solve_lp_relaxation,
    solve_min_swaps_at,
)
from commroute.oracle import oracle_min_steps, oracle_min_swaps, oracle_min_swaps_at
from commroute.pipeline import generate_instance, solve_min_swaps
from commroute.polytope import (
    exact_description,
    hardware_to_bipartite,
    verify_integer_hull,
)
from commroute.scheduler import build_schedule_model, compute_windows, schedule_circuit
from commroute.solutions import (
    SwapSolution,
    TmpInstance,
    TokenPlacement,
    validate_routed_circuit,
    validate_swap_solution,
)

from conftest import (
    all_trees,
    brute_min_depth,
    connected_graphs,
    parallel_map,
    random_connected_graph,
    random_tree,
)

BACKEND = ScipyBackend()
GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# shared instance sweep: every connected (hardware, algorithm) pair on
# n <= 4 nodes up to isomorphism, plus seeded random n=5 pairs

def _oracle_profile(inst):
    mt = oracle_min_steps(inst)
    at = {t: oracle_min_swaps_at(inst, t) for t in range(mt, mt + 3)}
    return {"mt": mt, "at": at, "ms": oracle_min_swaps(inst)}


@pytest.fixture(scope="module")
def sweep():
    cases = []
    for n in (2, 3, 4):
        graphs = connected_graphs(n)
        for h in graphs:
            for a in graphs:
                inst = TmpInstance(h, a)
                cases.append((inst, _oracle_profile(inst)))
    rng = random.Random(404)
    for _ in range(50):
        inst = TmpInstance(random_connected_graph(5, rng), random_connected_graph(5, rng))
        cases.append((inst, _oracle_profile(inst)))
    return cases


def test_criterion_01_worked_example():
    inst = TmpInstance(path_graph(6), star_graph(6))
    start = time.monotonic()
    res = solve_min_swaps(inst)
    elapsed = time.monotonic() - start
    assert res.mt == 2
    assert res.ms_at_mt == 4
    assert res.ms == 3
    assert res.complete
    assert validate_swap_solution(inst, res.swap_solution).valid
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s"


def test_criterion_02_oracle_milp_equivalence(sweep):
    jobs = [(inst, t, variant, ref["at"][t])
            for inst, ref in sweep
            for t in (ref["mt"], ref["mt"] + 1)
            for variant in ModelVariant]
    insts, horizons, variants, wants = zip(*jobs)
    # the solves are independent, so they run side by side
    attempts = parallel_map(solve_min_swaps_at, insts, horizons, variants)
    mismatches = []
    for inst, t, variant, want, att in zip(insts, horizons, variants, wants, attempts):
        if att.status != "optimal" or att.swaps != want:
            mismatches.append((inst.hardware.edges, inst.algorithm.edges,
                               t, variant.value, att.status, att.swaps, want))
    assert not mismatches, mismatches[:5]


def _feasible_with_fixing(inst, steps):
    """Feasibility-only solve: all-pairs algorithms allow pinning the start."""
    model = build_variant(inst, steps=steps)
    add_complete_placement_fixing(model, inst, steps=steps)
    model.set_objective([])
    res = BACKEND.solve(model)
    assert res.status in ("optimal", "infeasible"), res.status
    return res.status == "optimal"


@pytest.mark.parametrize("family", ["path", "star"])
def test_criterion_03_closed_forms(family):
    for n in range(3, 7):
        h = path_graph(n) if family == "path" else star_graph(n)
        inst = TmpInstance(h, complete_graph(n))
        assert _feasible_with_fixing(inst, n - 2), (family, n)
        assert not _feasible_with_fixing(inst, n - 3), (family, n)


def test_criterion_04_monotone_in_steps(sweep):
    for inst, ref in sweep:
        values = [ref["at"][t] for t in sorted(ref["at"])]
        assert all(v is not None for v in values)
        assert values[0] >= values[1] >= values[2], (inst.hardware.edges, values)


def test_criterion_05_tree_heuristic():
    rng = random.Random(1105)
    for n in range(3, 13):
        for _ in range(100):
            h = random_tree(n, rng)
            sol = dfs_swap_solve(h)
            v = validate_swap_solution(TmpInstance(h, complete_graph(n)), sol)
            assert v.valid, (n, h.edges, v.problems)
            assert all(len(m) == 1 for m in sol.matchings)
            assert sol.swaps <= (n - 2) ** 2, (n, h.edges, sol.swaps)


def test_criterion_06_bound_validity(sweep):
    for inst, ref in sweep:
        assert step_lower_bound(inst) <= ref["mt"]
        assert swap_lower_bound(inst) <= ref["ms"]
    # every tree up to 7 nodes with all pairs interacting: the minimal
    # step count is n-2 or n-1
    for n in range(3, 8):
        for h in all_trees(n):
            inst = TmpInstance(h, complete_graph(n))
            assert _feasible_with_fixing(inst, n - 1), (n, h.edges)
            assert not _feasible_with_fixing(inst, n - 3), (n, h.edges)


def _schedule_cases_p3():
    """Every gate set on P3 paired with every valid solution of <= 2 steps."""
    h = path_graph(3)
    pairs = [(0, 1), (0, 2), (1, 2)]
    matchings = [((0, 1),), ((1, 2),)]
    seqs = [()] + [(m,) for m in matchings] + [(a, b) for a in matchings for b in matchings]
    for r in range(1, 4):
        for gates in itertools.combinations(pairs, r):
            inst = TmpInstance(h, Graph(3, gates))
            for initial in itertools.permutations(range(3)):
                for seq in seqs:
                    sol = SwapSolution(TokenPlacement(tuple(initial)), seq)
                    if validate_swap_solution(inst, sol).valid:
                        yield inst, sol


def _schedule_cases_random(rng, count):
    hardware = [path_graph(4), cycle_graph(4), star_graph(4)]
    made = 0
    while made < count:
        h = rng.choice(hardware)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        gates = rng.sample(pairs, rng.randint(1, 4))
        inst = TmpInstance(h, Graph(4, gates))
        att = None
        for steps in (0, 1, 2):
            att = solve_min_swaps_at(inst, steps=steps)
            if att.status == "optimal":
                break
        if att.status != "optimal":
            continue
        yield inst, att.solution
        made += 1


def test_criterion_07_schedule_optimality():
    rng = random.Random(707)
    cases = itertools.chain(_schedule_cases_p3(), _schedule_cases_random(rng, 20))
    for inst, sol in cases:
        want = brute_min_depth(inst, sol)
        out = schedule_circuit(inst, sol)
        assert out.circuit.depth == want, (inst.hardware.edges, inst.algorithm.edges, sol)
        v = validate_routed_circuit(inst, out.circuit)
        assert v.valid, v.problems
        built = sorted(e for layer in out.circuit.layers for e in layer.swap_edges)
        assert built == sorted(e for m in sol.matchings for e in m)


def test_criterion_08_polytope_exactness():
    graphs = [path_graph(3), path_graph(4), cycle_graph(4), star_graph(4)]
    for h in graphs:
        g = hardware_to_bipartite(h)
        report = verify_integer_hull(g, "eq", num_objectives=1000, seed=8)
        assert report["points_valid"], h.edges
        assert report["zero_one_exact"], h.edges
        assert report["integral"], h.edges
        assert report["fractional_vertex"] is None

    # aggregated pair model over one step: relaxation already integral
    inst = TmpInstance(path_graph(3), Graph(3, [(0, 1)]))
    model = build_variant(inst, ModelVariant.PAIR_AGGREGATED, steps=0)
    rng = random.Random(88)
    names = [v.name for v in model.variables]
    for _ in range(1000):
        model.set_objective([(nm, rng.uniform(-1, 1)) for nm in names])
        lp = solve_lp_relaxation(model)
        assert lp.status == "optimal"
        assert all(abs(x - round(x)) < 1e-6 for x in lp.values.values())

    # dropping the push-down family weakens the description in a way the
    # 0/1 check catches on every test graph; the weakened system is the
    # integer hull of the relaxed relation (z forced only upward), so its
    # vertices stay integral and no fractional witness can exist
    detected = []
    for h in graphs:
        g = hardware_to_bipartite(h)
        kept = [c for c in exact_description(g, "eq") if not c.tag.startswith("miss_block")]
        report = verify_integer_hull(g, "eq", constraints=kept, num_objectives=200, seed=9)
        detected.append(not report["zero_one_exact"])
        assert report["fractional_vertex"] is None
    assert any(detected)
    assert all(detected)


def test_criterion_09_single_swap_fixed_point(sweep):
    for inst, ref in sweep:
        ms_at_mt = ref["at"][ref["mt"]]
        target = ms_at_mt - 1
        if target < 0:
            assert ref["ms"] == 0
            continue
        model = build_swap_step_model(inst, steps=target)
        res = BACKEND.solve(model)
        if res.status == "infeasible":
            assert ref["ms"] == ms_at_mt, (inst.hardware.edges, inst.algorithm.edges)
        else:
            assert res.status == "optimal"
            assert round(res.objective) == ref["ms"]


def test_criterion_10_determinism():
    golden = {
        "path4_complete4_T2_pair_mccormick.lp": build_variant(
            TmpInstance(path_graph(4), complete_graph(4)), ModelVariant.PAIR_MCCORMICK, steps=1
        ),
        "path6_star6_T3_indicator_onesided.lp": build_variant(
            TmpInstance(path_graph(6), star_graph(6)), ModelVariant.INDICATOR_ONESIDED, steps=2
        ),
        "cycle4_complete4_steps2_swap_step.lp": build_swap_step_model(
            TmpInstance(cycle_graph(4), complete_graph(4)), steps=2
        ),
        # the schedule's integer program at route()'s path6 / star6 witness
        # and at the odd-even transposition sort along grid2x3's snake path
        "path6_star6_witness_schedule.lp": build_schedule_model(compute_windows(
            TmpInstance(path_graph(6), star_graph(6)),
            SwapSolution(TokenPlacement((2, 1, 0, 3, 4, 5)),
                         (((0, 1),), ((2, 3),), ((3, 4),))),
        )),
        "grid2x3_complete6_snake_schedule.lp": build_schedule_model(compute_windows(
            TmpInstance(grid_graph(2, 3), complete_graph(6)),
            SwapSolution(TokenPlacement.identity(6),
                         (((0, 1), (2, 5), (3, 4)), ((1, 2), (4, 5))) * 3),
        )),
    }
    for name, model in golden.items():
        assert model.lp_string() == (GOLDEN / name).read_text(), name

    a = generate_instance("twin5cycles", 0.3, 7)
    b = generate_instance("twin5cycles", 0.3, 7)
    assert a == b
    assert a.algorithm.edges == (
        (0, 2), (0, 3), (0, 4), (0, 5), (1, 5), (1, 6), (1, 7), (2, 7), (3, 6),
    )
