"""Model builder and variant equivalence checks."""

import random

import pytest

from commroute.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from commroute.milp import (
    ModelVariant,
    ScipyBackend,
    add_complete_placement_fixing,
    add_hardware_symmetry,
    build_base,
    build_swap_step_model,
    build_variant,
    decode_solution,
    solve_lp_relaxation,
    solve_min_swaps_at,
)
from commroute.oracle import oracle_min_steps, oracle_min_swaps_at
from commroute.solutions import TmpInstance, validate_swap_solution

from conftest import random_connected_graph

BACKEND = ScipyBackend()


def p4k4():
    return TmpInstance(path_graph(4), complete_graph(4))


def example():
    return TmpInstance(path_graph(6), star_graph(6))


def test_base_model_counts():
    model = build_base(p4k4(), steps=2)
    # w: 3*4*4, x: 2*4*(n + 2|E|) = 2*4*10
    assert len(model.variables) == 128
    assert len(model.constraints) == 94


def test_base_model_is_all_binary():
    model = build_base(p4k4(), steps=1)
    assert all(v.is_integer and (v.lb, v.ub) == (0, 1) for v in model.variables)


def test_variant_from_string():
    assert ModelVariant.from_string("pair-mccormick") is ModelVariant.PAIR_MCCORMICK
    with pytest.raises(ValueError):
        ModelVariant.from_string("nope")


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_variants_agree_on_example(variant):
    att = solve_min_swaps_at(example(), steps=2, variant=variant)
    assert att.status == "optimal"
    assert att.swaps == 4


def test_example_at_three_steps(example_at_three_steps):
    _, att = example_at_three_steps
    assert att.swaps == 3
    v = validate_swap_solution(example(), att.solution)
    assert v.valid, v.problems


def test_infeasible_below_min_steps():
    att = solve_min_swaps_at(example(), steps=1)
    assert att.status == "infeasible"
    assert att.swaps is None and att.solution is None


def test_decoded_solutions_validate():
    rng = random.Random(17)
    for _ in range(6):
        inst = TmpInstance(random_connected_graph(4, rng), random_connected_graph(4, rng))
        t = oracle_min_steps(inst)
        att = solve_min_swaps_at(inst, steps=t)
        assert att.status == "optimal"
        v = validate_swap_solution(inst, att.solution)
        assert v.valid, v.problems
        assert v.swaps == att.swaps


def test_matches_oracle_spot_checks():
    rng = random.Random(19)
    for _ in range(5):
        inst = TmpInstance(random_connected_graph(4, rng), random_connected_graph(4, rng))
        t = oracle_min_steps(inst) + 1
        att = solve_min_swaps_at(inst, steps=t)
        assert att.swaps == oracle_min_swaps_at(inst, t)


def test_lp_relaxation_ordering():
    # the aggregated reformulation dominates the three-row linearization
    inst = p4k4()
    for T in (2, 3):
        weak = solve_lp_relaxation(build_variant(inst, ModelVariant.PAIR_MCCORMICK, steps=T - 1))
        strong = solve_lp_relaxation(build_variant(inst, ModelVariant.PAIR_AGGREGATED, steps=T - 1))
        assert strong.objective >= weak.objective - 1e-9


def test_swap_step_model_counts_single_swaps():
    inst = example()
    model = build_swap_step_model(inst, steps=3)
    res = BACKEND.solve(model)
    assert res.status == "optimal"
    assert round(res.objective) == 3
    # step activity flags are ordered, so a prefix of steps is active
    s = [res.values[f"s_t{t}"] for t in range(1, 4)]
    assert sorted(s, reverse=True) == pytest.approx(s, abs=1e-6)


def test_swap_step_model_infeasible_when_too_short():
    model = build_swap_step_model(example(), steps=2)
    assert BACKEND.solve(model).status == "infeasible"


def test_swap_step_decode():
    inst = example()
    model = build_swap_step_model(inst, steps=3)
    res = BACKEND.solve(model)
    sol = decode_solution(inst, res, steps=3)
    v = validate_swap_solution(inst, sol)
    assert v.valid, v.problems
    assert v.swaps == 3


def test_symmetry_preserves_optimum():
    inst = example()
    plain = solve_min_swaps_at(inst, steps=2)
    model = add_hardware_symmetry(build_variant(inst, steps=2), inst, steps=2)
    anchored = BACKEND.solve(model)
    assert anchored.is_optimal
    assert round(anchored.objective) == plain.swaps
    assert validate_swap_solution(inst, decode_solution(inst, anchored, steps=2)).valid


def test_complete_fixing_preserves_optimum():
    inst = p4k4()
    plain = solve_min_swaps_at(inst, steps=2)
    fixed = solve_min_swaps_at(inst, steps=2, use_fixing=True)
    assert fixed.swaps == plain.swaps
    assert validate_swap_solution(inst, fixed.solution).valid


def test_fixing_requires_complete_algorithm():
    inst = example()
    model = build_variant(inst, ModelVariant.INDICATOR_ONESIDED, steps=2)
    with pytest.raises(ValueError):
        add_complete_placement_fixing(model, inst, steps=2)


def test_lp_export_deterministic(tmp_path):
    a = build_variant(example(), ModelVariant.PAIR_AGGREGATED, steps=2).lp_string()
    b = build_variant(example(), ModelVariant.PAIR_AGGREGATED, steps=2).lp_string()
    assert a == b


def test_horizon_validation():
    with pytest.raises(TypeError):
        build_base(p4k4())  # steps is required
    with pytest.raises(TypeError):
        build_base(p4k4(), 2)  # and keyword-only, so a placement count cannot slip in
    with pytest.raises(ValueError):
        build_base(p4k4(), steps=-1)
    assert len(build_base(p4k4(), steps=2).variables) == 128
