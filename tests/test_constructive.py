import random

import pytest

from commroute.constructive import dfs_swap_solve, path_sequence, qsst_solve
from commroute.graphs import Graph, complete_graph, cycle_graph, path_graph, spider_graph, star_graph
from commroute.oracle import oracle_min_swaps
from commroute.solutions import TmpInstance, TokenPlacement, validate_swap_solution

from conftest import all_trees, random_tree


def _all_pairs_instance(h):
    return TmpInstance(h, complete_graph(h.n))


def test_rejects_non_tree():
    with pytest.raises(ValueError):
        dfs_swap_solve(cycle_graph(4))
    with pytest.raises(ValueError):
        dfs_swap_solve(Graph(1, []))


def test_path_small():
    sol = dfs_swap_solve(path_graph(3))
    v = validate_swap_solution(_all_pairs_instance(path_graph(3)), sol)
    assert v.valid, v.problems
    assert sol.swaps <= 1


def test_one_swap_per_step():
    for h in (path_graph(5), star_graph(5)):
        sol = dfs_swap_solve(h)
        assert all(len(m) == 1 for m in sol.matchings)


def test_quadratic_swap_budget_all_trees():
    for n in range(3, 8):
        for h in all_trees(n):
            sol = dfs_swap_solve(h)
            v = validate_swap_solution(_all_pairs_instance(h), sol)
            assert v.valid, (n, h.edges, v.problems)
            assert sol.swaps <= (n - 2) ** 2


def test_random_trees_validate():
    rng = random.Random(31)
    for n in (6, 9, 12):
        for _ in range(20):
            h = random_tree(n, rng)
            sol = dfs_swap_solve(h)
            v = validate_swap_solution(_all_pairs_instance(h), sol)
            assert v.valid
            assert sol.swaps <= (n - 2) ** 2


def test_close_to_optimal_on_tiny_trees():
    # not an optimality guarantee, just a sanity margin on n=4
    for h in all_trees(4):
        sol = dfs_swap_solve(h)
        best = oracle_min_swaps(_all_pairs_instance(h))
        assert best <= sol.swaps <= max(best * 3, (h.n - 2) ** 2)


def test_path_sequence_length_and_shape():
    for k in (2, 3, 5, 8):
        seq = path_sequence(k)
        assert len(seq) == 2 * k - 3
        for step in seq:
            nodes = [x for e in step for x in e]
            assert len(nodes) == len(set(nodes))
            assert all(abs(a - b) == 1 for a, b in step)


def test_path_sequence_everyone_reaches_top():
    for k in (2, 3, 4, 6):
        seq = path_sequence(k)
        tok = list(range(k))
        visited_top = {tok[0]}
        start_top = tok[0]
        for step in seq:
            for a, b in step:
                tok[a], tok[b] = tok[b], tok[a]
            visited_top.add(tok[0])
        assert visited_top == set(range(k))
        assert tok[k - 1] == start_top


@pytest.mark.parametrize("m", [1, 2, 3])
def test_qsst_solve_validates(m):
    sol = qsst_solve(m)
    inst = TmpInstance(spider_graph(m), complete_graph(m * m + 1))
    v = validate_swap_solution(inst, sol)
    assert v.valid, v.problems


def test_qsst_step_budget_cubic():
    # steps grow like m^3 on the m-arm spider with m^2+1 nodes
    for m in (2, 3, 4):
        sol = qsst_solve(m)
        assert sol.steps <= 4 * m ** 3
