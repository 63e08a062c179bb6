"""Biclique machinery and linear-description exactness on small graphs."""

import itertools

import pytest

from commroute.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from commroute.polytope import (
    ENUMERATION_NODE_CAP,
    BipartiteGraph,
    block_covering_constraints,
    exact_description,
    hardware_to_bipartite,
    maximal_antibicliques,
    maximal_bicliques,
    meeting_points,
    verify_integer_hull,
)

from conftest import connected_graphs


def brute_bicliques(g: BipartiteGraph):
    """Inclusion-maximal fully-connected blocks with both sides nonempty."""
    found = set()
    xs, ys = range(g.nx), range(g.ny)
    for rx in range(1, g.nx + 1):
        for sx in itertools.combinations(xs, rx):
            for ry in range(1, g.ny + 1):
                for sy in itertools.combinations(ys, ry):
                    if all((x, y) in g.edges for x in sx for y in sy):
                        found.add((frozenset(sx), frozenset(sy)))
    maximal = set()
    for a in found:
        if not any(b != a and a[0] <= b[0] and a[1] <= b[1] for b in found):
            maximal.add(a)
    return maximal


def test_double_graph_shape():
    g = hardware_to_bipartite(path_graph(3))
    assert (g.nx, g.ny) == (3, 3)
    assert g.edges == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})
    assert all(x != y for x, y in g.edges)  # no diagonal by construction


def test_bicliques_p3_frozen():
    g = hardware_to_bipartite(path_graph(3))
    assert set(maximal_bicliques(g)) == {
        (frozenset({0, 2}), frozenset({1})),
        (frozenset({1}), frozenset({0, 2})),
    }


def test_bicliques_complete_bipartite():
    g = BipartiteGraph(2, 3, frozenset((x, y) for x in range(2) for y in range(3)))
    assert maximal_bicliques(g) == [(frozenset({0, 1}), frozenset({0, 1, 2}))]


def test_bicliques_edgeless():
    g = BipartiteGraph(2, 2, frozenset())
    assert set(maximal_bicliques(g)) == {
        (frozenset(), frozenset({0, 1})),
        (frozenset({0, 1}), frozenset()),
    }


@pytest.mark.parametrize("h", [path_graph(3), path_graph(4), cycle_graph(4), star_graph(4)])
def test_bicliques_match_brute_force(h):
    g = hardware_to_bipartite(h)
    assert set(maximal_bicliques(g)) == brute_bicliques(g)


@pytest.mark.parametrize("h", [path_graph(3), path_graph(4), cycle_graph(4)])
def test_antibicliques_are_complement_bicliques(h):
    g = hardware_to_bipartite(h)
    assert set(maximal_antibicliques(g)) == set(maximal_bicliques(g.complement()))
    assert set(maximal_antibicliques(g)) == brute_bicliques(g.complement())


def test_blocks_are_maximal():
    g = hardware_to_bipartite(cycle_graph(5))
    blocks = maximal_bicliques(g)
    for bx, by in blocks:
        for cx, cy in blocks:
            if (bx, by) != (cx, cy):
                assert not (bx <= cx and by <= cy)


def test_enumeration_cap():
    big = Graph(ENUMERATION_NODE_CAP, [])
    with pytest.raises(ValueError):
        maximal_bicliques(hardware_to_bipartite(big))


def test_description_p3_row_tags():
    g = hardware_to_bipartite(path_graph(3))
    eq = exact_description(g, "eq")
    leq = exact_description(g, "leq")
    assert [c.tag for c in eq] == ["meet_block_0", "meet_block_1", "miss_block_0", "miss_block_1"]
    assert [c.tag for c in leq] == ["miss_block_0", "miss_block_1"]
    assert all(c.sense == "<=" for c in eq)


def test_description_degenerate_edgeless():
    g = BipartiteGraph(2, 2, frozenset())
    rows = exact_description(g, "eq")
    assert len(rows) == 1 and rows[0].tag == "no_meeting_possible"
    # z = 0 row: z coefficient only
    assert rows[0].z_coeff != 0 and rows[0].sense == "=="


def test_description_degenerate_complete():
    g = BipartiteGraph(2, 2, frozenset((x, y) for x in range(2) for y in range(2)))
    eq = exact_description(g, "eq")
    assert len(eq) == 1 and eq[0].tag == "always_meeting" and eq[0].sense == "=="
    assert exact_description(g, "leq") == []


def test_description_valid_on_integer_points():
    for h in connected_graphs(4):
        g = hardware_to_bipartite(h)
        for relation in ("eq", "leq"):
            rows = exact_description(g, relation)
            for i, j, z in meeting_points(g, relation):
                x = tuple(1.0 if k == i else 0.0 for k in range(g.nx))
                y = tuple(1.0 if k == j else 0.0 for k in range(g.ny))
                assert all(c.holds(x, y, z) for c in rows), (h.edges, relation, i, j, z)


def test_covering_constraints_kn_blocks_shrink():
    # in a complete graph no neighborhood contains another (i != j),
    # so the lifted x-side block is just the node itself
    cons = block_covering_constraints(complete_graph(4))
    for c in cons:
        if c.kind == "meet" and c.side == "x":
            assert [k for k, v in enumerate(c.x_coeffs) if v] == [c.node]


def test_covering_constraints_p3_hand_expansion():
    cons = {(c.node, c.kind, c.side): c for c in block_covering_constraints(path_graph(3))}
    c = cons[(1, "meet", "x")]
    # N(1) = {0,2}; only node 1 has a superset neighborhood
    assert c.x_coeffs == (0.0, 1.0, 0.0)
    assert c.y_coeffs == (1.0, 0.0, 1.0)
    assert c.z_coeff == -1.0 and c.rhs == 1.0


def _covering_feasible(h, x, y, z):
    n = h.n
    for c in block_covering_constraints(h):
        lhs = sum(cx * xv for cx, xv in zip(c.x_coeffs, x))
        lhs += sum(cy * yv for cy, yv in zip(c.y_coeffs, y))
        lhs += c.z_coeff * z
        if lhs > c.rhs + 1e-9:
            return False
    return True


def test_covering_integer_points_match_bilinear():
    # on unit vectors x=e_i, y=e_j the four families force z = [i ~ j]
    for h in connected_graphs(4) + connected_graphs(3):
        for i in range(h.n):
            for j in range(h.n):
                x = tuple(1.0 if k == i else 0.0 for k in range(h.n))
                y = tuple(1.0 if k == j else 0.0 for k in range(h.n))
                want = 1.0 if h.has_edge(i, j) else 0.0
                assert _covering_feasible(h, x, y, want), (h.edges, i, j)
                assert not _covering_feasible(h, x, y, 1.0 - want), (h.edges, i, j)


@pytest.mark.parametrize("h", [path_graph(3), path_graph(4)])
def test_integer_hull_verified(h):
    g = hardware_to_bipartite(h)
    report = verify_integer_hull(g, "eq", num_objectives=100, seed=1)
    assert report["points_valid"]
    assert report["zero_one_exact"]
    assert report["integral"]
    assert report["fractional_vertex"] is None


def test_enumeration_alone_decides_a_small_hull(monkeypatch):
    # path3's description has dimension 7, where every vertex is enumerated
    # exactly, so no random-objective LP probe runs
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("an LP probe ran where enumeration decides")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    report = verify_integer_hull(hardware_to_bipartite(path_graph(3)), "eq")
    assert report["integral"] and report["fractional_vertex"] is None
    assert report["num_vertices_enumerated"] > 0


@pytest.mark.parametrize("num_objectives", [0, -1])
def test_hull_check_needs_an_objective(num_objectives):
    # the check fires before any probe: above the enumeration limit no vertex
    # is enumerated, so with no LP probe either the report would claim
    # integrality on no evidence
    g = hardware_to_bipartite(path_graph(3))
    with pytest.raises(ValueError, match="num_objectives"):
        verify_integer_hull(g, "eq", num_objectives=num_objectives)


def test_leq_hull_verified():
    g = hardware_to_bipartite(cycle_graph(4))
    report = verify_integer_hull(g, "leq", num_objectives=100, seed=2)
    assert report["integral"] and report["zero_one_exact"]


def test_weakened_description_detected():
    # dropping the miss family breaks 0/1 equivalence: z can sit at 0
    # on adjacent positions
    g = hardware_to_bipartite(path_graph(4))
    rows = [c for c in exact_description(g, "eq") if not c.tag.startswith("miss_block")]
    report = verify_integer_hull(g, "eq", constraints=rows, num_objectives=100, seed=3)
    assert not report["zero_one_exact"]
