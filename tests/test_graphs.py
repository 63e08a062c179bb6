import pytest

from commroute.graphs import (
    Graph,
    all_matchings,
    automorphism_generators,
    automorphism_orbits,
    automorphisms,
    bridged_cycles_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    orbit_roots,
    path_graph,
    spider_graph,
    star_graph,
)

from conftest import all_trees, connected_graphs, matching_images


def test_edge_normalization():
    g = Graph(3, [(1, 0), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.num_edges == 2


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 0), (0, 1)])  # same edge twice
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_adjacency_and_degrees():
    g = path_graph(4)
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (0, 2)
    assert g.degree_sequence() == [2, 2, 1, 1]


def test_connectivity():
    assert path_graph(5).is_connected()
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
    assert Graph(1, []).is_connected()


def test_tree_and_complete_predicates():
    assert path_graph(4).is_tree()
    assert star_graph(5).is_tree()
    assert not cycle_graph(4).is_tree()
    assert complete_graph(4).is_complete()
    assert not path_graph(3).is_complete()


def test_distances():
    g = cycle_graph(5)
    d = g.distances
    assert d[0][2] == 2
    assert d[0][3] == 2
    assert max(max(row) for row in d) == 2


@pytest.mark.parametrize("n,edges", [(2, 1), (5, 4), (9, 8)])
def test_path_graph_sizes(n, edges):
    g = path_graph(n)
    assert g.n == n and g.num_edges == edges and g.is_connected()


def test_star_graph_shape():
    g = star_graph(6)
    assert g.degree(0) == 5
    assert all(g.degree(i) == 1 for i in range(1, 6))


def test_cycle_graph_shape():
    g = cycle_graph(6)
    assert all(g.degree(i) == 2 for i in range(6))
    assert g.num_edges == 6


def test_complete_graph_shape():
    g = complete_graph(5)
    assert g.num_edges == 10


def test_grid_graph():
    g = grid_graph(3, 3)
    assert g.n == 9
    assert g.num_edges == 12
    assert sorted(g.degree_sequence()) == [2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_bridged_cycles_graph():
    # two 5-cycles sharing one edge: 8 nodes, 9 edges
    g = bridged_cycles_graph()
    assert g.n == 8
    assert g.num_edges == 9
    assert g.is_connected()
    assert sorted(g.degree_sequence()) == [2, 2, 2, 2, 2, 2, 3, 3]


def test_spider_graph():
    # root plus m legs of length m
    for m in (2, 3):
        g = spider_graph(m)
        assert g.n == m * m + 1
        assert g.is_tree()
        assert g.degree(0) == m


def test_all_matchings_p3():
    ms = all_matchings(path_graph(3))
    assert set(ms) == {(), ((0, 1),), ((1, 2),)}


def test_all_matchings_counts():
    # matchings of P4 including empty: {}, 3 singles, one pair
    assert len(all_matchings(path_graph(4))) == 5
    assert len(all_matchings(complete_graph(4))) == 10


def test_matchings_are_disjoint():
    for m in all_matchings(grid_graph(2, 3)):
        nodes = [v for e in m for v in e]
        assert len(nodes) == len(set(nodes))


def test_automorphisms_path():
    autos = automorphisms(path_graph(4))
    assert len(autos) == 2
    assert tuple(range(4)) in autos
    assert (3, 2, 1, 0) in autos


def test_automorphisms_cycle_and_star():
    assert len(automorphisms(cycle_graph(5))) == 10  # dihedral group
    assert len(automorphisms(star_graph(4))) == 6    # leaf permutations


def test_automorphism_orbits():
    orbits = automorphism_orbits(path_graph(5))
    assert sorted(sorted(o) for o in orbits) == [[0, 4], [1, 3], [2]]
    assert automorphism_orbits(complete_graph(3)) == [[0, 1, 2]]


SYMMETRIC = {
    "path5": path_graph(5), "cycle6": cycle_graph(6), "star5": star_graph(5),
    "grid2x3": grid_graph(2, 3), "grid3x3": grid_graph(3, 3),
    "twin5cycles": bridged_cycles_graph(), "K5": complete_graph(5),
}


@pytest.mark.parametrize("g", SYMMETRIC.values(), ids=SYMMETRIC.keys())
def test_automorphism_generators_generate_the_group(g):
    gens = automorphism_generators(g)
    group = automorphisms(g)
    assert set(gens) <= set(group) and len(gens) <= g.n ** 2
    # the orbits under the whole group, read off it directly: each item's
    # lowest image
    nodes = [min(perm[i] for perm in group) for i in range(g.n)]
    assert orbit_roots(g.n, gens) == nodes
    assert automorphism_orbits(g) == [[i for i in range(g.n) if nodes[i] == r]
                                      for r in sorted(set(nodes))]
    images = [matching_images(g, perm) for perm in group]
    matchings = [min(image[mi] for image in images) for mi in range(len(images[0]))]
    assert orbit_roots(len(matchings), [matching_images(g, perm) for perm in gens]) == matchings


def test_round_trip_dict():
    g = grid_graph(2, 3)
    assert Graph.from_dict(g.to_dict()) == g


def test_tree_enumeration_counts():
    # unlabeled tree counts for n = 3..7
    assert [len(all_trees(n)) for n in range(3, 8)] == [1, 2, 3, 6, 11]


def test_connected_graph_enumeration_counts():
    assert len(connected_graphs(3)) == 2
    assert len(connected_graphs(4)) == 6
