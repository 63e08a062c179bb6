"""Simple undirected graphs plus the handful of algorithms the solvers need."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _parse_int(value) -> int:
    """A node or token number read from JSON. int() would truncate 1.9 to 1,
    read true as 1 and " 1_0 " as 10, so only integers are accepted."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"expected an integer, got {value!r}")


def _parse_edge(pair) -> tuple[int, int]:
    u, v = pair
    return _normalize_edge(_parse_int(u), _parse_int(v))


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 0..n-1 with no self loops or parallel edges."""

    n: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"node count must be nonnegative, got {self.n}")
        seen = set()
        norm = []
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self loop {e} not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            ne = _normalize_edge(u, v)
            if ne in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(ne)
            norm.append(ne)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edge_set

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def is_tree(self) -> bool:
        return self.num_edges == self.n - 1 and self.is_connected()

    def is_complete(self) -> bool:
        return self.num_edges == self.n * (self.n - 1) // 2

    def bfs_distances(self, source: int) -> list[int]:
        """Hop distances from source; unreachable nodes get n (> any real distance)."""
        dist = [self.n] * self.n
        dist[source] = 0
        queue = [source]
        for u in queue:
            for v in self.adjacency[u]:
                if dist[v] > dist[u] + 1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    @cached_property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.bfs_distances(s)) for s in range(self.n))

    def degree_sequence(self) -> list[int]:
        return sorted((len(a) for a in self.adjacency), reverse=True)

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, data: dict) -> Graph:
        if not isinstance(data, dict) or "n" not in data or "edges" not in data:
            raise ValueError("graph object needs 'n' and 'edges'")
        return cls(_parse_int(data["n"]), tuple(_parse_edge(e) for e in data["edges"]))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(n: int) -> Graph:
    """Star on n nodes: center 0, leaves 1..n-1."""
    return Graph(n, tuple((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return Graph(rows * cols, tuple(edges))


def bridged_cycles_graph() -> Graph:
    """Two 5-cycles sharing one edge: 8 nodes, 9 edges."""
    c1 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    c2 = [(4, 5), (5, 6), (6, 7), (0, 7)]
    return Graph(8, tuple(c1 + c2))


def spider_graph(m: int) -> Graph:
    """Root 0 joined to m disjoint paths of m nodes each (m*m + 1 nodes total).

    Path j occupies nodes j*m+1 .. j*m+m, top first (node j*m+1 touches the root).
    """
    if m < 1:
        raise ValueError("need m >= 1")
    edges = []
    for j in range(m):
        top = j * m + 1
        edges.append((0, top))
        for k in range(m - 1):
            edges.append((top + k, top + k + 1))
    return Graph(m * m + 1, tuple(edges))


def iter_matchings(g: Graph) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every matching of g (sets of pairwise disjoint edges), the empty one
    first, lazily and in a deterministic order, so a caller can stop early."""
    edges = g.edges

    def extend(start: int, used: set[int], acc: list[tuple[int, int]]):
        yield tuple(acc)
        for k in range(start, len(edges)):
            u, v = edges[k]
            if u in used or v in used:
                continue
            acc.append(edges[k])
            used.update((u, v))
            yield from extend(k + 1, used, acc)
            acc.pop()
            used.difference_update((u, v))

    return extend(0, set(), [])


def all_matchings(g: Graph, include_empty: bool = True) -> list[tuple[tuple[int, int], ...]]:
    """Every matching of g (sets of pairwise disjoint edges), deterministic order."""
    out = list(iter_matchings(g))
    return out if include_empty else out[1:]


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving node permutations, found by pruned backtracking."""
    n = g.n
    if n == 0:
        return [()]
    # coarse invariant: degree vector refined by neighbor degrees
    deg = [g.degree(i) for i in range(n)]
    sig = [
        (deg[i], tuple(sorted(deg[j] for j in g.adjacency[i])))
        for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: (sig[i], i))
    result: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def place(k: int):
        if k == n:
            result.append(tuple(image))
            return
        u = order[k]
        for v in range(n):
            if used[v] or sig[v] != sig[u]:
                continue
            ok = True
            for w in g.adjacency[u]:
                iw = image[w]
                if iw >= 0 and not g.has_edge(v, iw):
                    ok = False
                    break
            if ok:
                # non-edges must also map to non-edges
                for w in order[:k]:
                    if not g.has_edge(u, w) and g.has_edge(v, image[w]):
                        ok = False
                        break
            if ok:
                image[u] = v
                used[v] = True
                place(k + 1)
                image[u] = -1
                used[v] = False

    place(0)
    return sorted(result)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """A strong generating set of the automorphism group, for the base
    0, 1, .., n - 1: each generator fixes nodes 0 .. k - 1 and maps k to
    another node, for some k.

    Levels run from k = n - 1 down to 0. At level k the generators found so
    far all fix 0 .. k - 1; for each node v outside the orbit of k under
    them, one automorphism that fixes 0 .. k - 1 and maps k to v is searched
    for and, if one exists, added. So the orbit of k under the generators
    of levels k and above is its orbit under the stabiliser G_k of
    0 .. k - 1, and by induction from k = n - 1 those generators generate
    G_k (|G_k| is that orbit's size times |G_k+1|); at k = 0 they generate
    the group. There are at most n(n - 1) / 2 of them, where the group
    itself can have n! elements.

    The search extends the image node by node in base order, keeping each
    node's distances to the nodes placed before it: an automorphism keeps
    every distance, and a bijection that keeps them all keeps adjacency.
    """
    n = g.n
    dist = g.distances
    sig = [tuple(sorted(row)) for row in dist]
    gens: list[tuple[int, ...]] = []
    image = list(range(n))
    used = [False] * n

    def extend(u: int) -> bool:
        # image[0 .. u - 1] is placed; find images for u .. n - 1
        if u == n:
            return True
        row = dist[u]
        for w in range(n):
            if used[w] or sig[w] != sig[u]:
                continue
            if any(dist[w][image[x]] != row[x] for x in range(u)):
                continue
            image[u] = w
            used[w] = True
            if extend(u + 1):
                return True
            used[w] = False
        return False

    for k in range(n - 1, -1, -1):
        orbit = {k}
        for v in range(k + 1, n):
            if v in orbit or sig[v] != sig[k]:
                continue
            used[:] = [x < k or x == v for x in range(n)]
            image[:k] = range(k)
            image[k] = v
            if not extend(k + 1):
                continue
            gens.append(tuple(image))
            frontier = list(orbit)
            while frontier:  # the orbit of k under the generators so far
                x = frontier.pop()
                for perm in gens:
                    if perm[x] not in orbit:
                        orbit.add(perm[x])
                        frontier.append(perm[x])
    return gens


def orbit_roots(size: int, perms) -> list[int]:
    """Per item 0 .. size - 1, the lowest item of its orbit under the group
    the permutations perms generate, each mapping item i to perm[i]: items
    are taken in increasing order, and each one no earlier orbit holds
    starts a new orbit, closed under every permutation."""
    root = [-1] * size
    for i in range(size):
        if root[i] >= 0:
            continue
        root[i] = i
        stack = [i]
        while stack:
            x = stack.pop()
            for perm in perms:
                y = perm[x]
                if root[y] < 0:
                    root[y] = i
                    stack.append(y)
    return root


def automorphism_orbits(g: Graph) -> list[list[int]]:
    """Node orbits under the full automorphism group, each sorted, ordered by minimum."""
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(orbit_roots(g.n, automorphism_generators(g))):
        groups.setdefault(root, []).append(i)
    return [v for _, v in sorted(groups.items())]
