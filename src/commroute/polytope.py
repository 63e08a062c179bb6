"""Convex-hull machinery for the token-pair meeting indicator.

For one gate, one time step, the question "are tokens p and q on adjacent
nodes" links two assignment vectors x (position of p), y (position of q)
and an indicator z. The bipartite graph G with X = nodes, Y = a copy of the
nodes and an edge (i, j') per hardware edge {i,j} encodes adjacency; this
module enumerates its maximal bicliques and antibicliques and assembles
exact linear descriptions of

  eq  : z = 1  exactly when x, y sit on a G-edge
  leq : z = 1  only if    x, y sit on a G-edge

plus the node-indexed covering constraints that the integer models embed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

ENUMERATION_NODE_CAP = 24
# bases solved per batched SVD in enumerate_polytope_vertices
_BASIS_BATCH = 4096
# enumerate_polytope_vertices refuses inputs needing more bases than this,
# and keeps a solved basis point when it satisfies every row within _VERTEX_TOL
_MAX_BASES = 500_000
_VERTEX_TOL = 1e-7
# verify_integer_hull enumerates vertices up to this dimension, and calls a
# coordinate integral within _INTEGRALITY_TOL of an integer
_ENUMERATE_DIM_LIMIT = 12
_INTEGRALITY_TOL = 1e-6
# LinearInequality.holds accepts a point that misses a row by at most this
_HOLDS_TOL = 1e-9


@dataclass(frozen=True)
class BipartiteGraph:
    nx: int
    ny: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for x, y in self.edges:
            if not (0 <= x < self.nx and 0 <= y < self.ny):
                raise ValueError(f"edge {(x, y)} out of range")

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == self.nx * self.ny

    def complement(self) -> BipartiteGraph:
        all_pairs = set(itertools.product(range(self.nx), range(self.ny)))
        return BipartiteGraph(self.nx, self.ny, frozenset(all_pairs - self.edges))

    def x_neighbors(self, x: int) -> frozenset[int]:
        return frozenset(y for (a, y) in self.edges if a == x)

    def y_neighbors(self, y: int) -> frozenset[int]:
        return frozenset(x for (x, b) in self.edges if b == y)


def hardware_to_bipartite(h: Graph) -> BipartiteGraph:
    """Doubled node set; (i, j') is an edge iff {i,j} is a hardware edge.

    The diagonal (i, i') is never an edge: two tokens cannot share a node.
    """
    edges = set()
    for u, v in h.edges:
        edges.add((u, v))
        edges.add((v, u))
    return BipartiteGraph(h.n, h.n, frozenset(edges))


Block = tuple[frozenset[int], frozenset[int]]


def _check_cap(g: BipartiteGraph) -> None:
    if g.nx + g.ny > ENUMERATION_NODE_CAP:
        raise ValueError(
            f"block enumeration refused: {g.nx}+{g.ny} nodes exceeds the "
            f"cap of {ENUMERATION_NODE_CAP} (antibiclique counts explode)"
        )


def maximal_bicliques(g: BipartiteGraph) -> list[Block]:
    """Inclusion-maximal complete blocks I x J <= E, both sides nonempty.

    The edgeless graph degenerates to [(empty, Y), (X, empty)] so the z=0
    equality still falls out of the description.
    """
    _check_cap(g)
    if not g.edges:
        return [
            (frozenset(), frozenset(range(g.ny))),
            (frozenset(range(g.nx)), frozenset()),
        ]
    xn = [g.x_neighbors(x) for x in range(g.nx)]
    yn = [g.y_neighbors(y) for y in range(g.ny)]
    over_y = g.ny <= g.nx
    side = range(g.ny) if over_y else range(g.nx)
    nbrs = yn if over_y else xn
    other_full = frozenset(range(g.nx)) if over_y else frozenset(range(g.ny))

    found: set[Block] = set()
    for r in range(len(side) + 1):
        for subset in itertools.combinations(side, r):
            close1 = other_full
            for s in subset:
                close1 &= nbrs[s]
            if not close1:
                continue
            it = iter(close1)
            close2 = (xn if over_y else yn)[next(it)]
            for s in it:
                close2 = close2 & (xn if over_y else yn)[s]
            if not close2:
                continue
            found.add((close1, close2) if over_y else (close2, close1))
    return sorted(found, key=lambda b: (sorted(b[0]), sorted(b[1])))


def maximal_antibicliques(g: BipartiteGraph) -> list[Block]:
    """Inclusion-maximal blocks with no edge inside: bicliques of the complement."""
    return maximal_bicliques(g.complement())


@dataclass(frozen=True)
class LinearInequality:
    """x_coeffs . x + y_coeffs . y + z_coeff * z  (sense)  rhs."""

    x_coeffs: tuple[float, ...]
    y_coeffs: tuple[float, ...]
    z_coeff: float
    sense: str  # "<=" or "=="
    rhs: float
    tag: str

    def holds(self, x, y, z: float) -> bool:
        lhs = float(np.dot(self.x_coeffs, x) + np.dot(self.y_coeffs, y) + self.z_coeff * z)
        if self.sense == "==":
            return abs(lhs - self.rhs) <= _HOLDS_TOL
        return lhs <= self.rhs + _HOLDS_TOL


def _indicator(members: frozenset[int], size: int) -> tuple[float, ...]:
    return tuple(1.0 if i in members else 0.0 for i in range(size))


def exact_description(g: BipartiteGraph, relation: str = "eq") -> list[LinearInequality]:
    """Linear description which, with assignment rows and the unit box, has
    exactly the 0/1 meeting points as vertices.

    relation="eq"  uses biclique equalities and inequalities plus the
    antibiclique inequalities; relation="leq" drops the biclique
    inequalities (they would force z up, and the relaxed relation allows
    z = 0 on adjacent positions) but keeps the equality family, which is
    provably empty whenever g came from hardware_to_bipartite.
    """
    if relation not in ("eq", "leq"):
        raise ValueError("relation must be 'eq' or 'leq'")
    zeros_x = (0.0,) * g.nx
    zeros_y = (0.0,) * g.ny
    if not g.edges or g.nx == 0 or g.ny == 0:
        return [LinearInequality(zeros_x, zeros_y, 1.0, "==", 0.0, "no_meeting_possible")]
    if g.is_complete:
        if relation == "eq":
            return [LinearInequality(zeros_x, zeros_y, 1.0, "==", 1.0, "always_meeting")]
        return []

    cons: list[LinearInequality] = []
    for k, (i_set, j_set) in enumerate(maximal_bicliques(g)):
        xs = _indicator(i_set, g.nx)
        ys = _indicator(j_set, g.ny)
        if set(itertools.product(i_set, j_set)) == set(g.edges):
            cons.append(LinearInequality(xs, ys, -1.0, "==", 1.0, f"meet_block_all_{k}"))
        elif relation == "eq":
            cons.append(LinearInequality(xs, ys, -1.0, "<=", 1.0, f"meet_block_{k}"))
    for k, (i_set, j_set) in enumerate(maximal_antibicliques(g)):
        comp_block = set(
            itertools.product(
                set(range(g.nx)) - i_set, set(range(g.ny)) - j_set
            )
        )
        if comp_block == set(g.edges):
            continue
        xs = _indicator(i_set, g.nx)
        ys = _indicator(j_set, g.ny)
        cons.append(LinearInequality(xs, ys, 1.0, "<=", 2.0, f"miss_block_{k}"))
    return cons


@dataclass(frozen=True)
class CoveringConstraint:
    """One node-indexed lifted block constraint for a gate indicator.

    side "x" anchors the expanded block on the position of the first token,
    side "y" on the second; kind "meet" pushes z up on adjacency, "miss"
    pushes z down on non-adjacency.
    """

    node: int
    kind: str  # "meet" or "miss"
    side: str  # "x" or "y"
    x_coeffs: tuple[float, ...]
    y_coeffs: tuple[float, ...]
    z_coeff: float
    rhs: float  # sense is always <=


def block_covering_constraints(h: Graph) -> list[CoveringConstraint]:
    """The four lifted families, one constraint per hardware node each.

    For node i with neighborhood N(i):
      meet/x :  sum_{j: N(i) subset N(j)} x_j + sum_{j in N(i)} y_j - z <= 1
      meet/y :  the same with x and y swapped
      miss/x :  sum_{j: N(j) subset N(i)} x_j - sum_{j in N(i)} y_j + z <= 1
      miss/y :  the same with x and y swapped

    Together the four force z = [positions adjacent] on integer points; the
    miss pair alone forces only z <= [positions adjacent].
    """
    n = h.n
    nbr = [frozenset(h.adjacency[i]) for i in range(n)]
    out: list[CoveringConstraint] = []
    for i in range(n):
        superset_nodes = frozenset(j for j in range(n) if nbr[i] <= nbr[j])
        subset_nodes = frozenset(j for j in range(n) if nbr[j] <= nbr[i])
        sup = _indicator(superset_nodes, n)
        sub = _indicator(subset_nodes, n)
        inb = _indicator(nbr[i], n)
        neg_inb = tuple(-v for v in inb)
        out.append(CoveringConstraint(i, "meet", "x", sup, inb, -1.0, 1.0))
        out.append(CoveringConstraint(i, "meet", "y", inb, sup, -1.0, 1.0))
        out.append(CoveringConstraint(i, "miss", "x", sub, neg_inb, 1.0, 1.0))
        out.append(CoveringConstraint(i, "miss", "y", neg_inb, sub, 1.0, 1.0))
    return out


def meeting_points(g: BipartiteGraph, relation: str = "eq") -> list[tuple[int, int, int]]:
    """All integer points (i, j, z) of the bilinear definition."""
    pts = []
    for i in range(g.nx):
        for j in range(g.ny):
            adj = 1 if (i, j) in g.edges else 0
            if relation == "eq":
                pts.append((i, j, adj))
            else:
                pts.append((i, j, 0))
                if adj:
                    pts.append((i, j, 1))
    return pts


def _lp_matrices(g: BipartiteGraph, cons: list[LinearInequality]):
    dim = g.nx + g.ny + 1
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    row_x = [1.0] * g.nx + [0.0] * g.ny + [0.0]
    row_y = [0.0] * g.nx + [1.0] * g.ny + [0.0]
    a_eq.append(row_x)
    b_eq.append(1.0)
    a_eq.append(row_y)
    b_eq.append(1.0)
    for c in cons:
        row = list(c.x_coeffs) + list(c.y_coeffs) + [c.z_coeff]
        if c.sense == "==":
            a_eq.append(row)
            b_eq.append(c.rhs)
        else:
            a_ub.append(row)
            b_ub.append(c.rhs)
    return dim, np.array(a_eq), np.array(b_eq), (np.array(a_ub) if a_ub else np.zeros((0, dim))), np.array(b_ub)


def enumerate_polytope_vertices(
    g: BipartiteGraph, constraints: list[LinearInequality]
) -> list[tuple[float, ...]]:
    """All vertices of {assignment rows, constraints, unit box}, exactly.

    Walks every basis (choice of tight inequalities completing the equality
    rows to full rank), a batch at a time, so the cost is a binomial
    coefficient; raises ValueError when that exceeds _MAX_BASES instead of
    returning a partial answer.
    """
    import math

    dim, a_eq, b_eq, a_ub, b_ub = _lp_matrices(g, constraints)
    rows_ub = [list(r) for r in a_ub]
    rhs_ub = list(b_ub)
    for k in range(dim):
        unit = [0.0] * dim
        unit[k] = 1.0
        rows_ub.append(list(unit))
        rhs_ub.append(1.0)
        rows_ub.append([-v for v in unit])
        rhs_ub.append(0.0)
    ub = np.array(rows_ub)
    ub_rhs = np.array(rhs_ub)
    need = dim - np.linalg.matrix_rank(a_eq)
    n_bases = math.comb(len(ub), need)
    if n_bases > _MAX_BASES:
        raise ValueError(
            f"vertex enumeration needs {n_bases} bases, above the cap of {_MAX_BASES}"
        )
    verts: set[tuple[float, ...]] = set()
    combos = itertools.combinations(range(len(ub)), need)
    while batch := list(itertools.islice(combos, _BASIS_BATCH)):
        comb = np.array(batch, dtype=np.intp)
        k = len(comb)
        rows = np.concatenate([np.broadcast_to(a_eq, (k, *a_eq.shape)), ub[comb]], axis=1)
        rhs = np.concatenate([np.broadcast_to(b_eq, (k, len(b_eq))), ub_rhs[comb]], axis=1)
        # one SVD per basis gives both the rank test and the least-squares
        # point; the rank tolerance is numpy.linalg.matrix_rank's default
        u, sv, vh = np.linalg.svd(rows, full_matrices=False)
        rank_tol = sv[:, :1] * max(rows.shape[1:]) * np.finfo(float).eps
        full = np.all(sv > rank_tol, axis=1)
        rows, rhs, u, sv, vh = rows[full], rhs[full], u[full], sv[full], vh[full]
        v = np.einsum("kji,kj->ki", vh, np.einsum("kji,kj->ki", u, rhs) / sv)
        ok = np.max(np.abs(np.einsum("kij,kj->ki", rows, v) - rhs), axis=1) <= _VERTEX_TOL
        ok &= np.all(v @ ub.T <= ub_rhs + _VERTEX_TOL, axis=1)
        ok &= np.max(np.abs(v @ a_eq.T - b_eq), axis=1) <= _VERTEX_TOL
        for vert in np.round(v[ok], 9) + 0.0:
            verts.add(tuple(float(c) for c in vert))
    return sorted(verts)


def verify_integer_hull(
    g: BipartiteGraph,
    relation: str = "eq",
    constraints: list[LinearInequality] | None = None,
    num_objectives: int = 200,
    seed: int = 0,
) -> dict:
    """Probe a description for exactness.

    Checks that (a) every bilinear integer point satisfies the constraints,
    (b) every satisfying 0/1 point is a bilinear point, and (c) every vertex
    is integral. When the dimension is at most _ENUMERATE_DIM_LIMIT and the
    basis count fits under _MAX_BASES, (c) is decided exactly by enumerating
    every vertex; only where enumeration cannot run is it probed instead,
    with LP optima for num_objectives random objectives. Returns a report
    dict; report["integral"] is False with a witness vector when a
    fractional vertex shows up. num_objectives must be at least 1, whichever
    way (c) is decided: a report that probed no objective would certify
    nothing.
    """
    if num_objectives < 1:
        raise ValueError(f"num_objectives must be at least 1, got {num_objectives}")
    if constraints is None:
        constraints = exact_description(g, relation)
    points = {(i, j, z) for (i, j, z) in meeting_points(g, relation)}

    def as_vec(i, j, z):
        v = np.zeros(g.nx + g.ny + 1)
        v[i] = 1.0
        v[g.nx + j] = 1.0
        v[-1] = z
        return v

    points_valid = all(
        c.holds(as_vec(i, j, z)[: g.nx], as_vec(i, j, z)[g.nx : g.nx + g.ny], z)
        for (i, j, z) in points
        for c in constraints
    )
    zero_one_exact = True
    for i in range(g.nx):
        for j in range(g.ny):
            for z in (0, 1):
                v = as_vec(i, j, z)
                ok = all(c.holds(v[: g.nx], v[g.nx : g.nx + g.ny], z) for c in constraints)
                if ok != ((i, j, z) in points):
                    zero_one_exact = False

    verts = None
    if g.nx + g.ny + 1 <= _ENUMERATE_DIM_LIMIT:
        try:
            verts = enumerate_polytope_vertices(g, constraints)
        except ValueError:  # more bases than _MAX_BASES
            pass
    fractional = None
    if verts is not None:
        for v in verts:
            if any(abs(c - round(c)) > _INTEGRALITY_TOL for c in v):
                fractional = list(v)
                break
    else:
        from scipy.optimize import linprog

        dim, a_eq, b_eq, a_ub, b_ub = _lp_matrices(g, constraints)
        rng = np.random.default_rng(seed)
        for _ in range(num_objectives):
            c = rng.normal(size=dim)
            # dual simplex: on LPs of 7-9 variables, interior point with
            # crossover took 2.4-2.7 ms per solve against 1.9-2.2 ms for dual
            # simplex (2-core x86, scipy 1.17)
            res = linprog(
                c, A_ub=a_ub if len(a_ub) else None, b_ub=b_ub if len(b_ub) else None,
                A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, 1.0)] * dim, method="highs-ds",
            )
            if not res.success:
                continue
            if np.max(np.abs(res.x - np.round(res.x))) > _INTEGRALITY_TOL:
                fractional = res.x.tolist()
                break
    return {
        "points_valid": points_valid,
        "zero_one_exact": zero_one_exact,
        "integral": fractional is None,
        "fractional_vertex": fractional,
        "num_constraints": len(constraints),
        "num_vertices_enumerated": None if verts is None else len(verts),
    }
