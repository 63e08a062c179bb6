"""Shared enumeration helpers and brute-force comparators."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from commroute.graphs import Graph
from commroute.scheduler import compute_windows


# ---------------------------------------------------------------------------
# graph enumeration

def tree_from_pruefer(seq: tuple[int, ...]) -> Graph:
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    for v in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [i for i in range(n) if degree[i] == 1]
    edges.append((u, w))
    return Graph(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    return tree_from_pruefer(tuple(rng.randrange(n) for _ in range(n - 2)))


def _canonical(g: Graph) -> frozenset:
    """Smallest edge set over all relabelings; fine for n <= 7."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        relabeled = frozenset(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges
        )
        key = tuple(sorted(relabeled))
        if best is None or key < best[0]:
            best = (key, relabeled)
    return best[1]


def _ahu_form(g: Graph, root: int, parent: int) -> tuple:
    children = sorted(
        _ahu_form(g, c, root) for c in g.neighbors(root) if c != parent
    )
    return tuple(children)


def tree_canonical(g: Graph) -> tuple:
    """Isomorphism-invariant form: AHU encoding rooted at the center(s)."""
    # peel leaves to find the center
    degree = {i: g.degree(i) for i in range(g.n)}
    layer = [i for i in range(g.n) if degree[i] <= 1]
    remaining = g.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for leaf in layer:
            degree[leaf] = 0
            for nb in g.neighbors(leaf):
                if degree[nb] > 1:
                    degree[nb] -= 1
                    if degree[nb] == 1:
                        nxt.append(nb)
        layer = nxt
    return min(_ahu_form(g, c, -1) for c in layer)


def all_trees(n: int) -> list[Graph]:
    """Every tree on n nodes, one per isomorphism class."""
    if n == 1:
        return [Graph(1, [])]
    if n == 2:
        return [Graph(2, [(0, 1)])]
    seen = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        t = tree_from_pruefer(seq)
        seen.setdefault(tree_canonical(t), t)
    return list(seen.values())


def connected_graphs(n: int) -> list[Graph]:
    """Every connected graph on n nodes, one per isomorphism class."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = {}
    for r in range(n - 1, len(pairs) + 1):
        for combo in itertools.combinations(pairs, r):
            g = Graph(n, combo)
            if g.is_connected():
                seen.setdefault(_canonical(g), g)
    return list(seen.values())


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        m = rng.randint(n - 1, len(pairs))
        g = Graph(n, rng.sample(pairs, m))
        if g.is_connected():
            return g


# ---------------------------------------------------------------------------
# scheduling brute force

def brute_min_depth(inst, sol) -> int | None:
    """Minimal depth over all gate-to-layer assignments, by enumeration.

    Layers are the swap layers plus up to budget[t] empty layers before
    step t; a layer may not touch a token twice. None when some gate has
    no usable slot.
    """
    ctx = compute_windows(inst, sol)
    if ctx.unschedulable:
        return None
    k = ctx.num_steps
    slot_lists = []
    for gi in sorted(ctx.windows):
        w = ctx.windows[gi]
        slots = [(t, 0) for t in w.swap_layer_steps]
        slots += [(t, b) for t in w.empty_layer_steps
                  for b in range(1, ctx.budgets[t - 1] + 1)]
        slot_lists.append(slots)
    gates = ctx.gates
    best = None
    for combo in itertools.product(*slot_lists):
        used: dict[tuple[int, int], set[int]] = {}
        ok = True
        for gi, slot in enumerate(combo):
            p, q = gates[gi]
            seen = used.setdefault(slot, set())
            if p in seen or q in seen:
                ok = False
                break
            seen.update((p, q))
        if not ok:
            continue
        extra = len({s for s in combo if s[1] >= 1})
        if best is None or extra < best:
            best = extra
    return None if best is None else k + best


# ---------------------------------------------------------------------------
# independent solves in worker processes

def parallel_map(fn, *iterables) -> list:
    """list(map(fn, *iterables)), spread over up to two worker processes.

    For sweeps of independent, single-threaded solver runs. Workers are
    spawned rather than forked, so they never inherit the solver threads
    the test process already holds; fn and its arguments must pickle.
    """
    workers = min(2, len(os.sched_getaffinity(0)))
    if workers < 2:
        return list(map(fn, *iterables))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, *iterables))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
