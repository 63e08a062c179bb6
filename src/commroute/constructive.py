"""Constructive solvers for trees with all-to-all interactions.

Both constructions settle one token per round: the settling token walks the
tree (or rides a path shuffle), meeting every other token on the way, then
retires onto a leaf that is pruned from the working tree.
"""

from __future__ import annotations

from .graphs import Graph, complete_graph, spider_graph
from .solutions import SwapSolution, TmpInstance, TokenPlacement, validate_swap_solution

Edge = tuple[int, int]


def dfs_swap_solve(hardware: Graph) -> SwapSolution:
    """One-swap-per-step solution for a tree with every token pair interacting.

    Each round picks the token next to a leaf, walks it through every inner
    node of the working tree in DFS order and parks it on the last-visited
    leaf, which is then pruned. Costs at most (n-2)^2 swaps in total.
    """
    if not hardware.is_tree():
        raise ValueError("dfs_swap_solve needs a tree hardware graph")
    n = hardware.n
    if n < 2:
        raise ValueError("need at least 2 nodes")
    alive = [True] * n
    matchings: list[tuple[Edge, ...]] = []

    def alive_neighbors(x: int) -> list[int]:
        return [y for y in hardware.adjacency[x] if alive[y]]

    def tree_path(a: int, b: int) -> list[int]:
        # unique a->b path in the working tree, found by DFS
        parent = {a: -1}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                break
            for v in alive_neighbors(u):
                if v not in parent:
                    parent[v] = u
                    stack.append(v)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        return path[::-1]

    def walk(cur: int, target: int) -> int:
        for nxt in tree_path(cur, target)[1:]:
            matchings.append(((min(cur, nxt), max(cur, nxt)),))
            cur = nxt
        return cur

    for _ in range(n - 2):
        is_leaf = [alive[x] and len(alive_neighbors(x)) == 1 for x in range(n)]
        anchor = min(
            x for x in range(n)
            if alive[x] and any(is_leaf[y] for y in alive_neighbors(x))
        )
        start_leaf = min(y for y in alive_neighbors(anchor) if is_leaf[y])
        order: list[int] = []
        seen = {start_leaf}
        stack = [start_leaf]
        while stack:
            u = stack.pop()
            order.append(u)
            for v in sorted(alive_neighbors(u), reverse=True):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        cur = anchor
        for node in order[2:]:
            if len(alive_neighbors(node)) > 1:
                cur = walk(cur, node)
        final = order[-1]
        walk(cur, final)
        alive[final] = False

    return SwapSolution(TokenPlacement.identity(n), tuple(matchings))


def path_sequence(k: int) -> list[tuple[Edge, ...]]:
    """2k-3 matchings on the k-node path (nodes 0..k-1, 0 on top) such that,
    from any start, every token reaches node 0 at least once and the token
    starting on node 0 finishes on node k-1."""
    if k < 2:
        raise ValueError("need k >= 2")
    steps: list[tuple[Edge, ...]] = []
    for s in range(1, 2 * k - 2):
        lead = s if s <= k - 1 else 2 * k - 2 - s
        pairs = []
        j = lead
        while j >= 1:
            pairs.append((j - 1, j))
            j -= 2
        steps.append(tuple(sorted(pairs)))
    return steps


def qsst_solve(m: int) -> SwapSolution:
    """All-to-all solution on the m-arm spider tree (m*m + 1 nodes).

    Runs path shuffles on all arms in parallel, then swaps the root token
    onto the longest arm where it sinks to the bottom and retires; repeats
    until every token has had its turn at the root. O(m^3) steps total.
    The solution is validated against all-pairs gates before it is returned.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    g = spider_graph(m)
    n = g.n
    arms: list[list[int]] = [[j * m + 1 + k for k in range(m)] for j in range(m)]
    pending_sink = [False] * m
    matchings: list[tuple[Edge, ...]] = []

    while any(arms):
        seqs = {j: path_sequence(len(arm)) for j, arm in enumerate(arms) if len(arm) >= 2}
        for s in range(max((len(q) for q in seqs.values()), default=0)):
            step = []
            for j, seq in seqs.items():
                if s < len(seq):
                    arm = arms[j]
                    step.extend((arm[a], arm[b]) for a, b in seq[s])
            matchings.append(tuple(sorted(step)))
        for j in range(m):
            if pending_sink[j] and arms[j]:
                arms[j].pop()  # retired token reached the bottom node
                pending_sink[j] = False
        target = max((j for j in range(m) if arms[j]), key=lambda j: (len(arms[j]), -j), default=None)
        if target is None:
            break
        top = arms[target][0]
        matchings.append(((0, top),))
        if len(arms[target]) == 1:
            arms[target].clear()  # single-node arm: the token retires right here
        else:
            pending_sink[target] = True

    solution = SwapSolution(TokenPlacement.identity(n), tuple(matchings))
    check = validate_swap_solution(TmpInstance(g, complete_graph(n)), solution)
    if not check.valid:
        raise AssertionError(f"qsst construction produced an invalid solution: {check.problems}")
    return solution
