"""Search kernel behind the exhaustive oracle.

A state is (tok_at, mask):
 - tok_at is a placement, the token sitting on each node, kept as a tuple
   so it serves directly as the key of the visited table
 - mask is a bitmask over connection indices, the union of the
   connections realized by every placement visited so far

Tuple keys are equal exactly when placements are, so no two placements
share a visited entry at any node count.
"""

from __future__ import annotations

import heapq


def _coverage(tok_at, hw_edges, conn_bit, n: int) -> int:
    mask = 0
    for k in range(0, len(hw_edges), 2):
        b = conn_bit[tok_at[hw_edges[k]] * n + tok_at[hw_edges[k + 1]]]
        if b >= 0:
            mask |= 1 << b
    return mask


def _push_mask(masks: list[int], c: int) -> bool:
    """Add c to an antichain of bitmasks; False if something already covers it."""
    for m in masks:
        if m & c == c:
            return False
    masks[:] = [m for m in masks if m & c != m]
    masks.append(c)
    return True


def min_steps(n, starts, matchings, hw_edges, conn_bit, full_mask, max_depth):
    """Fewest swap steps until every connection was realized at least once.

    Returns -1 when the search space is exhausted (or max_depth exceeded)
    without reaching full coverage.
    """
    visited: dict[tuple[int, ...], list[int]] = {}
    frontier: list[tuple[list[int], int]] = []
    for s in starts:
        tok = list(s)
        c = _coverage(tok, hw_edges, conn_bit, n)
        if c == full_mask:
            return 0
        if _push_mask(visited.setdefault(tuple(s), []), c):
            frontier.append((tok, c))
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        nxt: list[tuple[list[int], int]] = []
        for tok, cov in frontier:
            for m in matchings:
                t2 = tok.copy()
                for k in range(0, len(m), 2):
                    u, v = m[k], m[k + 1]
                    t2[u], t2[v] = t2[v], t2[u]
                c2 = cov | _coverage(t2, hw_edges, conn_bit, n)
                if c2 == full_mask:
                    return depth
                if _push_mask(visited.setdefault(tuple(t2), []), c2):
                    nxt.append((t2, c2))
        frontier = nxt
    return -1


def min_swaps_within(n, starts, matchings, hw_edges, conn_bit, full_mask,
                     max_steps, swap_capacity, step_capacity):
    """Fewest swaps over solutions with at most max_steps steps; -1 if none.

    swap_capacity bounds how many new connections one swap can realize and
    feeds an admissible A* heuristic; step_capacity does the same per step
    and prunes states that cannot finish in the remaining budget.
    """
    sizes = [len(m) // 2 for m in matchings]
    visited: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}

    def admit(key: tuple[int, ...], cov: int, steps: int, g: int) -> bool:
        entries = visited.setdefault(key, [])
        for c2, s2, g2 in entries:
            if c2 & cov == cov and s2 <= steps and g2 <= g:
                return False
        entries[:] = [
            (c2, s2, g2) for c2, s2, g2 in entries
            if not (cov & c2 == c2 and steps <= s2 and g <= g2)
        ]
        entries.append((cov, steps, g))
        return True

    def heuristic(uncov: int) -> int:
        if uncov == 0:
            return 0
        if swap_capacity <= 0:
            return -1  # unreachable
        return -(-uncov.bit_count() // swap_capacity)

    heap: list[tuple[int, int, int, int, tuple[int, ...], int]] = []
    counter = 0
    for s in starts:
        cov = _coverage(s, hw_edges, conn_bit, n)
        uncov = full_mask & ~cov
        h = heuristic(uncov)
        if h < 0:
            continue
        if uncov and step_capacity > 0 and uncov.bit_count() > max_steps * step_capacity:
            continue
        key = tuple(s)
        if admit(key, cov, 0, 0):
            heapq.heappush(heap, (h, 0, 0, counter, key, cov))
            counter += 1
    while heap:
        f, g, steps, _, tok, cov = heapq.heappop(heap)
        if cov == full_mask:
            return g
        if steps >= max_steps:
            continue
        for mi, m in enumerate(matchings):
            t2 = list(tok)
            for k in range(0, len(m), 2):
                u, v = m[k], m[k + 1]
                t2[u], t2[v] = t2[v], t2[u]
            c2 = cov | _coverage(t2, hw_edges, conn_bit, n)
            g2 = g + sizes[mi]
            s2 = steps + 1
            uncov = full_mask & ~c2
            h = heuristic(uncov)
            if h < 0:
                continue
            if uncov and step_capacity > 0 and uncov.bit_count() > (max_steps - s2) * step_capacity:
                continue
            key = tuple(t2)
            if admit(key, c2, s2, g2):
                heapq.heappush(heap, (g2 + h, g2, s2, counter, key, c2))
                counter += 1
    return -1
