"""Search kernel behind the exhaustive oracle: one relative-frame search.

Name each token by the node it starts on, its label. A swap step exchanges
the tokens on its matched node pairs whatever those tokens are, so a
sequence of matchings M1 .. Mt moves the labels the same way for every
start placement: after step s the labels sit in a placement L_s that
depends on the matchings alone, with L_0 the identity. Let U be the set of
label pairs {a, b} that sit on the two ends of some hardware edge in some
L_s, s = 0 .. t.

Soundness. Fix a start placement pi; the token of gate qubit q carries the
label pi(q) for the whole sequence. Gate {p, q} is realized at step s
exactly when the labels pi(p) and pi(q) are adjacent in L_s. So the
sequence realizes every gate from pi exactly when pi maps every gate into
U, that is, when pi embeds the gate graph into the label graph
([n], U) as a subgraph (injective and edge-preserving, not necessarily
induced). Steps and swaps do not depend on pi, so the fewest steps (or
swaps) over all starts and sequences equal the fewest over sequences whose
U admits such an embedding, and one search from the identity placement
decides every start at once.

Padded tokens. When the gate graph has k < n qubits, the n - k dummy
tokens carry no gate. A start placement is then any injective map of the
k qubits to nodes, with the dummies on the rest, and an embedding of the
k-node gate graph into ([n], U) is exactly such a map: the leftover labels
are the dummies. Labels on different components of a disconnected
hardware graph never meet, which U records like any other absent pair.

A state is (tok_at, mask):
 - tok_at is the label placement, the label sitting on each node, kept as
   a tuple so it serves directly as the key of the visited table
 - mask is U, a bitmask over the n(n-1)/2 label pairs; pair_bit maps
   a * n + b to the bit of {a, b}

The goal test, "the gate graph embeds into U", is monotone in U: a larger
U keeps every embedding. So a state is dropped when another state at the
same placement has a superset mask and no more steps (and swaps): the
antichain dominance below. A U with fewer pairs than there are gates
cannot hold the gate graph and is rejected without the embedding check;
the check itself is memoised per U.

One swap on hardware edge {i, j} makes at most swap_capacity label pairs
adjacent that were not adjacent before (bounds.max_gain_per_swap), and so
adds at most that many pairs to U; step_capacity bounds a whole step the
same way (bounds.max_gain_per_step). Hence ceil((gates - |U|) /
swap_capacity) is an admissible A* heuristic and states that cannot gain
gates - |U| pairs in the remaining steps are pruned. The state space is
finite and dominance only drops states, so an infeasible input ends with
an exhausted frontier.
"""

from __future__ import annotations

import heapq


def _coverage(tok_at, hw_edges, pair_bit, n: int) -> int:
    mask = 0
    for k in range(0, len(hw_edges), 2):
        mask |= 1 << pair_bit[tok_at[hw_edges[k]] * n + tok_at[hw_edges[k + 1]]]
    return mask


def _goal_test(num_gates: int, embeds):
    """The memoised test "the gate graph embeds into U" for a pair mask U."""
    memo: dict[int, bool] = {}

    def reached(mask: int) -> bool:
        if mask.bit_count() < num_gates:
            return False
        hit = memo.get(mask)
        if hit is None:
            hit = memo[mask] = embeds(mask)
        return hit

    return reached


def _push_mask(masks: list[int], c: int) -> bool:
    """Add c to an antichain of bitmasks; False if something already covers it."""
    for m in masks:
        if m & c == c:
            return False
    masks[:] = [m for m in masks if m & c != m]
    masks.append(c)
    return True


def min_steps(n, starts, matchings, hw_edges, pair_bit, num_gates, embeds, max_depth):
    """Fewest swap steps until the gate graph embeds into U.

    Returns -1 when the search space is exhausted (or max_depth exceeded)
    without reaching the goal.
    """
    reached = _goal_test(num_gates, embeds)
    visited: dict[tuple[int, ...], list[int]] = {}
    frontier: list[tuple[list[int], int]] = []
    for s in starts:
        tok = list(s)
        c = _coverage(tok, hw_edges, pair_bit, n)
        if reached(c):
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
                c2 = cov | _coverage(t2, hw_edges, pair_bit, n)
                # an unchanged U already failed the test at its parent
                if c2 != cov and reached(c2):
                    return depth
                if _push_mask(visited.setdefault(tuple(t2), []), c2):
                    nxt.append((t2, c2))
        frontier = nxt
    return -1


def min_swaps_within(n, starts, matchings, hw_edges, pair_bit, num_gates, embeds,
                     max_steps, swap_capacity, step_capacity):
    """Fewest swaps over sequences of at most max_steps steps whose U holds
    the gate graph; -1 if none.

    swap_capacity bounds how many new pairs one swap can add to U and feeds
    an admissible A* heuristic; step_capacity does the same per step and
    prunes states that cannot finish in the remaining budget.
    """
    reached = _goal_test(num_gates, embeds)
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

    def heuristic(missing: int) -> int:
        if missing <= 0:
            return 0
        if swap_capacity <= 0:
            return -1  # unreachable
        return -(-missing // swap_capacity)

    heap: list[tuple[int, int, int, int, tuple[int, ...], int]] = []
    counter = 0
    for s in starts:
        cov = _coverage(s, hw_edges, pair_bit, n)
        missing = num_gates - cov.bit_count()
        h = heuristic(missing)
        if h < 0:
            continue
        if missing > 0 and step_capacity > 0 and missing > max_steps * step_capacity:
            continue
        key = tuple(s)
        if admit(key, cov, 0, 0):
            heapq.heappush(heap, (h, 0, 0, counter, key, cov))
            counter += 1
    while heap:
        f, g, steps, _, tok, cov = heapq.heappop(heap)
        if reached(cov):
            return g
        if steps >= max_steps:
            continue
        for mi, m in enumerate(matchings):
            t2 = list(tok)
            for k in range(0, len(m), 2):
                u, v = m[k], m[k + 1]
                t2[u], t2[v] = t2[v], t2[u]
            c2 = cov | _coverage(t2, hw_edges, pair_bit, n)
            g2 = g + sizes[mi]
            s2 = steps + 1
            missing = num_gates - c2.bit_count()
            h = heuristic(missing)
            if h < 0:
                continue
            if missing > 0 and step_capacity > 0 and missing > (max_steps - s2) * step_capacity:
                continue
            key = tuple(t2)
            if admit(key, c2, s2, g2):
                heapq.heappush(heap, (g2 + h, g2, s2, counter, key, c2))
                counter += 1
    return -1
