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

Witness. Each frontier or heap entry carries a link (parent link,
matching index), and a goal state returns the matching indices along its
links as Outcome.path. Replaying them from the identity placement
rebuilds the goal's U, and by the soundness argument any embedding of the
gate graph into ([n], U), dummies on the leftover labels, is a start
placement from which the sequence realizes every gate. The visited table
keeps no links.

One swap on hardware edge {i, j} makes at most swap_capacity label pairs
adjacent that were not adjacent before (bounds.max_gain_per_swap), and so
adds at most that many pairs to U; step_capacity bounds a whole step the
same way (bounds.max_gain_per_step). Hence ceil((gates - |U|) /
swap_capacity) is an admissible A* heuristic and states that cannot gain
gates - |U| pairs in the remaining steps are pruned. The state space is
finite and dominance only drops states, so an infeasible input ends with
an exhausted frontier.

Budget. Both searches take an optional budget, a cap on their work: the
successors they generate plus the work the embedding tests report. Work
is never time, so a budgeted run stops at the same point on every run.
A search that runs out returns a proven lower bound instead of the
optimum. Breadth-first, every layer before the one being generated has
been checked, so no solution has fewer steps than that layer's depth. In
A*, some open state lies on an optimal sequence or dominates a state that
does, and its f = g + h is at most the optimum because h is admissible
and a superset mask has fewer missing pairs; so the smallest f on the
heap, the f of the state about to be expanded, is a lower bound.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import NamedTuple


class Outcome(NamedTuple):
    """A search's answer: the optimum, or -1 when none exists; when the
    budget ran out first (exact False), a proven lower bound instead. path
    holds the matching indices from the start to the goal state reached."""

    value: int
    exact: bool
    work: int  # successors generated plus embedding-test work
    path: tuple[int, ...] = ()


def _path(link) -> tuple[int, ...]:
    """Matching indices along a chain of (parent link, matching index) links."""
    out = []
    while link is not None:
        link, mi = link
        out.append(mi)
    return tuple(reversed(out))


def _coverage(tok_at, hw_edges, pair_bit, n: int) -> int:
    mask = 0
    for k in range(0, len(hw_edges), 2):
        mask |= 1 << pair_bit[tok_at[hw_edges[k]] * n + tok_at[hw_edges[k + 1]]]
    return mask


def _goal_test(num_gates: int, embeds):
    """The memoised test "the gate graph embeds into U" for a pair mask U.

    reached(mask, limit) returns (answer, work): answer is None when the
    embedding test gave up after `limit` units of work, and work is what
    the call spent (0 on a memo hit or a mask too small to hold the gates).
    """
    memo: dict[int, bool] = {}

    def reached(mask: int, limit: float) -> tuple[bool | None, int]:
        if mask.bit_count() < num_gates:
            return False, 0
        hit = memo.get(mask)
        if hit is not None:
            return hit, 0
        hit, work = embeds(mask, limit)
        if hit is not None:
            memo[mask] = hit
        return hit, work

    return reached


def _push_mask(masks: list[int], c: int) -> bool:
    """Add c to an antichain of bitmasks; False if something already covers it."""
    for m in masks:
        if m & c == c:
            return False
    masks[:] = [m for m in masks if m & c != m]
    masks.append(c)
    return True


def min_steps(n, starts, matchings, hw_edges, pair_bit, num_gates, embeds, budget=inf):
    """Fewest swap steps until the gate graph embeds into U.

    The value is -1 when the search space is exhausted without reaching the
    goal. No depth limit is needed: every admitted state enlarges the
    down-closed set of masks kept for its placement, which can happen only
    finitely often.
    """
    work = 0
    reached = _goal_test(num_gates, embeds)
    visited: dict[tuple[int, ...], list[int]] = {}
    frontier: list[tuple[list[int], int, tuple | None]] = []
    for s in starts:
        tok = list(s)
        c = _coverage(tok, hw_edges, pair_bit, n)
        hit, spent = reached(c, budget - work)
        work += spent
        if hit is None:
            return Outcome(0, False, work)
        if hit:
            return Outcome(0, True, work)
        if _push_mask(visited.setdefault(tuple(s), []), c):
            frontier.append((tok, c, None))
    depth = 0
    while frontier:
        depth += 1
        nxt: list[tuple[list[int], int, tuple | None]] = []
        for tok, cov, link in frontier:
            if work + len(matchings) > budget:
                return Outcome(depth, False, work)
            work += len(matchings)
            for mi, m in enumerate(matchings):
                t2 = tok.copy()
                for k in range(0, len(m), 2):
                    u, v = m[k], m[k + 1]
                    t2[u], t2[v] = t2[v], t2[u]
                c2 = cov | _coverage(t2, hw_edges, pair_bit, n)
                # an unchanged U already failed the test at its parent
                if c2 != cov:
                    hit, spent = reached(c2, budget - work)
                    work += spent
                    if hit is None:
                        return Outcome(depth, False, work)
                    if hit:
                        return Outcome(depth, True, work, _path((link, mi)))
                if _push_mask(visited.setdefault(tuple(t2), []), c2):
                    nxt.append((t2, c2, (link, mi)))
        frontier = nxt
    return Outcome(-1, True, work)


def min_swaps_within(n, starts, matchings, hw_edges, pair_bit, num_gates, embeds,
                     max_steps, swap_capacity, step_capacity, budget=inf, max_swaps=inf):
    """Fewest swaps over sequences of at most max_steps steps (and at most
    max_swaps swaps) whose U holds the gate graph; -1 if none.

    swap_capacity bounds how many new pairs one swap can add to U and feeds
    an admissible A* heuristic; step_capacity does the same per step and
    prunes states that cannot finish in the remaining steps.
    """
    work = 0
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

    heap: list[tuple[int, int, int, int, tuple[int, ...], int, tuple | None]] = []
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
            heapq.heappush(heap, (h, 0, 0, counter, key, cov, None))
            counter += 1
    while heap:
        f, g, steps, _, tok, cov, link = heapq.heappop(heap)
        if f > max_swaps:
            break
        hit, spent = reached(cov, budget - work)
        work += spent
        if hit is None:
            return Outcome(f, False, work)
        if hit:
            return Outcome(g, True, work, _path(link))
        if steps >= max_steps:
            continue
        if work + len(matchings) > budget:
            return Outcome(f, False, work)
        work += len(matchings)
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
                heapq.heappush(heap, (g2 + h, g2, s2, counter, key, c2, (link, mi)))
                counter += 1
    return Outcome(-1, True, work)
