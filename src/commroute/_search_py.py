"""Search kernel behind the exhaustive oracle: one search in the node frame.

Name each token by the node it starts on, its label. A swap step exchanges
the tokens on its matched node pairs whatever those tokens are, so a
sequence of matchings m1 .. mt moves the labels the same way for every
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

The node frame. The search keeps neither L_s nor U but U seen from the
nodes: M = L_s^-1(U) = {{i, j} : the labels now on nodes i and j have
met}. At the start the labels on the ends of each hardware edge have met,
so M_0 = E(H). A step with matching m moves the label on node i to
sigma_m(i), where sigma_m swaps the two ends of each matched edge, and then
the labels on the ends of each hardware edge meet:
M' = sigma_m(M) | E(H). So M' depends on M and m alone, not on L. The goal
test depends on M alone too: L_s is a bijection, so it is an isomorphism
from ([n], M) onto ([n], U), the gate graph embeds into one exactly when
it embeds into the other, and |M| = |U|. Every state (L, U) with the same
L^-1(U) therefore has the same successors, step for step, and the same
goal answers, and M is the whole state. Each M contains E(H), so there are
finitely many.

M is a bitmask over the n(n-1)/2 node pairs; pair_bit maps i * n + j to
the bit of {i, j}. Swapping nodes u and v exchanges the bits of {u, x} and
{v, x} for every other node x and keeps every other bit. The exchanges of
one edge that move bits the same distance d apart form one delta swap,
t = ((M >> d) ^ M) & low; M ^= t | (t << d), with low marking the lower
bit of each exchanged pair: the 2(n - 2) bits involved are distinct, so
no bit is both a low and a high one. Counting pairs in lexicographic
order, the nodes below u share one distance and the nodes above v
another, so an edge needs at most v - u + 1 delta swaps. A matching
applies those of its edges one edge after another.

The goal test is the caller's: reached(mask, limit) returns (answer,
work), answer telling whether the gate graph embeds into M, or None when
deciding that would take `limit` or more units of work. The kernel adds
nothing to it, so one test, with whatever it remembers, serves every
search on an instance. Breadth-first keeps the set of masks it has seen.
A* keeps per mask the Pareto list of (steps, swaps) it has admitted and
drops a state when an entry of the same mask has no more steps and no
more swaps: that entry can follow whatever continuation the dropped state
has, at no more cost. A heap entry whose (steps, swaps) has since left its
mask's list is skipped when popped, before the goal test: the entry that
displaced it has the same h, since h depends on the mask alone, and no
larger (f, g, s), so it popped first: it made the same goal test, and its
expansion reaches every mask the stale one would, at no more cost.

Witness. Each A* heap entry carries a link (parent link, matching index),
and a goal state returns the matching indices along its links as
Outcome.path. Replaying them from the identity placement rebuilds the
goal's M and L_t, and U = L_t(M); so an embedding of the gate graph into
([n], M), composed with L_t, embeds it into ([n], U), and by the
soundness argument that, dummies on the leftover labels, is a start
placement from which the sequence realizes every gate (`replay` rebuilds
M). The Pareto lists keep no links, and breadth-first, which answers mt
alone, keeps none at all.

One swap on hardware edge {i, j} makes at most swap_capacity label pairs
adjacent that were not adjacent before (bounds.max_gain_per_swap), and so
adds at most that many pairs to U, and to M, which has as many pairs;
step_capacity bounds a whole step the same way (bounds.max_gain_per_step).
Hence ceil((gates - |M|) / swap_capacity) is an admissible A* heuristic
and states that cannot gain gates - |M| pairs in the remaining steps are
pruned. The state space is finite and dominance only drops states, so an
infeasible input ends with an exhausted frontier.

Budget. Both searches take an optional budget, a cap on their work: the
successors they generate plus the work the goal tests report. Work
is never time, so a budgeted run stops at the same point on every run.
A search that runs out returns a proven lower bound instead of the
optimum. Breadth-first, every layer before the one being generated has
been checked, so no solution has fewer steps than that layer's depth. In
A*, some open state lies on an optimal sequence, or has the same mask as
a state that does with no more steps and no more swaps, and so lies on a
sequence that is optimal too. Its f = g + h is at most the optimum,
because h is admissible and depends on the mask alone; so the smallest f
on the heap, the f of the state about to be expanded, is a lower bound.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import NamedTuple


class Outcome(NamedTuple):
    """A search's answer: the optimum, or -1 when none exists; when the
    budget ran out first (exact False), a proven lower bound instead. For
    A*, path holds the matching indices from the start to the goal state
    reached; breadth-first leaves it empty."""

    value: int
    exact: bool
    work: int  # successors generated plus goal-test work
    path: tuple[int, ...] = ()


def _path(link) -> tuple[int, ...]:
    """Matching indices along a chain of (parent link, matching index) links."""
    out = []
    while link is not None:
        link, mi = link
        out.append(mi)
    return tuple(reversed(out))


class StepTables(NamedTuple):
    """The E(H) mask `base` and, per matching, the (shift, low mask) delta
    swaps `deltas` that apply sigma_m to a node-pair mask and its swap
    count `sizes`. Built once per hardware graph and shared, read-only, by
    every search on it."""

    base: int
    deltas: tuple[tuple[tuple[int, int], ...], ...]
    sizes: tuple[int, ...]


def step_tables(n, matchings, hw_edges, pair_bit) -> StepTables:
    """The StepTables of the matchings, each a sequence of (u, v) edges
    drawn from the hardware edges hw_edges; pair_bit maps u * n + v to the
    bit of the node pair {u, v}."""
    base = 0
    per_edge: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for u, v in hw_edges:
        base |= 1 << pair_bit[u * n + v]
        low: dict[int, int] = {}
        for x in range(n):
            if x != u and x != v:
                a, b = sorted((pair_bit[u * n + x], pair_bit[v * n + x]))
                low[b - a] = low.get(b - a, 0) | 1 << a
        per_edge[u, v] = tuple(low.items())
    deltas = tuple(tuple(d for e in m for d in per_edge[e]) for m in matchings)
    return StepTables(base, deltas, tuple(len(m) for m in matchings))


def replay(tables, path) -> int:
    """The mask M that the matchings path (indices into the tables) reach
    from E(H)."""
    base, steps, _ = tables
    mask = base
    for mi in path:
        for d, low in steps[mi]:
            t = ((mask >> d) ^ mask) & low
            mask ^= t | t << d
        mask |= base
    return mask


def min_steps(tables, starts, reached, budget=inf):
    """Fewest swap steps from the start masks until the gate graph embeds
    into M; -1 when the search space is exhausted without reaching the goal.
    No depth limit is needed: each mask is admitted once, and there are
    finitely many.
    """
    work = 0
    base, steps, _ = tables
    seen: set[int] = set()
    frontier: list[int] = []
    for mask in starts:
        hit, spent = reached(mask, budget - work)
        work += spent
        if hit is None:
            return Outcome(0, False, work)
        if hit:
            return Outcome(0, True, work)
        if mask not in seen:
            seen.add(mask)
            frontier.append(mask)
    depth = 0
    while frontier:
        depth += 1
        nxt: list[int] = []
        for mask in frontier:
            if work + len(steps) > budget:
                return Outcome(depth, False, work)
            work += len(steps)
            for swaps in steps:
                m2 = mask
                for d, low in swaps:
                    t = ((m2 >> d) ^ m2) & low
                    m2 ^= t | t << d
                m2 |= base
                # every seen mask already failed the test
                if m2 in seen:
                    continue
                seen.add(m2)
                hit, spent = reached(m2, budget - work)
                work += spent
                if hit is None:
                    return Outcome(depth, False, work)
                if hit:
                    return Outcome(depth, True, work)
                nxt.append(m2)
        frontier = nxt
    return Outcome(-1, True, work)


def min_swaps_within(tables, starts, num_gates, reached, max_steps, swap_capacity,
                     step_capacity, budget=inf):
    """Fewest swaps over sequences of at most max_steps steps whose M holds
    the gate graph; -1 if none.

    swap_capacity bounds how many new pairs one swap can add to M and feeds
    an admissible A* heuristic; step_capacity does the same per step and
    prunes states that cannot finish in the remaining steps. The tables
    may hold any of the matchings: over the one-edge ones a step is one
    swap, and swap_capacity bounds it as well.
    """
    work = 0
    base, steps, sizes = tables
    pareto: dict[int, list[tuple[int, int]]] = {}

    def admit(mask: int, s: int, g: int) -> bool:
        entries = pareto.setdefault(mask, [])
        for s2, g2 in entries:
            if s2 <= s and g2 <= g:
                return False
        entries[:] = [(s2, g2) for s2, g2 in entries if not (s <= s2 and g <= g2)]
        entries.append((s, g))
        return True

    def heuristic(missing: int) -> int:
        if missing <= 0:
            return 0
        if swap_capacity <= 0:
            return -1  # unreachable
        return -(-missing // swap_capacity)

    heap: list[tuple[int, int, int, int, int, tuple | None]] = []
    counter = 0
    for mask in starts:
        missing = num_gates - mask.bit_count()
        h = heuristic(missing)
        if h < 0:
            continue
        if missing > 0 and step_capacity > 0 and missing > max_steps * step_capacity:
            continue
        if admit(mask, 0, 0):
            heapq.heappush(heap, (h, 0, 0, counter, mask, None))
            counter += 1
    while heap:
        f, g, s, _, mask, link = heapq.heappop(heap)
        if (s, g) not in pareto[mask]:
            continue  # stale: its dominating entry has popped already
        hit, spent = reached(mask, budget - work)
        work += spent
        if hit is None:
            return Outcome(f, False, work)
        if hit:
            return Outcome(g, True, work, _path(link))
        if s >= max_steps:
            continue
        if work + len(steps) > budget:
            return Outcome(f, False, work)
        work += len(steps)
        s2 = s + 1
        for mi, swaps in enumerate(steps):
            m2 = mask
            for d, low in swaps:
                t = ((m2 >> d) ^ m2) & low
                m2 ^= t | t << d
            m2 |= base
            missing = num_gates - m2.bit_count()
            h = heuristic(missing)
            if h < 0:
                continue
            if missing > 0 and step_capacity > 0 and missing > (max_steps - s2) * step_capacity:
                continue
            g2 = g + sizes[mi]
            if admit(m2, s2, g2):
                heapq.heappush(heap, (g2 + h, g2, s2, counter, m2, (link, mi)))
                counter += 1
    return Outcome(-1, True, work)
