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
Hence ceil((gates - |M|) / swap_capacity) is an admissible A* heuristic,
and a consistent one: a step of k swaps lowers it by at most k. States
that cannot gain gates - |M| pairs in the remaining steps are pruned. The
state space is finite and dominance only drops states, so an infeasible
input ends with an exhausted frontier.

Partial expansion. A* expands a state one swap-count class at a time
(StepTables.classes, the matchings grouped by size in increasing order,
built once per hardware graph; at E(H), StepTables.roots, as the section
on symmetry below shows). A state that fails its goal test below
max_steps pushes, instead of its successors, one cursor keyed
g + max(k, h), k the size of its first class. Popping the cursor
generates that class's successors, one unit of work each, admits each
and pushes those below max_steps with their own f, then re-pushes the
cursor keyed by the next class's size; a cursor that would be the next
pop anyway, no heap entry smaller, generates its class at once instead
of being pushed. By consistency a successor through k swaps has
f' = g + k + h' >= g + max(k, h), so a cursor's key is at most the f of
every successor it has yet to generate, which is all that the arguments
above and below ask of a heap key. A class of k swaps whose successors
all miss more pairs than the remaining steps can add,
gates - |M| - k * swap_capacity > (max_steps - s - 1) * step_capacity,
would only be pruned: sizes increase, so such classes come first, and the
cursor starts past them without generating or charging them.

A successor at max_steps, a leaf, has no step left to gain a pair: one
with fewer pairs than gates is pruned, and every other has h' = 0 and,
since then h <= k, f' = g + k, the key of the cursor that generates it.
So a leaf is goal-tested as it is generated: its f is the smallest key on
the heap, so that is the test it would get if pushed, and having no
successors it needs nothing else; a hit is optimal. A dominated leaf is
skipped untested: the entry of its mask that dominates it has h = 0 too,
and was tested when generated or popped, or waits on the heap at that
same f. A cursor carries its state's (steps, swaps), and is skipped when
they have left the mask's list, by the argument for stale entries: the
displacing entry, with no more steps and no more swaps, reaches each of
the cursor's successor masks through its own cursors at no more swaps
and no more steps. A cursor generated at once needs no such check: its
state was popped or expanded just before, and a successor, one step
further on, never displaces it.

Symmetry at the first step. An automorphism pi of H is a node
permutation with pi(E(H)) = E(H); it maps a matching m to the matching
pi(m) of as many edges, and a mask M to pi(M), the images of its pairs.
Since sigma_pi(m) o pi = pi o sigma_m, a step with pi(m) from pi(M)
reaches pi(sigma_m(M) | E(H)): from pi(M), the sequence pi(m1) .. pi(mt)
reaches pi(M_s) at every step s, with the same steps and the same swaps.
pi is an isomorphism from ([n], M) onto ([n], pi(M)), so both masks have
as many pairs and the same goal answer. A state whose mask is E(H) is its
own image: from it, m1 .. mt and pi(m1) .. pi(mt) cost the same and meet
the goal at the same step, if at all. So the state whose mask is E(H)
expands StepTables.roots, one matching per orbit of a group of
automorphisms (the orbit's lowest index; any subgroup of Aut(H) will do,
it only merges fewer orbits), and every other state expands
StepTables.classes. Every sequence from E(H) has an image, at equal cost,
that starts with a root, and that image lies in the searched space: only
its first step was restricted. So the optimum, and every answer below,
is unchanged; where an argument has one state follow another's
continuation through E(H), it follows the continuation's image. The only
start RelativeFrameSearch gives the kernel is E(H), and no later state
has that mask at all: breadth-first has seen it, and A*'s start entry
(0, 0) dominates any return to it. In a budgeted run the lower bounds
hold for the same reason: every mask that the unreduced breadth-first
search reaches at depth d has an image that this one reaches at depth d
or less, with the same goal answer, and A* keeps an open state on an
optimal sequence that starts with a root.

Layer order. Breadth-first sorts each new layer by its masks' pair
counts, most first (stably), before expanding it. A layer is the set of
masks one step from the previous layer that no earlier layer holds,
whatever order the previous one was expanded in, so the depths and a
budgeted run's bound are those of any order; only which masks of a layer
are generated and tested before its first hit changes. Masks with more
pairs are the ones closest to holding the gate graph, so their
successors reach a goal mask sooner.

Budget. Both searches take an optional budget, a cap on their work: the
successors they generate plus the work the goal tests report. Work
is never time, so a budgeted run stops at the same point on every run.
A search that runs out returns a proven lower bound instead of the
optimum. Breadth-first, every layer before the one being generated has
been checked, so no solution has fewer steps than that layer's depth. In
A*, some open state lies on an optimal sequence, or has the same mask as
a state that does with no more steps and no more swaps, and so lies on a
sequence that is optimal too; or the cursor of a popped state on such a
sequence, at any depth, has yet to generate its next state. The state's
f = g + h is at most the optimum, because h is admissible and depends on
the mask alone, and the cursor's key is at most that next state's f; so
the key of the entry popped last, the smallest on the heap, is a lower
bound.
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
    """The E(H) mask `base`; per matching, the (shift, low mask) delta
    swaps `deltas` that apply sigma_m to a node-pair mask; `classes`, the
    matchings grouped by swap count, one (count, matching indices) per
    count in increasing order, the only order A* expands them in; and
    `roots`, the same classes restricted to the lowest matching index of
    each orbit under a group of hardware automorphisms, which the state
    whose mask is E(H) expands in their place. Built once per hardware
    graph and shared, read-only, by every search on it; a search over
    fewer classes replaces `classes` and `roots` alike."""

    base: int
    deltas: tuple[tuple[tuple[int, int], ...], ...]
    classes: tuple[tuple[int, tuple[int, ...]], ...]
    roots: tuple[tuple[int, tuple[int, ...]], ...]


def step_tables(n, matchings, hw_edges, pair_bit, orbit) -> StepTables:
    """The StepTables of the matchings, each a sequence of (u, v) edges
    drawn from the hardware edges hw_edges; pair_bit maps u * n + v to the
    bit of the node pair {u, v}, and orbit[mi] is the lowest matching
    index of matching mi's orbit under a group of automorphisms of the
    hardware (mi itself for every matching when the group is trivial)."""
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
    sizes = [len(m) for m in matchings]
    classes = tuple((k, tuple(mi for mi, size in enumerate(sizes) if size == k))
                    for k in sorted(set(sizes)))
    roots = tuple((k, tuple(mi for mi in members if orbit[mi] == mi)) for k, members in classes)
    return StepTables(base, deltas, classes, roots)


def replay(tables, path) -> int:
    """The mask M that the matchings path (indices into the tables) reach
    from E(H)."""
    base, steps = tables.base, tables.deltas
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
    base, steps = tables.base, tables.deltas
    # the mask E(H) expands one matching per orbit
    first = tuple(steps[mi] for _, members in tables.roots for mi in members)
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
            row = first if mask == base else steps
            if work + len(row) > budget:
                return Outcome(depth, False, work)
            work += len(row)
            for swaps in row:
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
        # most pairs first: the layer is the same in any order, and the
        # masks nearest the goal reach it soonest
        nxt.sort(key=int.bit_count, reverse=True)
        frontier = nxt
    return Outcome(-1, True, work)


def min_swaps_within(tables, starts, num_gates, reached, max_steps, swap_capacity,
                     step_capacity, budget=inf):
    """Fewest swaps over sequences of at most max_steps steps whose M holds
    the gate graph; -1 if none.

    swap_capacity bounds how many new pairs one swap can add to M and feeds
    an admissible A* heuristic; step_capacity does the same per step and
    prunes states that cannot finish in the remaining steps. The tables
    may hold any of the swap-count classes: over the one-swap class alone
    a step is one swap, and swap_capacity bounds it as well.
    """
    work = 0
    base, steps, classes, roots = tables
    pareto: dict[int, list[tuple[int, int]]] = {}

    def admit(mask: int, s: int, g: int) -> bool:
        entries = pareto.get(mask)
        if entries is None:
            pareto[mask] = [(s, g)]
            return True
        dominated = False
        for s2, g2 in entries:
            if s2 <= s and g2 <= g:
                return False
            dominated = dominated or (s <= s2 and g <= g2)
        if dominated:
            entries[:] = [(s2, g2) for s2, g2 in entries if not (s <= s2 and g <= g2)]
        entries.append((s, g))
        return True

    def reach(steps_left: float) -> float:
        # the most pairs steps_left steps can add; a capacity of 0 adds
        # none, and is tested first since inf * 0 is not a number
        return steps_left * step_capacity if swap_capacity > 0 and step_capacity > 0 else 0

    def heuristic(missing: int) -> int:
        return -(-missing // swap_capacity) if missing > 0 else 0

    # (f, g, s, counter, mask, link, class): a state when class is None, else
    # its cursor, keyed g + max(classes[class][0], h)
    heap: list[tuple[int, int, int, int, int, tuple | None, int | None]] = []
    counter = 0
    for mask in starts:
        missing = num_gates - mask.bit_count()
        if missing <= reach(max_steps) and admit(mask, 0, 0):
            heapq.heappush(heap, (heuristic(missing), 0, 0, counter, mask, None, None))
            counter += 1
    cursor = None
    while heap or cursor:
        if cursor is not None and not (heap and heap[0] < cursor):
            # the cursor pops next: its state was just popped or expanded,
            # and no successor displaces it, so it is not stale
            f, g, s, _, mask, link, ci = cursor
            cursor = None
        else:
            # the smallest entry, pushing the cursor in its place
            f, g, s, _, mask, link, ci = (heapq.heappop(heap) if cursor is None
                                          else heapq.heapreplace(heap, cursor))
            cursor = None
            if (s, g) not in pareto[mask]:
                continue  # stale: its dominating entry has popped already
        limit = reach(max_steps - s - 1)  # what a successor's steps left can add
        if ci is None:
            hit, spent = reached(mask, budget - work)
            work += spent
            if hit is None:
                return Outcome(f, False, work)
            if hit:
                return Outcome(g, True, work, _path(link))
            if s >= max_steps:
                continue
            # k swaps add at most k * swap_capacity pairs: the smaller
            # classes leave every successor more pairs than it can add
            ci, missing = 0, num_gates - mask.bit_count()
            while ci < len(classes) and missing - classes[ci][0] * swap_capacity > limit:
                ci += 1
        else:
            size, members = (roots if mask == base else classes)[ci]
            if work + len(members) > budget:
                return Outcome(f, False, work)
            work += len(members)
            g2, s2 = g + size, s + 1
            for mi in members:
                m2 = mask
                for d, low in steps[mi]:
                    t = ((m2 >> d) ^ m2) & low
                    m2 ^= t | t << d
                m2 |= base
                missing2 = num_gates - m2.bit_count()
                if missing2 > limit or not admit(m2, s2, g2):
                    continue
                if s2 < max_steps:
                    heapq.heappush(heap, (g2 + heuristic(missing2), g2, s2, counter, m2,
                                          (link, mi), None))
                    counter += 1
                    continue
                # a leaf's f = g2 is the key just popped: test it now
                hit, spent = reached(m2, budget - work)
                work += spent
                if hit is None:
                    return Outcome(f, False, work)
                if hit:
                    return Outcome(g2, True, work, _path((link, mi)))
            ci += 1
        if ci < len(classes):
            # g + max(size, h): f is g + h for a state, and g + max(a smaller
            # size, h) for a cursor
            cursor = (max(f, g + classes[ci][0]), g, s, counter, mask, link, ci)
            counter += 1
    return Outcome(-1, True, work)
