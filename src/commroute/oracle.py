"""Exhaustive reference solvers for small instances.

Ground truth the optimization models are tested against. Exact but
exponential: instances above the node limit are refused outright.

`RelativeFrameSearch` prepares the instance tables and the goal test
and runs the searches, optionally under a work budget, which is how the
pipeline uses it; it also turns an A* goal state into a witness
`SwapSolution`, from the embedding the goal test found there. The search
itself runs once, in the kernel module _search_py, over graphs on the
hardware nodes: a state is the set of node pairs whose tokens have met,
which starts as the hardware edges. The kernel's docstring proves why
that one search covers every start placement and why the labels the
tokens carry need not be part of the state. The kernel functions are
looked up on that module at every call, so a wrapper installed on
_search_py (a profiler or tracer) sees every search.

What depends on the hardware alone is built once per hardware `Graph`
and kept in a weak-key table (`_hardware_tables`): its matchings, the ends
of each node-pair bit, the delta-swap step tables, the one-edge matchings'
share of them and the two gain bounds. The oracle's three queries on one
instance, and every later search on that device, share them. An entry
lives as long as the caller's graph (or an equal one that was first), and
holds no reference to it. Only complete matching enumerations are kept,
and a search charges the same work whether it finds its tables there or
builds them, so a budgeted answer repeats to the unit.
"""

from __future__ import annotations

import weakref
from itertools import islice
from math import inf
from typing import NamedTuple

from . import _search_py
from ._search_py import Outcome, StepTables
from .bounds import (
    InfeasibleInstanceError,
    cheaper_swap_floor,
    max_gain_per_step,
    max_gain_per_swap,
)
from .graphs import Graph, iter_matchings
from .graphs import automorphisms  # noqa: F401  (perfbench/tracing.py wraps this name)
from .solutions import (
    Matching,
    SwapSolution,
    TmpInstance,
    TokenPlacement,
    embed_masks,
    embedding_order,
)
from .solutions import is_subgraph_placement  # noqa: F401  (perfbench/tracing.py wraps this name)

DEFAULT_NODE_LIMIT = 7


class SizeLimitError(ValueError):
    pass


def _check_size(inst: TmpInstance, node_limit: int) -> None:
    if inst.num_nodes > node_limit:
        raise SizeLimitError(
            f"instance has {inst.num_nodes} nodes, oracle limit is {node_limit}; "
            "raise node_limit explicitly if you accept the blowup"
        )


class HardwareTables(NamedTuple):
    """What the searches need of one hardware graph, all of it read-only:
    every nonempty matching, the node-pair ends (a, 1 << b, b, 1 << a) of
    each pair bit, the StepTables of the matchings, the indices of the
    one-edge matchings and their StepTables, and the two gain bounds."""

    matchings: tuple[Matching, ...]
    ends: tuple[tuple[int, int, int, int], ...]
    steps: StepTables
    singles: tuple[int, ...]
    single_steps: StepTables
    swap_gain: int
    step_gain: int


# hardware Graph -> its HardwareTables, for as long as the Graph lives
_hardware_tables: weakref.WeakKeyDictionary[Graph, HardwareTables] = weakref.WeakKeyDictionary()


def _build_tables(hw: Graph, matchings: tuple[Matching, ...]) -> HardwareTables:
    """The HardwareTables of hw from the complete list of its nonempty
    matchings. Nothing in them refers to hw, so they do not keep it alive."""
    n = hw.n
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pair_bit = [0] * (n * n)
    for bit, (a, b) in enumerate(pairs):
        pair_bit[a * n + b] = bit
        pair_bit[b * n + a] = bit
    steps = _search_py.step_tables(n, matchings, hw.edges, pair_bit)
    singles = tuple(mi for mi, m in enumerate(matchings) if len(m) == 1)
    single_steps = steps._replace(
        deltas=tuple(steps.deltas[mi] for mi in singles), sizes=(1,) * len(singles))
    return HardwareTables(
        matchings, tuple((a, 1 << b, b, 1 << a) for a, b in pairs), steps, singles,
        single_steps, max_gain_per_swap(hw), max_gain_per_step(hw),
    )


class RelativeFrameSearch:
    """The kernel's two searches on one instance, under one work budget.

    A state is the set of node pairs whose tokens have met, a bitmask
    starting at the hardware edges; a step permutes it by the matching and
    adds the hardware edges again. `min_steps` and `min_swaps_within`
    branch on every hardware matching; `cheaper_swaps` branches on the
    one-edge matchings only, one swap per step, which the serialization
    lemma (`cheaper_swap_floor`) shows loses no swap optimum. An A* goal
    state's path of matching indices replays into the label frame for
    `witness`.

    The search owns the goal test, "the gate graph embeds into the mask",
    and the three searches share it. A mask with fewer pairs than gates
    fails it at once; any other is decided by `embed_masks` and
    remembered, with the image it found or None, so no mask is embedded
    twice on one instance and a remembered answer costs no work. A decided
    answer does not depend on the budget, so the memo holds for all three
    searches, and `witness` reads a goal state's image from it.

    The hardware's HardwareTables (its matchings, their delta-swap tables,
    the one-edge matchings' share of them and the gain bounds) are built
    once per hardware `Graph` and shared by every search on it; they live
    in a weak-key table, so they go when the caller's graph does. Only a
    complete enumeration of the matchings is kept: a budget below the
    matching count stops the enumeration at budget + 1 and keeps nothing.
    The gate graph's `embedding_order` is built once per gate `Graph`, in
    a weak-key table of the same kind.

    Work counts the hardware matchings enumerated, the successors the
    searches generate, and for each embedding test the node pairs in the
    mask, read once into node-adjacency bitmasks, plus the vertex
    placements `embed_masks` tries. The enumeration is charged whether the
    tables are built or found: min(matchings, budget + 1), and a search
    refuses on the same condition either way. Work never counts time, so a
    budgeted run stops at the same point on every run and machine. With no
    budget every answer is exact; once the budget is spent, each query
    returns an inexact Outcome whose value is a proven lower bound (0 when
    the query could not start).
    """

    def __init__(self, inst: TmpInstance, budget: int | None = None):
        self.inst = inst
        self.left = inf if budget is None else budget
        self.work = 0
        hw = inst.hardware
        tables = _hardware_tables.get(hw)
        if tables is None:
            # the number of matchings grows exponentially with the hardware, so
            # the enumeration stops as soon as it would exceed the budget
            stop = None if budget is None else budget + 2
            found = tuple(islice(iter_matchings(hw), 1, stop))  # skip the empty one
            count = len(found)
            if budget is None or count <= budget:  # complete: keep it
                tables = _hardware_tables[hw] = _build_tables(hw, found)
        else:
            count = len(tables.matchings)
        # a found table costs what building it would have
        self._charge(count if budget is None else min(count, budget + 1))
        if self.left < 0:
            self._reached = None
            return
        self._tables = tables
        self._starts = [tables.steps.base]
        self._gates = gates = len(inst.connections)
        n = inst.num_nodes
        ends = tables.ends
        order = embedding_order(inst.algorithm)
        # mask -> the image `embed_masks` found, or None when it found none
        self._images = images = {}

        def reached(mask: int, limit: float) -> tuple[bool | None, int]:
            # one unit per pair of the mask plus one per backtracking step;
            # embed_masks may take one step past its limit
            size = mask.bit_count()
            if size < gates:
                return False, 0
            image = images.get(mask, False)  # False: not tested yet
            if image is not False:
                return image is not None, 0
            if size >= limit:
                return None, 0
            adj = [0] * n
            rest = mask
            while rest:
                low = rest & -rest
                a, b_bit, b, a_bit = ends[low.bit_length() - 1]
                adj[a] |= b_bit
                adj[b] |= a_bit
                rest ^= low
            image, steps = embed_masks(order, adj, limit - size - 1)
            if image is None and steps > limit - size - 1:
                return None, size + steps
            images[mask] = image
            return image is not None, size + steps

        self._reached = reached

    def _charge(self, work: int) -> None:
        self.work += work
        self.left -= work

    def min_steps(self) -> Outcome:
        """Fewest swap steps (breadth-first); -1 if no solution exists."""
        if self._reached is None:
            return Outcome(0, False, 0)
        out = _search_py.min_steps(self._tables.steps, self._starts, self._reached,
                                   budget=self.left)
        self._charge(out.work)
        return out

    def min_swaps_within(self, steps: int) -> Outcome:
        """Fewest swaps within `steps` steps (A*); -1 if none."""
        if self._reached is None:
            return Outcome(0, False, 0)
        out = _search_py.min_swaps_within(
            self._tables.steps, self._starts, self._gates, self._reached, steps,
            self._tables.swap_gain, self._tables.step_gain, budget=self.left,
        )
        self._charge(out.work)
        return out

    def cheaper_swaps(self, ms_at_mt: float) -> Outcome:
        """Fewest swaps of any solution with fewer than ms_at_mt swaps, at
        any step count; -1 if none, which makes ms_at_mt the overall optimum.
        With ms_at_mt = inf this is the overall optimum, -1 if no solution
        exists.

        Such a solution serializes into at most ms_at_mt - 1 single-swap
        steps (`cheaper_swap_floor`), and a single-swap solution is a
        solution with as many swaps, so one A* over at most ms_at_mt - 1
        one-edge matchings sees them all; `max_gain_per_swap` bounds both
        its swaps and its steps. The Outcome's path indexes the matchings,
        as `min_swaps_within`'s does.
        """
        if self._reached is None:
            return Outcome(0, False, 0)
        gain = self._tables.swap_gain
        out = _search_py.min_swaps_within(
            self._tables.single_steps, self._starts, self._gates, self._reached,
            ms_at_mt - 1, gain, gain, budget=self.left,
        )
        self._charge(out.work)
        return out._replace(path=tuple(self._tables.singles[mi] for mi in out.path))

    def settle(self) -> tuple[Outcome, Outcome | None, Outcome | None]:
        """The Outcomes of the breadth-first search (mt), A* at mt (ms_at_mt)
        and `cheaper_swaps` (ms); a search is None when `cheaper_swap_floor`
        settles it or an earlier one is inexact or finds no solution."""
        steps = self.min_steps()
        at_mt = cheaper = None
        if steps.exact and steps.value >= 0:
            at_mt = self.min_swaps_within(steps.value)
            if at_mt.exact and at_mt.value > cheaper_swap_floor(self.inst, steps.value):
                cheaper = self.cheaper_swaps(at_mt.value)
        return steps, at_mt, cheaper

    def witness(self, out: Outcome) -> SwapSolution | None:
        """The solution behind an exact A* Outcome (`min_swaps_within` or
        `cheaper_swaps`) with a nonnegative value.

        Its path, replayed through the step tables (`_search_py.replay`),
        gives the goal mask M, and replayed on the tokens, the label tok[i]
        on each node i. The goal test kept the image of the gate graph it
        found in M, so no embedding is searched again: M = L_t^-1(U), so
        gate qubit q starts on node tok[image[q]], and the dummy tokens
        take the leftover nodes in ascending order (the soundness argument
        in _search_py). None when the path leads to no mask the goal test
        embedded, which a correct path never gives."""
        image = self._images.get(_search_py.replay(self._tables.steps, out.path))
        if image is None:
            return None
        n = self.inst.num_nodes
        matchings = self._tables.matchings
        tok = list(range(n))
        for mi in out.path:
            for u, v in matchings[mi]:
                tok[u], tok[v] = tok[v], tok[u]
        start = [tok[node] for node in image]
        taken = set(start)
        start += [node for node in range(n) if node not in taken]
        return SwapSolution(TokenPlacement(tuple(start)), tuple(matchings[mi] for mi in out.path))


def oracle_min_steps(inst: TmpInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Fewest swap steps over all solutions (breadth-first over placements).

    The search's first goal test, on the hardware edges, is the direct
    embedding test: a gate set already on hardware edges answers 0 there.
    """
    _check_size(inst, node_limit)
    result = RelativeFrameSearch(inst).min_steps().value
    if result < 0:
        raise InfeasibleInstanceError("no swap sequence realizes every connection")
    return result


def oracle_min_swaps_at(
    inst: TmpInstance, steps: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> int | None:
    """Fewest swaps over solutions with at most `steps` steps; None if none exist."""
    _check_size(inst, node_limit)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    result = RelativeFrameSearch(inst).min_swaps_within(steps).value
    return None if result < 0 else result


def oracle_min_swaps(inst: TmpInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Fewest swaps over all solutions regardless of step count.

    By the serialization lemma (`cheaper_swap_floor`) this is the fewest
    single swaps, one per step, that realize every connection, so one A*
    over the one-edge matchings with no step cap finds it
    (`RelativeFrameSearch.cheaper_swaps` at infinity). Its first goal test,
    on the hardware edges, answers 0 for a gate set already on them.
    """
    _check_size(inst, node_limit)
    result = RelativeFrameSearch(inst).cheaper_swaps(inf).value
    if result < 0:
        raise InfeasibleInstanceError("no swap sequence realizes every connection")
    return result
