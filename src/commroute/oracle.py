"""Exhaustive reference solvers for small instances.

Ground truth the optimization models are tested against. Exact but
exponential: instances above the node limit are refused outright.

This module reduces the start placements and prepares the instance tables;
the search itself runs in the kernel module _search_py, where a state is a
placement tuple together with the mask of connections it has covered. The
kernel functions are looked up on that module at every call, so a wrapper
installed on _search_py (a profiler or tracer) sees every search.
"""

from __future__ import annotations

import itertools
import math

from . import _search_py
from .bounds import max_gain_per_step, max_gain_per_swap
from .graphs import Graph, all_matchings, automorphisms
from .solutions import TmpInstance, is_subgraph_placement

DEFAULT_NODE_LIMIT = 7
_REDUCTION_WORK_CAP = 2_000_000


class SizeLimitError(ValueError):
    pass


class InfeasibleInstanceError(ValueError):
    pass


def _check_size(inst: TmpInstance, node_limit: int) -> None:
    if inst.num_nodes > node_limit:
        raise SizeLimitError(
            f"instance has {inst.num_nodes} nodes, oracle limit is {node_limit}; "
            "raise node_limit explicitly if you accept the blowup"
        )


def _prepared(inst: TmpInstance):
    n = inst.num_nodes
    conns = inst.connections
    conn_bit = [-1] * (n * n)
    for b, (p, q) in enumerate(conns):
        conn_bit[p * n + q] = b
        conn_bit[q * n + p] = b
    hw_edges: list[int] = []
    for u, v in inst.hardware.edges:
        hw_edges.extend((u, v))
    matchings = [
        [x for e in m for x in e]
        for m in all_matchings(inst.hardware, include_empty=False)
    ]
    full_mask = (1 << len(conns)) - 1
    return n, conn_bit, hw_edges, matchings, full_mask


def _initial_placements(inst: TmpInstance) -> list[tuple[int, ...]]:
    """All starting tok_at arrays, reduced up to automorphisms of the algorithm.

    Relabeling tokens by an algorithm automorphism maps solutions to
    solutions with identical matchings, so one representative per orbit
    of the right-composition action is enough.
    """
    n = inst.num_tokens
    if inst.algorithm_is_complete():
        return [tuple(range(n))]
    padded = Graph(n, inst.algorithm.edges)
    auts = automorphisms(padded)
    if len(auts) <= 1 or math.factorial(n) * len(auts) > _REDUCTION_WORK_CAP:
        return [tuple(p) for p in itertools.permutations(range(n))]
    reps = {
        min(tuple(sigma[t] for t in tok_at) for sigma in auts)
        for tok_at in itertools.permutations(range(n))
    }
    return sorted(reps)


def oracle_min_steps(inst: TmpInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Fewest swap steps over all solutions (breadth-first over placements)."""
    _check_size(inst, node_limit)
    if not inst.connections or is_subgraph_placement(inst) is not None:
        return 0
    n, conn_bit, hw_edges, matchings, full_mask = _prepared(inst)
    starts = _initial_placements(inst)
    result = _search_py.min_steps(n, starts, matchings, hw_edges, conn_bit, full_mask, n * n * n)
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
    if not inst.connections:
        return 0
    n, conn_bit, hw_edges, matchings, full_mask = _prepared(inst)
    starts = _initial_placements(inst)
    result = _search_py.min_swaps_within(
        n, starts, matchings, hw_edges, conn_bit, full_mask,
        steps, max_gain_per_swap(inst.hardware), max_gain_per_step(inst.hardware),
    )
    return None if result < 0 else result


def oracle_min_swaps(inst: TmpInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Fewest swaps over all solutions regardless of step count.

    Sweeps the step budget upward from the step optimum; the swap optimum at
    budget t can only shrink as t grows and meets t exactly once, at the
    overall optimum, which makes the first t with optimum == t the answer.
    """
    t = oracle_min_steps(inst, node_limit)
    while True:
        ms = oracle_min_swaps_at(inst, t, node_limit)
        if ms is None:
            raise InfeasibleInstanceError("no swap sequence realizes every connection")
        if ms == t:
            return ms
        t += 1
