"""Exhaustive reference solvers for small instances.

Ground truth the optimization models are tested against. Exact but
exponential: instances above the node limit are refused outright.

This module prepares the instance tables and the embedding test; the
search itself runs once, from the identity placement, in the kernel module
_search_py, whose docstring proves why that one search covers every start
placement. The kernel functions are looked up on that module at every
call, so a wrapper installed on _search_py (a profiler or tracer) sees
every search.
"""

from __future__ import annotations

from . import _search_py
from .bounds import max_gain_per_step, max_gain_per_swap
from .graphs import Graph, all_matchings
from .graphs import automorphisms  # noqa: F401  (perfbench/tracing.py wraps this name)
from .solutions import TmpInstance, is_subgraph_placement

DEFAULT_NODE_LIMIT = 7


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
    """The kernel arguments both searches share, in kernel order: node count,
    the identity start, matchings, hardware edges, label-pair table, gate
    count and the embedding test on pair masks."""
    n = inst.num_nodes
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pair_bit = [0] * (n * n)
    for bit, (a, b) in enumerate(pairs):
        pair_bit[a * n + b] = bit
        pair_bit[b * n + a] = bit
    hw_edges: list[int] = []
    for u, v in inst.hardware.edges:
        hw_edges.extend((u, v))
    matchings = [
        [x for e in m for x in e]
        for m in all_matchings(inst.hardware, include_empty=False)
    ]

    def embeds(mask: int) -> bool:
        seen = Graph(n, [pair for bit, pair in enumerate(pairs) if mask >> bit & 1])
        return is_subgraph_placement(TmpInstance(seen, inst.algorithm)) is not None

    return n, [tuple(range(n))], matchings, hw_edges, pair_bit, len(inst.connections), embeds


def oracle_min_steps(inst: TmpInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Fewest swap steps over all solutions (breadth-first over placements)."""
    _check_size(inst, node_limit)
    if not inst.connections or is_subgraph_placement(inst) is not None:
        return 0
    result = _search_py.min_steps(*_prepared(inst), inst.num_nodes ** 3)
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
    result = _search_py.min_swaps_within(
        *_prepared(inst), steps,
        max_gain_per_swap(inst.hardware), max_gain_per_step(inst.hardware),
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
