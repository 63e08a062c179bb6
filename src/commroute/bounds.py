"""Lower and upper bounds on swap count and step count.

All bounds are derived from hardware degrees: a single swap on edge {i,j}
can newly realize at most as many connections as the two endpoints have
distinct other neighbors, and a full swap step is limited by how many
disjoint edges the degree sequence supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph
from .solutions import TmpInstance


class InfeasibleInstanceError(ValueError):
    """A proof that no swap sequence realizes every connection."""


def max_gain_per_swap(h: Graph) -> int:
    """max over edges {i,j} of |N(i) u N(j)| - |N(i) n N(j)| - 2; 0 if no edges."""
    best = 0
    for u, v in h.edges:
        nu, nv = set(h.adjacency[u]), set(h.adjacency[v])
        best = max(best, len(nu | nv) - len(nu & nv) - 2)
    return best


def max_gain_per_step(h: Graph) -> int:
    """Most connections one swap step can newly realize, from the degree sequence.

    max over K in 1..floor(n/2) of
        min( sum_{k=1}^{K} (d_{2k-1} + d_{2k} - 2), |E| - K )
    with d the non-increasing degree sequence; K plays the role of the
    number of swaps performed in the step.
    """
    d = h.degree_sequence()
    best = 0
    prefix = 0
    for k in range(1, h.n // 2 + 1):
        prefix += d[2 * k - 2] + d[2 * k - 1] - 2
        best = max(best, min(prefix, h.num_edges - k))
    return best


def _deficit_bound(inst: TmpInstance, capacity: int, what: str) -> int:
    deficit = len(inst.connections) - inst.hardware.num_edges
    if deficit <= 0:
        return 0
    if capacity == 0:
        raise InfeasibleInstanceError(
            f"no {what} can newly realize a connection on this hardware graph, "
            "but more connections exist than hardware edges: instance is infeasible"
        )
    return math.ceil(deficit / capacity)


def swap_lower_bound(inst: TmpInstance) -> int:
    """Any solution needs at least ceil(deficit / max_gain_per_swap) swaps."""
    return _deficit_bound(inst, max_gain_per_swap(inst.hardware), "swap")


def step_lower_bound(inst: TmpInstance) -> int:
    """Any solution needs at least ceil(deficit / max_gain_per_step) steps."""
    return _deficit_bound(inst, max_gain_per_step(inst.hardware), "swap step")


def cheaper_swap_floor(inst: TmpInstance, mt: int, swap_gain: int | None = None) -> int:
    """Fewest swaps any solution cheaper than the best mt-step one can have;
    swap_gain, when the caller holds it, is max_gain_per_swap(inst.hardware).

    The serialization lemma. Take any solution with s swaps and perform its
    swaps one at a time: the placements it visits are a superset of the
    original ones, so coverage only grows and the result is a solution with
    s single-swap steps. Let ms be the overall swap optimum and ms_at_mt
    the optimum within the fewest steps mt. If s <= mt, padding the
    serialized solution with empty steps gives an mt-step solution with s
    swaps, so ms_at_mt <= s. As ms <= ms_at_mt by definition, ms ==
    ms_at_mt or ms >= mt + 1; and ms >= swap_lower_bound(inst) always. A
    solution with fewer than ms_at_mt swaps therefore has at least
    max(mt + 1, swap_lower_bound(inst)) of them, and ms_at_mt is the overall
    optimum whenever it does not exceed that floor.

    The lemma also bounds the steps such a solution needs: serialized, it
    has s <= ms_at_mt - 1 single-swap steps, at least `floor` of them
    nonempty. A search or model over ms_at_mt - 1 steps of at most one
    swap each therefore sees every cheaper solution; and with no step cap,
    the fewest swaps over all solutions equal the fewest single-swap steps.
    """
    if swap_gain is None:
        swap_gain = max_gain_per_swap(inst.hardware)
    return max(mt + 1, _deficit_bound(inst, swap_gain, "swap"))


def swap_upper_bound(inst: TmpInstance, min_steps: int) -> int:
    """Given the optimal step count, floor(n/2) swaps per step suffice."""
    return (inst.num_nodes // 2) * min_steps


@dataclass
class BoundReport:
    max_gain_per_swap: int
    max_gain_per_step: int
    swap_lower: int
    step_lower: int

    def to_dict(self) -> dict:
        return {
            "max_gain_per_swap": self.max_gain_per_swap,
            "max_gain_per_step": self.max_gain_per_step,
            "swap_lower": self.swap_lower,
            "step_lower": self.step_lower,
        }


def bound_report(inst: TmpInstance) -> BoundReport:
    """The lower bounds on steps and swaps and the gains they rest on."""
    return BoundReport(
        max_gain_per_swap=max_gain_per_swap(inst.hardware),
        max_gain_per_step=max_gain_per_step(inst.hardware),
        swap_lower=swap_lower_bound(inst),
        step_lower=step_lower_bound(inst),
    )
