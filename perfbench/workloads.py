"""Workloads of the commroute benchmark: instance sets, operations and checks.

Every workload is a fixed list of operations. An operation calls one public
entry point of commroute on one instance and hands its output to a check
that compares it with a reference answer and with the program's own
validators. The reasons for each workload are in NOTES.md.

The route and oracle instances are fixed; a run's `--seed` relabels the
hardware nodes and tokens of the forty small random instances, which keeps
every answer and changes the models and search orders the program sees.
Drawing those forty afresh per seed changed their summed route() time by
2x between seeds, and regenerating the grid3x3 instance by 12x (NOTES.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import commroute.milp.backends as backends
import commroute.milp.models as models
import commroute.oracle as oracle
import commroute.pipeline as pipeline
from commroute import (
    TmpInstance,
    complete_graph,
    grid_graph,
    path_graph,
    star_graph,
    validate_routed_circuit,
    validate_swap_solution,
)
from commroute.graphs import Graph
from commroute.milp.models import ModelVariant

import references

WORKLOADS = ("route_grid", "route_small", "oracle_search", "relax_scale")
RANDOM_PAIRS = 40
RANDOM_PAIRS_SEED = 0
LP_TOLERANCE = 1e-6


@dataclass
class Op:
    """One timed call: `run()` produces the answer, `check(out)` returns a
    failure reason or None."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    reference_sources: dict[str, int]  # where the references came from -> count


def grid_baseline() -> TmpInstance:
    """ROADMAP's grid3x3 baseline: density 0.3, generator seed 5, 11 gates."""
    return pipeline.generate_instance("grid3x3", 0.3, 5)


def worked_example() -> TmpInstance:
    """The paper's worked example: path hardware, star gate set, six nodes."""
    return TmpInstance(path_graph(6), star_graph(6))


# The five cases of benchmarks/bench_search.py, timed here on the same inputs.
KERNEL_CASES = (
    ("path5-K5", lambda: TmpInstance(path_graph(5), complete_graph(5))),
    ("path6-K6", lambda: TmpInstance(path_graph(6), complete_graph(6))),
    ("path6-star6", worked_example),
    ("grid2x3-K6", lambda: TmpInstance(grid_graph(2, 3), complete_graph(6))),
    ("star7-K7", lambda: TmpInstance(star_graph(7), complete_graph(7))),
)

# relax_scale models: (id, hardware rows, cols, steps, variant or "swap-step").
# Pair variants are left out on grid4x4: pair-mccormick at one step was
# OOM-killed on an 8 GB machine (see NOTES.md).
RELAX_MODELS = tuple(
    (f"grid3x3-K9-t2-{v}", 3, 3, 2, v)
    for v in ("pair-mccormick", "pair-aggregated", "indicator-full", "indicator-onesided", "swap-step")
) + (("grid4x4-K16-t1-indicator-onesided", 4, 4, 1, "indicator-onesided"),)
RELAX_MODELS_REDUCED = (
    ("grid2x3-K6-t1-indicator-onesided", 2, 3, 1, "indicator-onesided"),
    ("grid2x3-K6-t1-swap-step", 2, 3, 1, "swap-step"),
)


def random_pair(rng: random.Random, n: int = 5) -> TmpInstance:
    """A random connected hardware graph on n nodes and a random gate set.

    The hardware is a random spanning tree plus each remaining pair with
    probability 0.2; the gates come from generate_instance.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        edges.add((min(u, v), max(u, v)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.2:
                edges.add((i, j))
    hardware = Graph(n, sorted(edges))
    return pipeline.generate_instance(hardware, rng.choice((0.4, 0.5, 0.6)), rng.randrange(2**31))


def relabel(inst: TmpInstance, rng: random.Random) -> TmpInstance:
    """An isomorphic copy: hardware nodes and tokens permuted independently.

    The initial placement is free, so mt, ms_at_mt and ms do not change.
    """
    nodes = list(range(inst.hardware.n))
    tokens = list(range(inst.algorithm.n))
    rng.shuffle(nodes)
    rng.shuffle(tokens)
    return TmpInstance(
        Graph(len(nodes), [(nodes[u], nodes[v]) for u, v in inst.hardware.edges]),
        Graph(len(tokens), [(tokens[u], tokens[v]) for u, v in inst.algorithm.edges]),
    )


def random_pairs(seed: int, count: int) -> list[tuple[str, TmpInstance]]:
    """The first `count` base instances (drawn with generator seed
    RANDOM_PAIRS_SEED), each relabelled by `seed`."""
    base = random.Random(RANDOM_PAIRS_SEED)
    rng = random.Random(seed)
    return [(f"rand5-{k}", relabel(random_pair(base), rng)) for k in range(count)]


def relax_model(rows: int, cols: int, steps: int, variant: str):
    inst = TmpInstance(grid_graph(rows, cols), complete_graph(rows * cols))
    if variant == "swap-step":
        return models.build_swap_step_model(inst, steps=steps)
    return models.build_variant(inst, steps=steps, variant=ModelVariant.from_string(variant))


class References:
    """Reference answers: the committed file, or the exhaustive oracle at
    set-up for small instances outside it (the reduced self-check sets)."""

    def __init__(self):
        self.data = references.load()
        self.sources: dict[str, int] = {}

    def _count(self, source: str) -> None:
        self.sources[source] = self.sources.get(source, 0) + 1

    def answer(self, name: str, inst: TmpInstance) -> dict:
        if name in self.data["answers"]:
            self._count("file")
            return self.data["answers"][name]
        if inst.num_nodes > references.ORACLE_AT_SETUP_MAX_NODES:
            raise ValueError(f"no reference answer for {name}")
        self._count("oracle at set-up")
        return references.oracle_answers(inst)

    def lp_objective(self, name: str, make_model: Callable) -> float:
        if name in self.data["lp"]:
            self._count("file")
            return self.data["lp"][name]["objective"]
        self._count("independent LP at set-up")
        return references.lp_objective(make_model())


def _mismatch(got: dict, ref: dict) -> str | None:
    for key, value in got.items():
        if ref[key] != value:
            return f"{key}={value}, reference {ref[key]}"
    return None


def route_op(name: str, inst: TmpInstance, ref: dict) -> Op:
    def run():
        return pipeline.route(inst)

    def check(res) -> str | None:
        if not res.complete:
            return f"not certified optimal: {res.notes}"
        problem = _mismatch({"mt": res.mt, "ms_at_mt": res.ms_at_mt, "ms": res.ms}, ref)
        if problem:
            return problem
        swap_check = validate_swap_solution(inst, res.swap_solution)
        if not swap_check.valid or swap_check.swaps != res.ms:
            return f"swap solution rejected: {swap_check.problems}, {swap_check.swaps} swaps"
        circuit_check = validate_routed_circuit(inst, res.routed_circuit)
        if not circuit_check.valid or circuit_check.swaps != res.ms:
            return f"routed circuit rejected: {circuit_check.problems}"
        return None

    return Op(name, run, check)


def oracle_op(name: str, inst: TmpInstance, ref: dict, keys: tuple[str, ...],
              node_limit: int = oracle.DEFAULT_NODE_LIMIT) -> Op:
    """Oracle calls for the answers in `keys`, in the order a caller needs them."""

    def run():
        got = {"mt": oracle.oracle_min_steps(inst, node_limit)}
        if "ms_at_mt" in keys:
            got["ms_at_mt"] = oracle.oracle_min_swaps_at(inst, got["mt"], node_limit)
        if "ms" in keys:
            got["ms"] = oracle.oracle_min_swaps(inst, node_limit)
        return got

    return Op(name, run, lambda got: _mismatch(got, ref))


def relax_op(name: str, spec: tuple, objective: float) -> Op:
    _, rows, cols, steps, variant = spec

    def run():
        return backends.solve_lp_relaxation(relax_model(rows, cols, steps, variant))

    def check(res) -> str | None:
        if res.status != "optimal":
            return f"LP status {res.status}"
        if abs(res.objective - objective) > LP_TOLERANCE:
            return f"LP objective {res.objective}, reference {objective}"
        return None

    return Op(name, run, check)


def build(name: str, seed: int, reduced: bool = False) -> Workload:
    """The operations of one workload for one seed.

    `reduced` swaps in a few small instances so the self-check runs fast.
    """
    refs = References()
    pairs = random_pairs(seed, 3 if reduced else RANDOM_PAIRS)
    if name == "route_grid":
        if reduced:
            inst = pipeline.generate_instance(grid_graph(2, 3), 0.4, seed)
            named = [(f"grid2x3-d0.4-s{seed}", inst)]
        else:
            named = [("grid3x3-d0.3-s5", grid_baseline())]
        ops = [route_op(n, i, refs.answer(n, i)) for n, i in named]
    elif name == "route_small":
        named = ([] if reduced else [("path6-star6", worked_example())]) + pairs
        ops = [route_op(n, i, refs.answer(n, i)) for n, i in named]
    elif name == "oracle_search":
        cases = KERNEL_CASES[:1] if reduced else KERNEL_CASES
        ops = []
        for n, make in cases:
            inst = make()
            ops.append(oracle_op(n, inst, refs.answer(n, inst), ("mt", "ms")))
        if not reduced:
            grid = grid_baseline()
            ops.append(oracle_op("grid3x3-d0.3-s5", grid,
                                 refs.answer("grid3x3-d0.3-s5", grid), ("mt",), node_limit=9))
            twin = pipeline.generate_instance("twin5cycles", 0.3, 1)
            ops.append(oracle_op("twin5cycles-d0.3-s1", twin,
                                 refs.answer("twin5cycles-d0.3-s1", twin),
                                 ("mt", "ms_at_mt"), node_limit=8))
        ops += [oracle_op(n, i, refs.answer(n, i), ("mt", "ms_at_mt", "ms"))
                for n, i in pairs]
    elif name == "relax_scale":
        specs = RELAX_MODELS_REDUCED if reduced else RELAX_MODELS
        ops = [relax_op(s[0], s, refs.lp_objective(s[0], lambda s=s: relax_model(*s[1:])))
               for s in specs]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, ops, dict(refs.sources))
