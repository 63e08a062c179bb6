"""The validators against their naive reference, on random valid swap
solutions and routed circuits and on corrupted copies of them."""

import random
from dataclasses import fields

from commroute.graphs import Graph
from commroute.scheduler import schedule_circuit
from commroute.solutions import (
    CircuitLayer,
    RoutedCircuit,
    SwapSolution,
    TmpInstance,
    TokenPlacement,
    placement_trajectory,
    validate_routed_circuit,
    validate_swap_solution,
)

from conftest import random_connected_graph
from reference_validators import reference_validate_routed_circuit, reference_validate_swap_solution


def _same_report(got, want) -> None:
    assert type(got) is type(want)
    for f in fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def _check_swap(inst, sol) -> bool:
    got = validate_swap_solution(inst, sol)
    _same_report(got, reference_validate_swap_solution(inst, sol))
    return got.valid


def _check_circuit(inst, circuit) -> bool:
    got = validate_routed_circuit(inst, circuit)
    _same_report(got, reference_validate_routed_circuit(inst, circuit))
    return got.valid


def _random_matching(h: Graph, rng: random.Random) -> tuple:
    used: set[int] = set()
    m = []
    for u, v in rng.sample(h.edges, len(h.edges)):
        if rng.random() < 0.6 and u not in used and v not in used:
            used.update((u, v))
            m.append((u, v))
    return tuple(m)


def _random_case(rng: random.Random):
    """A valid swap solution on 4-6 nodes, its gates a random subset of the
    token pairs it brings together, and the token pairs it never does."""
    n = rng.randint(4, 6)
    h = random_connected_graph(n, rng)
    start = list(range(n))
    rng.shuffle(start)
    sol = SwapSolution(TokenPlacement(tuple(start)),
                       tuple(_random_matching(h, rng) for _ in range(rng.randint(0, 3))))
    met = set()
    for f in placement_trajectory(sol):
        for u, v in h.edges:
            met.add(tuple(sorted((f.token_at[u], f.token_at[v]))))
    gates = rng.sample(sorted(met), rng.randint(0, len(met)))
    apart = [(p, q) for p in range(n) for q in range(p + 1, n) if (p, q) not in met]
    return TmpInstance(h, Graph(n, gates)), sol, apart


def _bad_solutions(inst, sol, apart, rng):
    h = inst.hardware
    n = h.n
    steps = list(sol.matchings)
    e = rng.choice(h.edges)
    yield "wrong size", inst, SwapSolution(TokenPlacement.identity(n + 1), sol.matchings)
    yield "reversed swaps", inst, SwapSolution(
        sol.initial, tuple(tuple((v, u) for u, v in m) for m in steps))
    yield "self loop", inst, SwapSolution(sol.initial, (((e[0], e[0]),),) + sol.matchings)
    touching = [f for f in h.edges if f != e and set(f) & set(e)]
    if touching:
        at = rng.randint(0, len(steps))
        bad = steps[:at] + [(e, rng.choice(touching))] + steps[at:]
        yield "not a matching", inst, SwapSolution(sol.initial, tuple(bad))
    far = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in h.edge_set]
    if far:
        at = rng.randint(0, len(steps))
        bad = steps[:at] + [(rng.choice(far),)] + steps[at:]
        yield "non-hardware edge", inst, SwapSolution(sol.initial, tuple(bad))
        yield "two faults", inst, SwapSolution(sol.initial, ((e, e),) + tuple(bad))
    if apart:
        gates = inst.algorithm.edges + (rng.choice(apart),)
        yield "uncovered gate", TmpInstance(h, Graph(n, gates)), sol


def _bad_circuits(inst, circuit, rng):
    h = inst.hardware
    n = h.n
    layers = list(circuit.layers)
    yield "wrong size", RoutedCircuit(TokenPlacement.identity(n + 1), circuit.layers)
    with_gates = [d for d, layer in enumerate(layers) if layer.gate_edges]
    if with_gates:
        d = rng.choice(with_gates)
        layer = layers[d]
        gate = rng.choice(layer.gate_edges)
        others = tuple(e for e in layer.gate_edges if e != gate)
        yield "duplicate gate", RoutedCircuit(
            circuit.initial, tuple(layers[:d + 1] + [CircuitLayer((), (gate,))] + layers[d + 1:]))
        yield "missing gate", RoutedCircuit(
            circuit.initial, tuple(layers[:d] + [CircuitLayer(layer.swap_edges, others)]
                                   + layers[d + 1:]))
    for d in range(len(layers) - 1):
        # a gate-only layer merged into the next one: the same gates on the
        # same tokens, but some token twice in one layer
        first, second = layers[d], layers[d + 1]
        ends = [v for e in first.gate_edges + second.swap_edges + second.gate_edges for v in e]
        if not first.swap_edges and len(set(ends)) < len(ends):
            merged = CircuitLayer(second.swap_edges, first.gate_edges + second.gate_edges)
            yield "overlapping layer", RoutedCircuit(
                circuit.initial, tuple(layers[:d] + [merged] + layers[d + 2:]))
            break
    final = placement_trajectory(
        SwapSolution(circuit.initial, tuple(layer.swap_edges for layer in layers)))[-1]
    for u, v in h.edges:
        pair = tuple(sorted((final.token_at[u], final.token_at[v])))
        if pair not in inst.algorithm.edge_set:
            yield "non-connection gate", RoutedCircuit(
                circuit.initial, tuple(layers + [CircuitLayer((), ((u, v),))]))
            break
    far = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in h.edge_set]
    if far:
        d = rng.randint(0, len(layers))
        yield "non-hardware swap", RoutedCircuit(
            circuit.initial, tuple(layers[:d] + [CircuitLayer((rng.choice(far),), ())] + layers[d:]))
        yield "non-hardware gate", RoutedCircuit(
            circuit.initial, tuple(layers[:d] + [CircuitLayer((), (rng.choice(far),))] + layers[d:]))


def test_validators_match_reference_on_random_cases():
    rng = random.Random(20261020)
    swap_faults: set[str] = set()
    circuit_faults: set[str] = set()
    for _ in range(300):
        inst, sol, apart = _random_case(rng)
        assert _check_swap(inst, sol)
        circuit = schedule_circuit(inst, sol).circuit
        assert _check_circuit(inst, circuit)
        for fault, bad_inst, bad in _bad_solutions(inst, sol, apart, rng):
            valid = _check_swap(bad_inst, bad)
            assert valid == (fault == "reversed swaps"), fault
            swap_faults.add(fault)
        for fault, bad in _bad_circuits(inst, circuit, rng):
            assert not _check_circuit(inst, bad), fault
            circuit_faults.add(fault)
    assert len(swap_faults) == len(circuit_faults) == 7
