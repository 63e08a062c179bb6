"""Naive reference validators: the step-by-step implementations that
`validate_swap_solution` and `validate_routed_circuit` replaced, which build
a `TokenPlacement` per step or layer. The fast ones must report exactly
what these do."""

from commroute.graphs import _normalize_edge
from commroute.solutions import (
    CircuitValidation,
    SwapValidation,
    check_matching,
    placement_trajectory,
)


def reference_validate_swap_solution(inst, solution) -> SwapValidation:
    problems: list[str] = []
    n = inst.num_nodes
    if len(solution.initial) != n:
        return SwapValidation(
            False, solution.steps, solution.swaps,
            problems=[f"initial placement has size {len(solution.initial)}, expected {n}"],
        )
    for t, m in enumerate(solution.matchings, start=1):
        try:
            check_matching(m)
        except ValueError as exc:
            problems.append(f"step {t}: {exc}")
            continue
        for e in m:
            if _normalize_edge(*e) not in inst.hardware.edge_set:
                problems.append(f"step {t}: swap {e} is not a hardware edge")
    if problems:
        return SwapValidation(False, solution.steps, solution.swaps, problems=problems)
    covered = set()
    for f in placement_trajectory(solution):
        tok = f.token_at
        for u, v in inst.hardware.edges:
            pair = _normalize_edge(tok[u], tok[v])
            if pair in inst.algorithm.edge_set:
                covered.add(pair)
    uncovered = sorted(set(inst.connections) - covered)
    if uncovered:
        problems.append(f"{len(uncovered)} connection(s) never adjacent")
    return SwapValidation(not problems, solution.steps, solution.swaps, uncovered, problems)


def reference_validate_routed_circuit(inst, circuit) -> CircuitValidation:
    problems: list[str] = []
    n = inst.num_nodes
    if len(circuit.initial) != n:
        return CircuitValidation(
            False, circuit.depth, circuit.swaps,
            [f"initial placement has size {len(circuit.initial)}, expected {n}"],
        )
    f = circuit.initial
    remaining = set(inst.connections)
    for d, layer in enumerate(circuit.layers, start=1):
        combined = tuple(layer.swap_edges) + tuple(layer.gate_edges)
        try:
            check_matching(combined)
        except ValueError as exc:
            problems.append(f"layer {d}: {exc}")
            break
        bad = [e for e in combined if _normalize_edge(*e) not in inst.hardware.edge_set]
        if bad:
            problems.append(f"layer {d}: non-hardware edge(s) {bad}")
            break
        tok = f.token_at
        for u, v in layer.gate_edges:
            pair = _normalize_edge(tok[u], tok[v])
            if pair not in inst.algorithm.edge_set:
                problems.append(f"layer {d}: gate on {u, v} acts on tokens {pair}, not a connection")
            elif pair not in remaining:
                problems.append(f"layer {d}: connection {pair} executed twice")
            else:
                remaining.discard(pair)
        f = f.apply_matching(layer.swap_edges)
    if remaining:
        problems.append(f"{len(remaining)} connection(s) never executed")
    return CircuitValidation(not problems, circuit.depth, circuit.swaps, problems)
