"""Command-line surface: one subcommand per pipeline stage, JSON out.

Exit codes: 0 success, 2 infeasible or failed validation, 3 solver gave
up before proving optimality, 4 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import bound_report
from .constructive import dfs_swap_solve
from .graphs import Graph
from .oracle import (
    DEFAULT_NODE_LIMIT,
    InfeasibleInstanceError,
    oracle_min_steps,
    oracle_min_swaps,
    oracle_min_swaps_at,
)
from .pipeline import (
    HARDWARE_PRESETS,
    PipelineResult,
    circuit_ingest,
    generate_instance,
    route,
    solve_min_swaps,
)
from .polytope import exact_description, hardware_to_bipartite, verify_integer_hull
from .scheduler import ScheduleSolveError, schedule_circuit
from .solutions import (
    RoutedCircuit,
    SwapSolution,
    TmpInstance,
    validate_routed_circuit,
    validate_swap_solution,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARTIAL = 3
EXIT_INPUT = 4


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_instance(path: str) -> TmpInstance:
    try:
        return TmpInstance.from_dict(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad instance file {path}: {exc}") from exc


def _resolve_hardware(args) -> Graph:
    if args.hardware == "custom":
        if not args.hardware_file:
            raise InputError("--hardware custom requires --hardware-file")
        try:
            return Graph.from_dict(_load_json(args.hardware_file))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad hardware file {args.hardware_file}: {exc}") from exc
    return HARDWARE_PRESETS[args.hardware]()


def _emit(payload: dict, out: str | None) -> None:
    """Write the JSON to --out, then print it. A reader that closes stdout
    early (`| head`) loses the rest of the output but changes neither the
    file nor the exit code."""
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; make that a no-op
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_generate(args) -> int:
    hardware = _resolve_hardware(args)
    try:
        inst = generate_instance(hardware, args.density, args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(inst.to_dict(), args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    inst = _load_instance(args.instance)
    try:
        report = bound_report(inst)
    except ValueError as exc:  # the deficit bounds' proof that no solution exists
        _emit({"error": str(exc)}, args.out)
        return EXIT_INFEASIBLE
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = _load_instance(args.instance)
    try:
        if args.steps is not None:
            ms_at = oracle_min_swaps_at(inst, args.steps, node_limit=args.node_limit)
            _emit({"steps": args.steps, "ms_at": ms_at, "feasible": ms_at is not None},
                  args.out)
            return EXIT_OK if ms_at is not None else EXIT_INFEASIBLE
        mt = oracle_min_steps(inst, node_limit=args.node_limit)
        ms = oracle_min_swaps(inst, node_limit=args.node_limit)
        _emit({"mt": mt, "ms": ms}, args.out)
        return EXIT_OK
    except InfeasibleInstanceError as exc:  # a ValueError too, so caught first
        _emit({"error": str(exc)}, args.out)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _run_pipeline(args, runner) -> PipelineResult | None:
    """The runner's result, emitted; None when the instance has no solution."""
    inst = _load_instance(args.instance)
    try:
        res = runner(inst, args.time_limit)
    except InfeasibleInstanceError as exc:  # a ValueError too, so caught first
        _emit({"error": str(exc)}, args.out)
        return None
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(res.to_dict(), args.out)
    return res


def cmd_solve(args) -> int:
    res = _run_pipeline(args, solve_min_swaps)
    if res is None:
        return EXIT_INFEASIBLE
    return EXIT_OK if res.complete else EXIT_PARTIAL


def cmd_route(args) -> int:
    res = _run_pipeline(args, route)
    if res is None:
        return EXIT_INFEASIBLE
    return EXIT_OK if res.complete and res.routed_circuit is not None else EXIT_PARTIAL


def cmd_schedule(args) -> int:
    inst = _load_instance(args.instance)
    try:
        sol = SwapSolution.from_dict(_load_json(args.solution))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad solution file {args.solution}: {exc}") from exc
    try:
        outcome = schedule_circuit(inst, sol, time_limit=args.time_limit)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except ScheduleSolveError as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_PARTIAL
    _emit({
        "circuit": outcome.circuit.to_dict(),
        "extra_layers": outcome.extra_layers,
        "depth": outcome.circuit.depth,
        "method": outcome.method,
    }, args.out)
    return EXIT_OK


def cmd_heuristic(args) -> int:
    hardware = _resolve_hardware(args)
    try:
        sol, trace = dfs_swap_solve(hardware)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit({
        "solution": sol.to_dict(),
        "steps": sol.steps,
        "swaps": sol.swaps,
        "iterations": len(trace.iterations),
    }, args.out)
    return EXIT_OK


def cmd_polytope(args) -> int:
    hardware = _resolve_hardware(args)
    g = hardware_to_bipartite(hardware)
    try:
        constraints = exact_description(g, args.relation)
        report = verify_integer_hull(
            g, args.relation, num_objectives=args.objectives, seed=args.seed
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = dict(report)
    payload["constraints"] = [c.tag for c in constraints]
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    if (args.solution is None) == (args.circuit is None):
        raise InputError("pass exactly one of --solution / --circuit")
    try:
        if args.solution:
            sol = SwapSolution.from_dict(_load_json(args.solution))
            verdict = validate_swap_solution(inst, sol)
        else:
            circ = RoutedCircuit.from_dict(_load_json(args.circuit))
            verdict = validate_routed_circuit(inst, circ)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad solution/circuit file: {exc}") from exc
    _emit(verdict.to_dict(), args.out)
    return EXIT_OK if verdict.valid else EXIT_INFEASIBLE


def cmd_ingest(args) -> int:
    hardware = _resolve_hardware(args)
    try:
        text = Path(args.gates).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {args.gates}: {exc}") from exc
    try:
        inst = circuit_ingest(text, hardware)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(inst.to_dict(), args.out)
    return EXIT_OK


def _hardware_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hardware", default="grid3x3",
                   choices=[*sorted(HARDWARE_PRESETS), "custom"])
    p.add_argument("--hardware-file", default=None,
                   help="graph JSON ({\"n\": ..., \"edges\": ...}) for --hardware custom")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; that slot means infeasible
        self.print_usage(sys.stderr)
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="commroute",
        description="Qubit routing for commuting gate sets: exact swap "
                    "minimization and layered circuit assembly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="random instance over a hardware preset")
    _hardware_flags(p)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bounds", help="lower/upper bound report for an instance")
    p.add_argument("instance")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", help="exhaustive-search optimum (small instances)")
    p.add_argument("instance")
    p.add_argument("--steps", type=int, default=None,
                   help="fix the step count instead of reporting mt/ms")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("solve", help="minimal steps and swaps via MILP")
    p.add_argument("instance")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("schedule", help="pack gates into a swap solution's layers")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("route", help="solve then schedule: full routed circuit")
    p.add_argument("instance")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("heuristic", help="tree-based constructive solution for "
                                         "all-pairs interaction")
    _hardware_flags(p)
    p.set_defaults(func=cmd_heuristic)

    p = sub.add_parser("polytope", help="meeting-polytope description and "
                                        "integrality check")
    _hardware_flags(p)
    p.add_argument("--relation", default="eq", choices=["eq", "leq"])
    p.add_argument("--objectives", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("verify", help="validate a solution or circuit file")
    p.add_argument("instance")
    p.add_argument("--solution", default=None)
    p.add_argument("--circuit", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ingest", help="gate-pair list to instance JSON")
    p.add_argument("gates", help="text file, one 'p q' gate per line")
    _hardware_flags(p)
    p.set_defaults(func=cmd_ingest)

    for name in ("solve", "schedule", "route"):
        sub.choices[name].add_argument("--time-limit", type=float, default=None,
                                       help="per-solve HiGHS limit in seconds")
    for cmd in sub.choices.values():
        cmd.add_argument("--out", default=None, metavar="FILE",
                         help="also write the JSON result to FILE")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
