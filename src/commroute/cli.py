"""Command-line surface: one subcommand per pipeline stage, JSON out.

Every subcommand prints one JSON document (and writes it to --out). The
exit code and the stream of an error are decided in `main` alone, from
what the subcommand returns or raises:

    exit  raised                     returned                     JSON on
    0     -                          a result                     stdout
    2     InfeasibleInstanceError    verify: invalid; oracle      stdout
                                     --steps: no solution
    3     ScheduleSolveError         solve / route: incomplete    stdout
    4     InputError, ValueError     -                            stderr

Exit 4 covers every malformed input: an unreadable or unparsable file, an
option value the library refuses, an unwritable --out and a command line
argparse rejects. An error's JSON is {"error": message}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import InfeasibleInstanceError, bound_report
from .constructive import dfs_swap_solve
from .graphs import Graph
from .oracle import (
    DEFAULT_NODE_LIMIT,
    oracle_min_steps,
    oracle_min_swaps,
    oracle_min_swaps_at,
)
from .pipeline import (
    HARDWARE_PRESETS,
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


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load(path: str, parse, what: str):
    """parse() of the JSON in path; a file it refuses is an InputError."""
    try:
        data = json.loads(_read(path))
    except ValueError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} file {path}: {exc}") from exc


def _load_instance(path: str) -> TmpInstance:
    return _load(path, TmpInstance.from_dict, "instance")


def _resolve_hardware(args) -> Graph:
    if args.hardware != "custom":
        return HARDWARE_PRESETS[args.hardware]()
    if not args.hardware_file:
        raise InputError("--hardware custom requires --hardware-file")
    return _load(args.hardware_file, Graph.from_dict, "hardware")


def _emit(payload: dict, out: str | None) -> None:
    """Write the JSON to --out, then print it. A reader that closes stdout
    early (`| head`) loses the rest of the output but changes neither the
    file nor the exit code."""
    text = json.dumps(payload, indent=2)
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; make that a no-op
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_generate(args) -> int:
    inst = generate_instance(_resolve_hardware(args), args.density, args.seed)
    _emit(inst.to_dict(), args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    _emit(bound_report(_load_instance(args.instance)).to_dict(), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = _load_instance(args.instance)
    if args.steps is not None:
        ms_at = oracle_min_swaps_at(inst, args.steps, node_limit=args.node_limit)
        _emit({"steps": args.steps, "ms_at": ms_at, "feasible": ms_at is not None}, args.out)
        return EXIT_OK if ms_at is not None else EXIT_INFEASIBLE
    mt = oracle_min_steps(inst, node_limit=args.node_limit)
    ms = oracle_min_swaps(inst, node_limit=args.node_limit)
    _emit({"mt": mt, "ms": ms}, args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    res = solve_min_swaps(_load_instance(args.instance), args.time_limit)
    _emit(res.to_dict(), args.out)
    return EXIT_OK if res.complete else EXIT_PARTIAL


def cmd_route(args) -> int:
    res = route(_load_instance(args.instance), args.time_limit)
    _emit(res.to_dict(), args.out)
    return EXIT_OK if res.complete and res.routed_circuit is not None else EXIT_PARTIAL


def cmd_schedule(args) -> int:
    inst = _load_instance(args.instance)
    sol = _load(args.solution, SwapSolution.from_dict, "solution")
    outcome = schedule_circuit(inst, sol, time_limit=args.time_limit)
    _emit({
        "circuit": outcome.circuit.to_dict(),
        "extra_layers": outcome.extra_layers,
        "depth": outcome.circuit.depth,
        "method": outcome.method,
    }, args.out)
    return EXIT_OK


def cmd_heuristic(args) -> int:
    sol = dfs_swap_solve(_resolve_hardware(args))
    _emit({"solution": sol.to_dict(), "steps": sol.steps, "swaps": sol.swaps}, args.out)
    return EXIT_OK


def cmd_polytope(args) -> int:
    g = hardware_to_bipartite(_resolve_hardware(args))
    constraints = exact_description(g, args.relation)
    payload = dict(verify_integer_hull(
        g, args.relation, constraints=constraints, num_objectives=args.objectives, seed=args.seed
    ))
    payload["constraints"] = [c.tag for c in constraints]
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    if (args.solution is None) == (args.circuit is None):
        raise InputError("pass exactly one of --solution / --circuit")
    if args.solution:
        sol = _load(args.solution, SwapSolution.from_dict, "solution")
        verdict = validate_swap_solution(inst, sol)
    else:
        circ = _load(args.circuit, RoutedCircuit.from_dict, "circuit")
        verdict = validate_routed_circuit(inst, circ)
    _emit(verdict.to_dict(), args.out)
    return EXIT_OK if verdict.valid else EXIT_INFEASIBLE


def cmd_ingest(args) -> int:
    hardware = _resolve_hardware(args)
    inst = circuit_ingest(_read(args.gates), hardware)
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

    p = sub.add_parser("bounds", help="lower bounds and gains for an instance")
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
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except InfeasibleInstanceError as exc:  # a ValueError too, so caught first
            _emit({"error": str(exc)}, args.out)
            return EXIT_INFEASIBLE
        except ScheduleSolveError as exc:
            _emit({"error": str(exc)}, args.out)
            return EXIT_PARTIAL
    except (InputError, ValueError) as exc:  # also what _emit raises just above
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
