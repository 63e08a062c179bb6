import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commroute
import commroute.cli as cli
import commroute.pipeline as pipeline
import commroute.scheduler as scheduler
from commroute.bounds import InfeasibleInstanceError
from commroute.cli import main
from commroute.graphs import Graph, complete_graph, path_graph, star_graph
from commroute.milp import SolveResult
from commroute.milp.models import SolveAttempt
from commroute.solutions import TmpInstance


@pytest.fixture
def tiny_instance(tmp_path):
    inst = TmpInstance(path_graph(3), complete_graph(3))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_generate(capsys):
    code, payload, _ = run(capsys, "generate", "--hardware", "grid3x3",
                           "--density", "1.0", "--seed", "0")
    assert code == 0
    assert payload["hardware"]["n"] == 9
    assert len(payload["algorithm"]["edges"]) == 36


def test_generate_out_file(capsys, tmp_path):
    out = tmp_path / "inst.json"
    code, payload, _ = run(capsys, "generate", "--hardware", "twin5cycles",
                           "--density", "0.2", "--seed", "4", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == payload


def test_bounds(capsys, tiny_instance):
    code, payload, _ = run(capsys, "bounds", tiny_instance)
    assert code == 0
    assert set(payload) == {"swap_lower", "step_lower", "max_gain_per_swap", "max_gain_per_step"}


@pytest.fixture
def unroutable_instance(tmp_path):
    # star gates on two disjoint hardware edges: no swap meets a new pair
    inst = TmpInstance(Graph(4, [(0, 1), (2, 3)]), star_graph(4))
    path = tmp_path / "unroutable.json"
    path.write_text(json.dumps(inst.to_dict()))
    return str(path)


def test_bounds_infeasible(capsys, unroutable_instance):
    code, payload, _ = run(capsys, "bounds", unroutable_instance)
    assert code == 2
    assert "infeasible" in payload["error"]


def test_oracle(capsys, tiny_instance):
    code, payload, _ = run(capsys, "oracle", tiny_instance)
    assert code == 0
    assert payload == {"mt": 1, "ms": 1}


def test_oracle_infeasible_horizon(capsys, tiny_instance):
    code, payload, _ = run(capsys, "oracle", tiny_instance, "--steps", "0")
    assert code == 2
    assert payload["feasible"] is False


def test_oracle_infeasible_instance(capsys, unroutable_instance):
    code, payload, _ = run(capsys, "oracle", unroutable_instance)
    assert code == 2
    assert "error" in payload


@pytest.mark.parametrize("cmd", ["solve", "route"])
def test_pipeline_infeasible_instance(capsys, unroutable_instance, cmd):
    code, payload, err = run(capsys, cmd, unroutable_instance)
    assert code == 2
    assert "no swap sequence" in payload["error"]
    assert not err


def test_route_on_disconnected_hardware(capsys, tmp_path):
    inst = TmpInstance(Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)]), star_graph(4))
    path = tmp_path / "split.json"
    path.write_text(json.dumps(inst.to_dict()))
    code, payload, _ = run(capsys, "route", str(path))
    assert code == 0
    assert (payload["mt"], payload["ms"]) == (1, 1)
    assert payload["routed_circuit"] is not None


def test_solve(capsys, tiny_instance):
    code, payload, _ = run(capsys, "solve", tiny_instance)
    assert code == 0
    assert payload["mt"] == 1 and payload["ms"] == 1
    assert payload["ms_optimal"]


def test_route_and_verify(capsys, tmp_path, tiny_instance):
    circ = tmp_path / "circ.json"
    code, payload, _ = run(capsys, "route", tiny_instance, "--out", str(circ))
    assert code == 0
    circuit_file = tmp_path / "circuit.json"
    circuit_file.write_text(json.dumps(payload["routed_circuit"]))
    code, verdict, _ = run(capsys, "verify", tiny_instance, "--circuit", str(circuit_file))
    assert code == 0
    assert verdict["valid"]


def test_verify_rejects_bad_solution(capsys, tmp_path, tiny_instance):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"initial": [0, 1, 2], "matchings": []}))
    code, verdict, _ = run(capsys, "verify", tiny_instance, "--solution", str(sol))
    assert code == 2
    assert not verdict["valid"]


def test_verify_needs_exactly_one_target(capsys, tiny_instance):
    code, _, err = run(capsys, "verify", tiny_instance)
    assert code == 4
    assert "error" in json.loads(err)


def test_schedule(capsys, tmp_path, tiny_instance):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"initial": [0, 1, 2], "matchings": [[[0, 1]]]}))
    code, payload, _ = run(capsys, "schedule", tiny_instance, str(sol))
    assert code == 0
    # the triangle's three gates need three layers, and none rides the swap
    # layer: the load bound 2 is one short, and the search makes 5 placements
    assert (payload["depth"], payload["extra_layers"], payload["method"]) == (4, 3, "search")
    assert (payload["load_bound"], payload["work"]) == (2, 5)


def test_heuristic(capsys, tmp_path):
    hw = tmp_path / "h.json"
    hw.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
    code, payload, _ = run(capsys, "heuristic", "--hardware", "custom",
                           "--hardware-file", str(hw))
    assert code == 0
    assert set(payload) == {"solution", "steps", "swaps"}
    assert payload["swaps"] <= 4


def test_polytope(capsys, tmp_path):
    hw = tmp_path / "h.json"
    hw.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    code, payload, _ = run(capsys, "polytope", "--hardware", "custom",
                           "--hardware-file", str(hw), "--objectives", "20")
    assert code == 0
    assert payload["integral"] and payload["zero_one_exact"]


def test_polytope_without_objectives_is_input_error(capsys):
    code, payload, err = run(capsys, "polytope", "--hardware", "grid3x3", "--objectives", "0")
    assert code == 4
    assert payload is None
    assert "num_objectives" in json.loads(err)["error"]


def test_ingest(capsys, tmp_path):
    gates = tmp_path / "gates.txt"
    gates.write_text("a b\nb c\na b\n")
    hw = tmp_path / "h.json"
    hw.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    code, payload, _ = run(capsys, "ingest", str(gates), "--hardware", "custom",
                           "--hardware-file", str(hw))
    assert code == 0
    assert payload["algorithm"]["edges"] == [[0, 1], [1, 2]]


def test_missing_file_is_input_error(capsys):
    code, payload, err = run(capsys, "oracle", "no-such-file.json")
    assert code == 4
    assert "error" in json.loads(err)


def test_unknown_flag_is_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--no-such-flag"])
    assert exc.value.code == 4


@pytest.mark.parametrize("flags", [
    ["solve", "--no-step-bound"],
    ["solve", "--fixing", "off"],
    ["route", "--fixing", "on"],
    ["schedule", "--greedy"],
    ["solve", "--symmetry"],
    ["solve", "--variant", "pair-mccormick"],
    ["route", "--variant", "indicator-full"],
], ids=["no-step-bound", "fixing-off", "fixing-on", "greedy", "symmetry", "solve-variant",
        "route-variant"])
def test_removed_flags_are_input_errors(capsys, tmp_path, tiny_instance, flags):
    command, *rest = flags
    argv = [command, tiny_instance]
    if command == "schedule":
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"initial": [0, 1, 2], "matchings": [[[0, 1]]]}))
        argv.append(str(sol))
    with pytest.raises(SystemExit) as exc:
        main(argv + rest)
    assert exc.value.code == 4
    assert "error" in json.loads(capsys.readouterr().err.splitlines()[-1])


def test_timeout_exit_code(capsys, tmp_path, monkeypatch):
    # no search budget, and every HiGHS solve times out
    inst = TmpInstance(path_graph(6), star_graph(6))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(inst.to_dict()))
    monkeypatch.setattr(pipeline, "SEARCH_BUDGET", 0)
    monkeypatch.setattr(pipeline.ScipyBackend, "solve",
                        lambda self, model, time_limit=None: SolveResult("timeout"))
    code, payload, _ = run(capsys, "solve", str(path))
    assert code == 3
    assert not payload["ms_optimal"]


def test_timeout_after_a_search_certified_mt_exit_code(capsys, tmp_path, monkeypatch):
    # the search proves mt within a budget its A* at mt runs out of, then
    # the phase-2 solve times out: the output keeps mt and the run still
    # exits 3
    monkeypatch.setattr(pipeline, "SEARCH_BUDGET", 20_000)
    inst = pipeline.generate_instance("grid3x3", 0.7, 0)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_dict()))
    monkeypatch.setattr(pipeline, "solve_min_swaps_at",
                        lambda *args, **kwargs: SolveAttempt("timeout", None, None))
    code, payload, _ = run(capsys, "solve", str(path), "--time-limit", "1")
    assert code == 3
    assert payload["mt"] == 3 and payload["mt_optimal"]
    assert payload["ms_at_mt"] is None and not payload["ms_at_mt_optimal"]


def test_route_schedule_timeout_exit_code(capsys, tmp_path, monkeypatch):
    # gates already adjacent, so the schedule solve is the only solve; no
    # search budget, so the schedule goes to HiGHS
    inst = TmpInstance(path_graph(6), path_graph(6))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_dict()))
    monkeypatch.setattr(scheduler, "SEARCH_BUDGET", 0)
    monkeypatch.setattr(scheduler.ScipyBackend, "solve",
                        lambda self, model, time_limit=None: SolveResult("timeout"))
    code, payload, _ = run(capsys, "route", str(path))
    assert code == 3
    assert payload["ms_optimal"]
    assert payload["routed_circuit"] is None
    assert "schedule solve ended with status timeout" in payload["notes"]


def test_schedule_timeout_exit_code(capsys, tmp_path, tiny_instance, monkeypatch):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"initial": [0, 1, 2], "matchings": [[[0, 1]]]}))
    monkeypatch.setattr(scheduler, "SEARCH_BUDGET", 0)
    monkeypatch.setattr(scheduler.ScipyBackend, "solve",
                        lambda self, model, time_limit=None: SolveResult("timeout"))
    code, payload, _ = run(capsys, "schedule", tiny_instance, str(sol))
    assert code == 3
    assert payload == {"error": "schedule solve ended with status timeout"}


@pytest.mark.parametrize("argv, message", [
    (["generate", "--density", "1.5"], "density"),
    (["heuristic", "--hardware", "custom"], "--hardware-file"),
    (["oracle", "{instance}", "--node-limit", "0"], "oracle limit is 0"),
    (["ingest", "{gates}"], "expected two qubit labels"),
    (["ingest", "{binary}"], "cannot read"),
    (["bounds", "{gates}"], "is not valid JSON"),
    (["schedule", "{instance}", "{solution}"], "initial placement has size 2, expected 3"),
    (["heuristic", "--hardware", "custom", "--hardware-file", "{graph}"],
     "graph object needs 'n' and 'edges'"),
    (["heuristic", "--hardware", "custom", "--hardware-file", "{float_graph}"],
     "expected an integer, got 4.7"),
    (["verify", "{instance}", "--solution", "{float_solution}"], "expected an integer, got 1.5"),
    (["heuristic", "--hardware", "custom", "--hardware-file", "{string_graph}"],
     "expected an integer, got '4'"),
    (["verify", "{instance}", "--solution", "{string_solution}"], "expected an integer, got '1'"),
    (["verify", "{instance}", "--circuit", "{int_layer_circuit}"],
     "circuit layer 5 is not an object"),
    (["solve", "{instance}", "--time-limit", "0"], "time_limit must be positive"),
    (["route", "{instance}", "--time-limit", "-1"], "time_limit must be positive"),
    (["schedule", "{instance}", "{valid_solution}", "--time-limit", "0"],
     "time_limit must be positive"),
], ids=["generate-density", "heuristic-no-file", "oracle-node-limit", "ingest-one-label",
        "ingest-not-utf8",
        "bounds-bad-instance", "schedule-wrong-size", "heuristic-bad-graph",
        "heuristic-float-graph", "verify-float-solution", "heuristic-string-graph",
        "verify-string-solution", "verify-int-layer", "solve-zero-time-limit",
        "route-negative-time-limit", "schedule-zero-time-limit"])
def test_input_errors_exit_4(capsys, tmp_path, tiny_instance, argv, message):
    gates = tmp_path / "gates.txt"
    gates.write_text("a b\nc\n")
    binary = tmp_path / "gates.bin"
    binary.write_bytes(b"\xff\xfe a b\n")
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"initial": [0, 1], "matchings": []}))
    valid_solution = tmp_path / "valid_sol.json"
    valid_solution.write_text(json.dumps({"initial": [0, 1, 2], "matchings": [[[0, 1]]]}))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps([1, 2]))
    # int() would read this as the 4-node path 0-1-2-3
    float_graph = tmp_path / "float_graph.json"
    float_graph.write_text(json.dumps({"n": 4.7, "edges": [[0, 1], [1.9, 2], [2, 3]]}))
    float_solution = tmp_path / "float_sol.json"
    float_solution.write_text(json.dumps({"initial": [0, 1.5, 2], "matchings": [[[0, 1]]]}))
    # int() would read these as the path 0-1-2-3 and the placement (1, 0, 2)
    string_graph = tmp_path / "string_graph.json"
    string_graph.write_text(json.dumps({"n": "4", "edges": [[0, 1], [" 1 ", 2], [2, 3]]}))
    string_solution = tmp_path / "string_sol.json"
    string_solution.write_text(json.dumps({"initial": ["1", 0, 2], "matchings": [[[0, 1]]]}))
    int_layer_circuit = tmp_path / "int_layer.json"
    int_layer_circuit.write_text(json.dumps({"initial": [0, 1, 2], "layers": [5]}))
    argv = [a.format(instance=tiny_instance, gates=gates, binary=binary, solution=solution,
                     valid_solution=valid_solution, graph=graph, float_graph=float_graph,
                     float_solution=float_solution, string_graph=string_graph,
                     string_solution=string_solution, int_layer_circuit=int_layer_circuit)
            for a in argv]
    code, payload, err = run(capsys, *argv)
    assert code == 4
    assert payload is None
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["generate", "--density", "0.3", "--out", "{tmp}"],
    # exit 2 before the write fails
    ["solve", "{unroutable}", "--out", "{tmp}/missing/x.json"],
], ids=["generate-out-is-directory", "solve-infeasible-out-in-missing-directory"])
def test_unwritable_out_exits_4(capsys, tmp_path, unroutable_instance, argv):
    argv = [a.format(tmp=tmp_path, unroutable=unroutable_instance) for a in argv]
    code, payload, err = run(capsys, *argv)
    assert code == 4
    assert payload is None
    assert "cannot write" in json.loads(err)["error"]


# each subcommand: its arguments, and the library call it hands the input to
SUBCOMMANDS = {
    "generate": (["--density", "0.3"], "generate_instance"),
    "bounds": (["{instance}"], "bound_report"),
    "oracle": (["{instance}"], "oracle_min_steps"),
    "solve": (["{instance}"], "solve_min_swaps"),
    "route": (["{instance}"], "route"),
    "schedule": (["{instance}", "{solution}"], "schedule_circuit"),
    "heuristic": ([], "dfs_swap_solve"),
    "polytope": ([], "exact_description"),
    "verify": (["{instance}", "--solution", "{solution}"], "validate_swap_solution"),
    "ingest": (["{gates}"], "circuit_ingest"),
}


@pytest.mark.parametrize("command, error, expected", [
    *[(command, ValueError, 4) for command in SUBCOMMANDS],
    *[(command, InfeasibleInstanceError, 2) for command in ("bounds", "oracle", "solve", "route")],
])
def test_exit_code_contract(capsys, tmp_path, monkeypatch, tiny_instance,
                            command, error, expected):
    def refuse(*args, **kwargs):
        raise error("refused")

    args, call = SUBCOMMANDS[command]
    monkeypatch.setattr(cli, call, refuse)
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"initial": [0, 1, 2], "matchings": [[[0, 1]]]}))
    gates = tmp_path / "gates.txt"
    gates.write_text("a b\n")
    argv = [a.format(instance=tiny_instance, solution=solution, gates=gates) for a in args]
    code, payload, err = run(capsys, command, *argv)
    assert code == expected
    if expected == 4:
        assert payload is None
        assert json.loads(err) == {"error": "refused"}
    else:
        assert payload == {"error": "refused"}
        assert not err


def test_closed_stdout_keeps_exit_code_and_out_file(tmp_path):
    # a 300-node instance prints far more than a pipe buffer holds, so the
    # CLI is still writing when the reader closes its end
    hw = tmp_path / "path300.json"
    hw.write_text(json.dumps(path_graph(300).to_dict()))
    out = tmp_path / "inst.json"
    src = str(Path(commroute.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "commroute.cli", "generate", "--hardware", "custom",
         "--hardware-file", str(hw), "--density", "0.2", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err, err
    assert len(json.loads(out.read_text())["algorithm"]["edges"]) == 8970
