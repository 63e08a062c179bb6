"""Self-check of the benchmark on reduced instance sets.

    python3 -m pytest perfbench/test_selfcheck.py

Runs every workload through the command line, both untraced and traced,
and checks that each metric BENCHMARK.json names is printed with its unit;
then feeds a wrong reference answer and checks that it counts as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--reduced"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_reference_counts_as_failure():
    args = run.argparse.Namespace(workload="route_small", seed=3, seconds=0, reduced=True)
    wl, setup_s = run.setup(args.workload, args.seed, args.reduced)
    import workloads

    name, inst = workloads.random_pairs(args.seed, 1)[0]
    truth = workloads.References().answer(name, inst)
    wl.ops[0] = workloads.route_op(name, inst, dict(truth, ms=truth["ms"] + 1))
    _, report, passes = run.end_to_end(args, wl, setup_s)
    assert report["fail_rate"] == 1 / len(wl.ops)
    assert [f.split(":")[0] for p in passes for f in p["failures"]] == [name]
