"""Smoke test of the benchmark itself, at tiny orders and horizons.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
for every workload, that the checks pass, that traced counts repeat across
two same-seed runs, and that the benchmark refuses to run without the
library source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    detail, final = result(bench(ROOT, workload, trace))
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True, detail["checks"]
    assert final["attempted"] >= 1 and final["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = final["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    for key in ("commit", "env", "params", "outcome", "max_error", "checks"):
        assert key in detail
    assert detail["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_traced_counts_repeat_across_runs():
    runs = [result(bench(ROOT, "bump-2d", 1, seed=3))[1]["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in runs]
    assert counts[0] == counts[1]


def test_seed_changes_the_inputs():
    params = [result(bench(ROOT, "front-move", 0, seed=s))[0]["params"] for s in (0, 1)]
    assert params[0] != params[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "front-move", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
