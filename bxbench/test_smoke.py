"""Smoke test of the benchmark itself.

    python3 -m pytest bxbench/test_smoke.py

Runs each workload for a few ops in a traced pass, twice with the same seed,
and checks that every count repeats exactly and that the emitted metrics are
the ones BENCHMARK.json lists.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OPS = {"harness": 40, "sweep": 4, "solve-large": 3}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bxbench" / "run.py"), "--seed", "3", *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


def traced(workload: str) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seconds", "1", "--trace", "1", "--ops", str(OPS[workload]))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    counts = next(json.loads(line[len("counts: "):]) for line in lines if line.startswith("counts: "))
    return counts, json.loads(lines[-1])


def declared(kind: str) -> set[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for metric in doc[kind]}


@pytest.mark.parametrize("workload", sorted(OPS))
def test_traced_counts_repeat(workload):
    first_counts, first = traced(workload)
    second_counts, second = traced(workload)
    assert first["correct"] and second["correct"]
    assert first["attempted"] == OPS[workload]
    assert first_counts == second_counts
    assert first_counts["calls"]["op"] == OPS[workload]

    def count_metrics(doc):
        return {k: v["value"] for k, v in doc["metrics"].items() if v["unit"] == "count"}

    assert count_metrics(first) == count_metrics(second)
    assert set(first["metrics"]) == declared("per_layer")
    if workload == "sweep" and first["failed"] == 0:
        # measure_ratio re-solves the oracle for each of the four mechanisms
        assert first["metrics"]["verification.oracle.calls_per_graph"]["value"] == 4.0


def test_untraced_run_reports_end_to_end_metrics():
    proc = bench("--workload", "solve-large", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    assert set(doc["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bxbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "harness", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
