"""Tiny-size smoke test of the benchmark (not part of the tier-1 suite).

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted, that two traced runs
with one seed give identical counts, and that the benchmark refuses to run
without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"calls/sample", "probes/sample", "ops/sample", "bytes"}
EXACT_RATIOS = {"numerics.distinct_probe_ratio", "sampling.accept_ratio"}


def run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run(workload, trace=0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert first[spec["name"]]["unit"] == spec["unit"]
    exact = [name for name, m in first.items()
             if m["unit"] in COUNT_UNITS or name in EXACT_RATIOS]
    assert len(exact) == 26     # 23 counts, report.bytes and the two exact ratios
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "results", ".work"))
    cmd = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    proc = subprocess.run([sys.executable, *cmd[1:]], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
