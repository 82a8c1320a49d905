"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python -m pytest perfbench/test_smoke.py
It checks that every metric named in BENCHMARK.json is printed with its
unit, that every CLI invocation is checked, and that the benchmark
refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.1"  # 52k-event store, 5k-event walkthrough, 2 h anomaly streams
COMMANDS = {"large_store": 1, "walkthrough": 3, "anomaly": 2}

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_prints_every_metric_and_checks_every_invocation(workload, trace):
    p = run(workload, trace)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # at least two untraced passes, plus the traced one
    per_pass = COMMANDS[workload]
    assert result["attempted"] % per_pass == 0
    assert result["attempted"] >= (2 + trace) * per_pass
    assert result["failed"] == 0 and result["correct"], p.stderr
    env = json.loads(lines[0])["env"]
    assert env["nproc"] >= 1 and env["blas_threads"] <= env["nproc"]
    if trace:
        assert json.loads(lines[-2])["missing"] == {}
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_check_reports_a_wrong_exit_status(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "workload": "large_store", "inputs": str(tmp_path),
        "invocations": [{"command": "detect", "out": str(tmp_path), "exit": 0}],
    }))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    p = subprocess.run([sys.executable, os.path.join(HERE, "check.py"), str(spec)],
                       env=env, capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == {"verdicts": ["exit 0, expected 4"], "precision": []}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    p = run("anomaly", 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_layer_map_matches_the_manifest():
    with open(os.path.join(HERE, "layers.json"), "r", encoding="utf-8") as fh:
        layers = json.load(fh)
    assert [{"name": k, "unit": v["unit"], "better": v["better"]}
            for k, v in layers.items()] == BENCH["per_layer"]
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    names = {w["name"] for w in BENCH["workloads"]}
    for spec in layers.values():
        for ref in spec["moves"]:
            metric, _, workload = ref.partition("@")
            assert metric in e2e and workload in names, ref
