"""The benchmark's per-layer tracer still finds every layer it times.

``perfbench/trace.py`` wraps library functions at the names the CLI
calls them by and counts what they return; a rename or a changed return
shape shows up there as a missing target or a count of zero. The tracer
runs in a subprocess: its module name shadows the standard library's
``trace``, and its wrappers stay installed for the life of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import importlib.util
import json
import sys

perfbench = sys.argv[1]
sys.path.append(perfbench)  # for its ``workloads``; appended, so ``trace`` stays stdlib
spec = importlib.util.spec_from_file_location("perfbench_trace", perfbench + "/trace.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

from chaintrace.cli import main

with open("cfg.json", "w") as fh:
    json.dump({"users": 10, "duration": 3600}, fh)
inputs = [
    main(["simulate", "--seed", "42", "--out", "case.jsonl", "--truth", "case.tsv"]),
    main(["simulate", "--seed", "1", "--config", "cfg.json", "--attack", "false",
          "--out", "clean.jsonl", "--truth", "clean.tsv"]),
]
t = tracer.Tracer()
tracer.install_command_targets(t)
traced = [
    main(["detect", "--events", "case.jsonl", "--out", "report.jsonl"]),
    main(["detect", "--events", "case.jsonl", "--out", "report2.jsonl",
          "--export", "graph.dot"]),
    main(["train", "--events", "clean.jsonl", "--out", "model.json"]),
    main(["score", "--events", "case.jsonl", "--model", "model.json",
          "--out", "scored.jsonl"]),
]
print(json.dumps({"exits": inputs + traced, "missing": t.missing,
                  "counts": dict(t.counts),
                  "calls": {name: st[0] for name, st in t.stats.items()}}))
"""


def test_tracer_finds_every_layer(tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    p = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["exits"] == [0, 0, 4, 4, 0, 0]
    assert result["missing"] == {}
    counts = result["counts"]
    # detect --export is the only command that draws the exported graph
    for name in ("graph.build.nodes", "graph.rules.sequences", "killchain.candidates",
                 "ocsvm.train.iterations"):
        assert counts.get(name, 0) > 0, name
    # the report stage is timed only through calls at the names cli uses
    for name in ("killchain.match", "killchain.report"):
        assert result["calls"].get(name, 0) > 0, name
