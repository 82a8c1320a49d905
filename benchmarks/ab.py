"""Interleaved A/B pairs of perfbench runs: two revisions, one workload.

Usage (from the repository root):
  python3 benchmarks/ab.py --base REV [--head REV] --pairs N --workload W
      [--seed S] [--out FILE]

Each revision is exported with ``git archive`` into a temporary
directory; without ``--head``, the head side is the working tree as
``git add -A`` would stage it (tracked and untracked files, ignored ones
left out). So the repository and its ``.git`` are left as they are, and
neither tree holds a bytecode cache. Pair i runs, on each side, one at a
time, ``perfbench/run.py --workload W --seed S+i --seconds 10 --trace 0``
with ``PYTHONDONTWRITEBYTECODE=1``; the base runs first in even pairs
and the head first in odd ones. Two runs never overlap, since a second
benchmark would take a core from the first.

For each end-to-end metric of the base's ``BENCHMARK.json`` it prints
each side's median and quartiles, the median of the pairs' differences
(head minus base) and the pairs in which the head was better, and it
prints one JSON record of every run and that summary as
its last line, also written to FILE with ``--out``. A run that fails or
fails its checks is kept in the record and left out of the summary, with
the other run of its pair; the exit status is then 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "10"
RUN_TIMEOUT_S = 600


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def export(rev: str | None, dest: str) -> str:
    """Write revision ``rev`` (None: the working tree) to ``dest``; return
    the full commit id, or "working tree"."""
    if rev is None:
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in names.decode().split("\0"):
            src = os.path.join(ROOT, name)
            if name and os.path.isfile(src):  # a deleted file stays listed
                os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, name))
        return "working tree"
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)
    return commit


def run(tree: str, workload: str, seed: int) -> dict:
    """One perfbench run in ``tree``: its metric values, or why it failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"]
    try:
        p = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"no result in {RUN_TIMEOUT_S} s"}
    error = f"exit {p.returncode}: {p.stderr.strip()[-300:]}"
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return {"ok": False, "error": error}
    if p.returncode == 0 and result.get("correct") is True and not result.get("failed"):
        return {"ok": True, "metrics": metrics}
    return {"ok": False, "metrics": metrics, "error": error}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    done = [r for r in runs if r["base"]["ok"] and r["head"]["ok"]]
    summary = {}
    for m in metrics if done else ():
        name, lower = m["name"], m["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in done]
        head = [r["head"]["metrics"][name] for r in done]
        summary[name] = {
            "unit": m["unit"], "bound": m.get("bound"),
            "base": spread(base), "head": spread(head),
            "change_median": statistics.median(h - b for b, h in zip(base, head)),
            "head_better": sum((h < b) if lower else (h > b) for b, h in zip(base, head)),
            "ties": sum(h == b for b, h in zip(base, head)),
            "pairs": len(done),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the base revision")
    ap.add_argument("--head", help="the head revision (default: the working tree)")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    ap.add_argument("--out", help="also write the JSON record to this file")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    # a terminated run still stops its child and removes the trees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    scratch = tempfile.mkdtemp(prefix="chaintrace-ab-")
    try:
        trees = {side: os.path.join(scratch, side) for side in ("base", "head")}
        revs = {"base": export(args.base, trees["base"]),
                "head": export(args.head, trees["head"])}
        with open(os.path.join(trees["base"], "BENCHMARK.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)["end_to_end"]
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], args.workload, seed)
            runs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics'] if pair[side]['ok'] else pair[side]['error']}"
                for side in ("base", "head")), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize(runs, metrics)
    print(f"workload {args.workload}: base {revs['base']}, head {revs['head']}")
    print(f"{'metric':<14}{'base median [Q1, Q3]':>32}{'head median [Q1, Q3]':>32}"
          f"{'paired change':>15}{'head better':>13}")
    for name, s in summary.items():
        cells = [f"{s[side]['median']:.3f} [{s[side]['q1']:.3f}, {s[side]['q3']:.3f}]"
                 for side in ("base", "head")]
        print(f"{name:<14}{cells[0]:>32}{cells[1]:>32}{s['change_median']:>+15.3f}"
              f"{s['head_better']:>7}/{s['pairs']}")
    failed = sum(not r[side]["ok"] for r in runs for side in ("base", "head"))
    if failed:
        print(f"{failed} run(s) failed; their pairs are left out of the summary")
    record = {"workload": args.workload, "base": revs["base"], "head": revs["head"],
              "seconds": float(SECONDS), "runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(json.dumps(record))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
