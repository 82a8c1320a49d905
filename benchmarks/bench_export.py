"""Wall time and peak RSS of ``detect`` and ``detect --export`` on a store.

Each store holds the stream of the default ``SimConfig`` expanded with
noise (``expand_with_noise``, seed SEED) to N events: 250k and 520k by
default, 5M with ``--sizes 250000 520000 5000000``. On each store, the
CLI runs as a child process, one at a time: ``detect``, ``detect --export``
(DOT) and ``detect --export --format graphml``, interleaved, RUNS times
each. A run's wall time is taken around the child, and its peak RSS is
the child's ``ru_maxrss`` from ``os.wait4``, which on Linux is the
largest of the child's and of the workers it forked and reaped. The
medians are recorded, with the size of the exported file. Every
export's report must equal plain ``detect``'s byte for byte.

``--modes`` runs only the modes it names, for example to leave out an
export that would not fit in memory; plain ``detect`` always runs, since
the exports' reports are checked against it.

The stores are built with the chaintrace of ``--src`` and removed at the
end. Before the runs, one import of ``chaintrace.cli`` in a child writes
the tree's bytecode cache, so no timed run compiles it.

Usage:
  python benchmarks/bench_export.py [--src DIR] [--label NAME] [--out FILE]
      [--sizes N [N ...]] [--modes MODE [MODE ...]]

``--src`` names the source tree to import chaintrace from (default: this
repository's ``src``). With ``--out``, the results are stored in FILE
under ``runs[NAME][N]``, keeping the other labels and sizes already
there.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SEED = 99
SIZES = (250_000, 520_000)
RUNS = 3
MODES = {
    "detect": [],
    "export_dot": ["--export", "graph.dot"],
    "export_graphml": ["--export", "graph.graphml", "--format", "graphml"],
}


def run_child(argv: list[str], cwd: str, env: dict) -> tuple[float, float]:
    """Wall seconds and peak RSS in MiB of ``argv`` run in ``cwd``."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(p.pid, 0)
    seconds = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode not in (0, 3, 4):
        raise SystemExit(f"{argv} exited {p.returncode}")
    return seconds, usage.ru_maxrss / 1024


def measure(src: str, sizes: list[int], modes: list[str]) -> dict:
    from chaintrace.simulate import SimConfig, expand_with_noise, simulate
    from chaintrace.store import EventStore

    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import chaintrace.cli"], env=env, check=True)
    base, _ = simulate(SimConfig())
    root = tempfile.mkdtemp(prefix="bench_export.")
    result = {}
    try:
        for n in sizes:
            store = os.path.join(root, f"store-{n}")
            s = EventStore(store)
            s.append(expand_with_noise(base, n / len(base), seed=SEED))
            s.close()
            times = {mode: [] for mode in modes}
            rss = {mode: [] for mode in modes}
            row = {"events": s.count()}
            for run in range(RUNS):
                for mode in modes if run % 2 == 0 else reversed(modes):
                    cwd = os.path.join(root, mode)
                    os.makedirs(cwd, exist_ok=True)
                    seconds, peak = run_child(
                        [sys.executable, "-m", "chaintrace.cli", "detect", "--store", store,
                         "--out", "report.jsonl", *MODES[mode]], cwd, env)
                    times[mode].append(seconds)
                    rss[mode].append(peak)
            with open(os.path.join(root, "detect", "report.jsonl"), "rb") as fh:
                plain = fh.read()
            for mode in modes:
                extra = MODES[mode]
                row[mode] = {"s": round(statistics.median(times[mode]), 2),
                             "peak_rss_mib": round(statistics.median(rss[mode]), 1)}
                if extra:
                    with open(os.path.join(root, mode, "report.jsonl"), "rb") as fh:
                        if fh.read() != plain:
                            raise SystemExit(f"{mode} on {n} events: report differs")
                    row[mode]["bytes"] = os.path.getsize(os.path.join(root, mode, extra[1]))
            result[str(n)] = row
            print(json.dumps({n: row}), flush=True)
            shutil.rmtree(store)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return result


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, "..", "src"),
                    help="source tree to import chaintrace from")
    ap.add_argument("--label", default="current", help="name of this run")
    ap.add_argument("--out", help="JSON file to store the run in")
    ap.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                    help="store sizes in events (default: 250000 520000)")
    ap.add_argument("--modes", nargs="+", choices=list(MODES)[1:], default=list(MODES)[1:],
                    help="the exports to run (default: both)")
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)

    result = measure(src, args.sizes, ["detect", *args.modes])
    if args.out:
        doc = {"runs": {}}
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["machine"] = {"nproc": len(os.sched_getaffinity(0)),
                          "python": platform.python_version()}
        doc["config"] = {"seed": SEED, "runs": RUNS,
                         "statistic": "median of interleaved runs; peak RSS of the child"}
        doc["runs"].setdefault(args.label, {}).update(result)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
