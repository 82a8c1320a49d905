"""Rate and peak RSS of ``ingest`` (raw and canonical) and ``pseudonymize``
reading an ``--events`` file in 1 and in 2 forced parts.

Each input is the stream of ``SimConfig(seed=SEED, duration=28800)`` (the
perfbench ``walkthrough`` stream, about 60k events), expanded with noise
(``expand_with_noise``, seed SEED) to N events, or as it is if N is no
larger: 60k and 500k by default.
It is written as a canonical file and as a raw file. On each input the
CLI runs as a child process, one at a time, with ``store._usable_cpus``
set to the part count (1 or 2) before ``chaintrace.cli.main`` runs:
``ingest --format raw`` into a new store, ``ingest`` of the canonical
file into another, and ``pseudonymize`` of the canonical file with a copy
of one new vault, the run order of the part counts alternating, RUNS
times each. A run's wall time is taken around the child, and its peak
RSS is the child's ``ru_maxrss`` from ``os.wait4``, which on Linux is the
largest of the child's and of the workers it forked and reaped. The
medians are recorded, as events per second (kev/s) and MiB. The outputs
of 2 parts must equal those of 1 part byte for byte, and the raw store
the canonical one.

Usage:
  python benchmarks/bench_ingest.py [--src DIR] [--label NAME] [--out FILE]
      [--sizes N [N ...]]

``--src`` names the source tree to import chaintrace from (default: this
repository's ``src``). This process imports only the standard library,
and a child writes the inputs, since a child's peak RSS count starts at
the size of the process that forked it. With ``--out``, the results are
stored in FILE under ``runs[NAME][N]``, keeping the other labels and
sizes already there.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SEED = 1
DURATION = 28_800
SIZES = (60_000, 500_000)
RUNS = 3
PARTS = (1, 2)
# the CLI with the usable CPUs, and so the parts of a file, forced
FORCED_CLI = ("import sys; from chaintrace import store; "
          "store._usable_cpus = lambda: int(sys.argv[1]); "
          "from chaintrace.cli import main; sys.exit(main(sys.argv[2:]))")
# writes the inputs of one size: ROOT N SEED DURATION
GENERATE = """
import os, sys
from chaintrace.events import encode_event, render_raw_line
from chaintrace.simulate import SimConfig, expand_with_noise, simulate
from chaintrace.vault import create_vault

root, n, seed, duration = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
base, _ = simulate(SimConfig(seed=seed, duration=duration))
events = expand_with_noise(base, n / len(base), seed) if n > len(base) else base
with open(os.path.join(root, "events.jsonl"), "w", encoding="utf-8") as fh:
    fh.writelines(f"{encode_event(e)}\\n" for e in events)
with open(os.path.join(root, "raw.log"), "w", encoding="utf-8") as fh:
    for e in events:
        line = render_raw_line(e)
        fh.write(f"{line.source_kind}\\t{line.text}\\n")
if not os.path.exists(os.path.join(root, "vault.json")):
    create_vault(3, 5)[0].save(os.path.join(root, "vault.json"))
print(len(events))
"""

COMMANDS = {
    "ingest_raw": ["ingest", "--store", "store", "--events", "{raw}", "--format", "raw"],
    "ingest_canonical": ["ingest", "--store", "store", "--events", "{canonical}"],
    "pseudonymize": ["pseudonymize", "--events", "{canonical}", "--out", "pseudo.jsonl",
                     "--vault", "vault.json", "--shares-dir", "shares"],
}


def run_child(argv: list[str], cwd: str, env: dict) -> tuple[float, float]:
    """Wall seconds and peak RSS in MiB of ``argv`` run in ``cwd``."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(p.pid, 0)
    seconds = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{argv} exited {os.waitstatus_to_exitcode(status)}")
    return seconds, usage.ru_maxrss / 1024


def outputs(cwd: str) -> dict[str, str]:
    """The SHA-256 of each file a run left in ``cwd``, the manifest and the
    vault aside (they hold a time and fresh ciphertexts)."""
    files = {}
    for folder, _, names in os.walk(cwd):
        for name in names:
            if not name.startswith("manifest.") and name != "vault.json":
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    digest = hashlib.file_digest(fh, "sha256").hexdigest()
                files[os.path.relpath(path, cwd)] = digest
    return files


def write_inputs(root: str, n: int, env: dict) -> dict:
    p = subprocess.run([sys.executable, "-c", GENERATE, root, str(n), str(SEED), str(DURATION)],
                       env=env, check=True, capture_output=True, text=True)
    return {"canonical": os.path.join(root, "events.jsonl"),
            "raw": os.path.join(root, "raw.log"),
            "vault": os.path.join(root, "vault.json"), "events": int(p.stdout)}


def measure(src: str, sizes: list[int]) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import chaintrace.cli"], env=env, check=True)
    root = tempfile.mkdtemp(prefix="bench_ingest.")
    result = {}
    try:
        for n in sizes:
            inputs = write_inputs(root, n, env)
            row = {"events": inputs["events"]}
            for command, argv in COMMANDS.items():
                times = {k: [] for k in PARTS}
                rss = {k: [] for k in PARTS}
                seen = {}
                for run in range(RUNS):
                    for k in PARTS if run % 2 == 0 else reversed(PARTS):
                        cwd = os.path.join(root, "run")
                        shutil.rmtree(cwd, ignore_errors=True)
                        os.makedirs(cwd)
                        shutil.copyfile(inputs["vault"], os.path.join(cwd, "vault.json"))
                        seconds, peak = run_child(
                            [sys.executable, "-c", FORCED_CLI, str(k),
                             *(a.format(**inputs) for a in argv)], cwd, env)
                        times[k].append(seconds)
                        rss[k].append(peak)
                        seen.setdefault(k, outputs(cwd))
                if seen[1] != seen[2]:
                    raise SystemExit(f"{command} on {n} events: 2 parts differ from 1")
                seen_store = {name: data for name, data in seen[1].items()
                              if name.startswith("store")}
                if command == "ingest_raw":
                    raw_store = seen_store
                elif command == "ingest_canonical" and seen_store != raw_store:
                    raise SystemExit(f"{n} events: the raw store differs from the canonical one")
                row[command] = {
                    str(k): {"kev_s": round(inputs["events"] / statistics.median(times[k]) / 1e3, 1),
                             "s": round(statistics.median(times[k]), 3),
                             "peak_rss_mib": round(statistics.median(rss[k]), 2)}
                    for k in PARTS}
            result[str(n)] = row
            print(json.dumps({n: row}), flush=True)
            for name in ("canonical", "raw"):
                os.remove(inputs[name])
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
                    help="input sizes in events (default: 60000 500000)")
    args = ap.parse_args()
    result = measure(os.path.abspath(args.src), args.sizes)
    if args.out:
        doc = {"runs": {}}
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["machine"] = {"nproc": len(os.sched_getaffinity(0)),
                          "python": platform.python_version()}
        doc["config"] = {"seed": SEED, "duration": DURATION, "runs": RUNS, "parts": PARTS,
                         "statistic": "median of interleaved runs; peak RSS of the child"}
        doc["runs"].setdefault(args.label, {}).update(result)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
