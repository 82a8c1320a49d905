"""chaintrace pipeline benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs with the repository's simulator (set-up,
repeated and timed), then runs the workload's CLI commands in a closed
loop: one client, one ``python -m chaintrace.cli`` process at a time,
passes repeated until S seconds have gone by. Every invocation's output
is checked. With ``--trace 0`` the last line of stdout holds the
end-to-end metrics; with ``--trace 1`` a traced pass is added (see
trace.py) and it holds the per-layer metrics. Earlier lines hold the
environment and any per-layer target that could not be found.

This process imports only the standard library and stays small: a child
started from it begins its peak-RSS count at this process's size.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, ".out")

SETUPS = 2              # set-ups per run; setup_s is their median
STARTUP_SAMPLES = 5     # interpreter starts timed for cli.startup.s
DEADLINE_S = 165.0      # start no pass that would end after this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # One thread: the loop runs one thing at a time, and idle OpenBLAS
    # threads spinning on the other core made train's wall time noisier
    # (quartile spread 0.23 against 0.10) without making it faster.
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def environment(nproc: int, info: dict) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "cryptography": version("cryptography"),
        "svm_backend": info.get("svm_backend"),
        "CHAINTRACE_NO_NUMBA": os.environ.get("CHAINTRACE_NO_NUMBA"),
        "blas_threads": BLAS_THREADS,
    }


class Runner:
    """Starts children one at a time and records wall time and peak RSS."""

    def __init__(self, env: dict[str, str], log: str, deadline: float):
        self.env, self.log, self.deadline = env, log, deadline

    def spawn(self, argv: list[str], log_path: str | None = None
              ) -> tuple[int, float, float]:
        """Returns (exit status, wall seconds, peak RSS in MiB)."""
        with open(log_path or self.log, "ab") as log:
            start = time.perf_counter()
            p = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                 stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.deadline + 10 - time.monotonic()),
                                     p.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, wall, usage.ru_maxrss / 1024.0

    def python(self, *args: str, log_path: str | None = None) -> tuple[int, float, float]:
        return self.spawn([sys.executable, *args], log_path)


def run_passes(r: Runner, workload: str, inputs: str, info: dict, seconds: float,
               work: str) -> list[dict]:
    """Closed loop over the workload's commands until ``seconds`` have passed."""
    passes: list[dict] = []
    t0 = time.monotonic()
    while len(passes) < workloads.MIN_PASSES or time.monotonic() - t0 < seconds:
        if passes and time.monotonic() + passes[-1]["wall"] > r.deadline:
            break
        out = os.path.join(work, f"pass-{len(passes)}")
        workloads.prepare_pass(workload, inputs, out)
        ran = []
        for inv in workloads.pass_commands(workload, inputs, out, info):
            code, wall, rss = r.python("-m", "chaintrace.cli", *inv.argv)
            ran.append({"inv": inv, "exit": code, "wall": wall, "rss": rss})
        passes.append({"out": out, "ran": ran, "wall": sum(x["wall"] for x in ran)})
    return passes


def command_metrics(passes: list[dict]) -> dict[str, float]:
    """Untraced per-command figures; 0 where the workload lacks the command."""
    by_cmd: dict[str, list[dict]] = {}
    for p in passes:
        for x in p["ran"]:
            by_cmd.setdefault(x["inv"].command, []).append(x)

    def med(cmd: str, f) -> float:
        xs = by_cmd.get(cmd)
        return statistics.median(f(x) for x in xs) if xs else 0.0

    def wall(x): return x["wall"]
    def rss(x): return x["rss"]
    def kev_s(x): return x["inv"].events_in / x["wall"] / 1e3

    return {
        "cmd.ingest.kev_s": med("ingest", kev_s),
        "cmd.pseudonymize.kev_s": med("pseudonymize", kev_s),
        "cmd.detect.s": med("detect", wall),
        "cmd.detect.peak_rss_mib": med("detect", rss),
        "cmd.train.s": med("train", wall),
        "cmd.train.peak_rss_mib": med("train", rss),
        "cmd.score.s": med("score", wall),
    }


def bytes_per_event(stores: list[str], events: int) -> float:
    size = 0
    for store in stores:
        for name in os.listdir(store):
            if name.endswith(".seg") or name == "index.json":
                size += os.path.getsize(os.path.join(store, name))
    return size / events


def check(r: Runner, workload: str, inputs: str, invocations: list[dict],
          work: str) -> dict:
    spec = os.path.join(work, "check.json")
    verdicts = os.path.join(work, "verdicts.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "inputs": inputs,
                   "invocations": invocations}, fh)
    code, _, _ = r.python(os.path.join(HERE, "check.py"), spec, log_path=verdicts)
    if code != 0:
        return {"verdicts": [f"output check crashed with exit {code}"] * len(invocations),
                "precision": []}
    with open(verdicts, "r", encoding="utf-8") as fh:
        return json.loads(fh.read().splitlines()[-1])


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor; below 1 only for smoke tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "chaintrace", "cli.py")):
        print(f"error: no chaintrace sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops its child and removes its scratch space
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    os.makedirs(work)
    r = Runner(env, os.path.join(work, "children.log"), started + DEADLINE_S)
    try:
        return measure(r, args, work, nproc)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(r: Runner, args, work: str, nproc: int) -> int:
    wl, seed, scale = args.workload, str(args.seed), str(args.scale)
    failures: list[str] = []
    failed_setup = False
    if args.trace:
        inputs = os.path.join(work, "inputs")
        setup_result = os.path.join(work, "trace-setup.json")
        code, _, _ = r.python(os.path.join(HERE, "trace.py"), "setup", wl, seed,
                              scale, inputs, setup_result)
        failed_setup = code != 0
    else:
        setup_walls = []
        for k in range(SETUPS):
            inputs = os.path.join(work, f"inputs-{k}")
            code, wall, _ = r.python(os.path.join(HERE, "prepare.py"), wl, seed,
                                     scale, inputs)
            failed_setup |= code != 0
            setup_walls.append(wall)
            if k:
                shutil.rmtree(os.path.join(work, f"inputs-{k - 1}"))
    if failed_setup:
        print(f"error: set-up failed; see {r.log}", file=sys.stderr)
        with open(r.log, "r", encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        return 1
    info = load_json(os.path.join(inputs, "info.json"))
    print(json.dumps({"env": environment(nproc, info)}))

    passes = run_passes(r, wl, inputs, info, args.seconds, work)
    invocations = [{"command": x["inv"].command, "out": p["out"], "exit": x["exit"]}
                   for p in passes for x in p["ran"]]
    if args.trace:
        traced_out = os.path.join(work, "pass-traced")
        result_path = os.path.join(work, "trace-commands.json")
        code, _, _ = r.python(os.path.join(HERE, "trace.py"), "commands", wl,
                              inputs, traced_out, result_path)
        traced = load_json(result_path) if code == 0 else {"layers": {}, "invocations": []}
        invocations += [{"command": x["command"], "out": traced_out, "exit": x["exit"]}
                        for x in traced["invocations"]]
        if code != 0:
            invocations.append({"command": "traced pass", "out": traced_out,
                                "exit": code})
        unaccounted = traced["layers"].get("trace.unaccounted.s", 0.0)
        if abs(unaccounted) > 0.01:
            failures.append(f"tracer: {unaccounted:.4f} s of the traced pass in no frame")

    checked = check(r, wl, inputs, invocations, work)
    failures += [f"{inv['command']} in {os.path.basename(inv['out'])}: {v}"
                 for inv, v in zip(invocations, checked["verdicts"]) if v is not None]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)

    if args.trace:
        metrics, missing = layer_metrics(r, wl, inputs, info, passes, traced,
                                         load_json(setup_result), checked["precision"])
        os.makedirs(OUT, exist_ok=True)
        shutil.copyfile(result_path, os.path.join(OUT, f"trace-{wl}-{seed}.json"))
        print(json.dumps({"missing": missing}))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_walls), "s"),
            "pass_s": (statistics.median(p["wall"] for p in passes), "s"),
            "peak_rss_mib": (statistics.median(max(x["rss"] for x in p["ran"])
                                               for p in passes), "MiB"),
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": len(invocations),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(r: Runner, wl: str, inputs: str, info: dict, passes: list[dict],
                  traced: dict, setup: dict, precision: list[float | None]
                  ) -> tuple[dict, dict]:
    units = load_json(os.path.join(HERE, "layers.json"))
    values: dict[str, float] = {}
    values.update(setup["layers"])
    values.update(traced["layers"])
    values.update(command_metrics(passes))
    missing = {**setup["missing"], **traced.get("missing", {})}

    startups = [r.python("-c", "import chaintrace.cli")[1] for _ in range(STARTUP_SAMPLES)]
    startup = statistics.median(startups)
    values["cli.startup.s"] = startup
    n_events = sum(info["events"].values())
    stores = workloads.stores(wl, inputs, passes[0]["out"])
    values["store.bytes_per_event"] = bytes_per_event(stores, n_events)
    shares = [x for x in precision if x is not None]
    values["killchain.reconstruction_precision"] = statistics.median(shares) if shares else 0.0
    # untraced commands pay interpreter start-up; the traced ones run in-process
    untraced = statistics.median(p["wall"] for p in passes) - startup * len(passes[0]["ran"])
    if "trace.wall.s" in values:
        values["trace.overhead.s"] = values["trace.wall.s"] - untraced
    else:
        missing["trace.overhead.s"] = "the traced pass did not finish"

    metrics = {}
    for name, spec in units.items():
        if name not in values:
            missing.setdefault(name, "not measured")
        metrics[name] = (values.get(name, 0.0), spec["unit"])
    return metrics, missing


if __name__ == "__main__":
    sys.exit(main())
