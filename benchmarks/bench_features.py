"""Feature extraction from a store, read in one part and in parts.

The store holds the attacked stream of the ``anomaly`` benchmark:
``SimConfig(seed=SEED, users=100, duration=72_000, victims=70)``, about
154k events. ``extract_features(store, window=1200)`` reads it once as
one part and once with its parts spread over the usable CPUs
(``store.MIN_PART_LINES`` as shipped), interleaved, RUNS times each;
the medians are recorded as thousands of store lines per second (kev/s).

The serial tail of a two-part read: the pickled bytes of the second
part, as a worker sends it, and the median time in ms the parent takes
to unpickle it, over RUNS loads.

The crossover table times the first N lines of the same stream, each
in its own store, as one part and as two parts (no minimum part size),
interleaved, RUNS times each, and records the median seconds. A part
must hold enough lines for the second one to win: ``MIN_PART_LINES``
is set from it.

Usage:
  python benchmarks/bench_features.py [--src DIR] [--label NAME] [--out FILE]

``--src`` names the source tree to import chaintrace from (default: this
repository's ``src``). With ``--out``, the results are stored in FILE
under ``runs[NAME]``, keeping the other labels already there.
"""

import argparse
import functools
import gc
import json
import os
import pickle
import platform
import shutil
import statistics
import sys
import tempfile
import time

SEED = 7
WINDOW = 1200
RUNS = 5
CROSSOVER_LINES = (2_500, 5_000, 10_000, 20_000, 40_000, 80_000)


def measure() -> dict:
    from chaintrace import features, store as store_module
    from chaintrace.simulate import SimConfig, simulate
    from chaintrace.store import EventStore

    events, _ = simulate(SimConfig(seed=SEED, users=100, duration=72_000, victims=70))
    root = tempfile.mkdtemp(prefix="bench_features.")
    try:
        sizes = [n for n in CROSSOVER_LINES if n < len(events)] + [len(events)]
        for n in sizes:
            store = EventStore(os.path.join(root, str(n)))
            store.append(events[:n])
            store.close()
        total = len(events)
        del events
        gc.collect()
        shipped_min, shipped_cpus = store_module.MIN_PART_LINES, store_module._usable_cpus

        def split(cpus: int, min_lines: int) -> None:
            store_module.MIN_PART_LINES = min_lines
            store_module._usable_cpus = lambda: cpus

        def seconds(n: int, cpus: int, min_lines: int) -> float:
            split(cpus, min_lines)
            store = EventStore(os.path.join(root, str(n)), create=False)
            t0 = time.perf_counter()
            features.extract_features(store, window=WINDOW)
            return time.perf_counter() - t0

        def interleaved(n: int, settings: list[tuple[int, int]]) -> list[float]:
            times = [[] for _ in settings]
            for run in range(RUNS):
                order = range(len(settings)) if run % 2 == 0 else reversed(range(len(settings)))
                for i in order:
                    times[i].append(seconds(n, *settings[i]))
            return [statistics.median(t) for t in times]

        try:
            split(2, 1)
            store = EventStore(os.path.join(root, str(total)), create=False)
            worker_part = store.map_parts(
                functools.partial(features.accumulate_part, window=WINDOW))[1]
            sent = pickle.dumps(worker_part, pickle.HIGHEST_PROTOCOL)
            del worker_part
            loads = []
            for _ in range(RUNS):
                t0 = time.perf_counter()
                pickle.loads(sent)
                loads.append(time.perf_counter() - t0)

            cpus = shipped_cpus()
            one, many = interleaved(total, [(1, shipped_min), (cpus, shipped_min)])
            crossover = {}
            for n in sizes[:-1]:
                a, b = interleaved(n, [(1, 1), (2, 1)])
                crossover[str(n)] = {"one_part_s": round(a, 4), "two_parts_s": round(b, 4)}
        finally:
            store_module.MIN_PART_LINES = shipped_min
            store_module._usable_cpus = shipped_cpus
    finally:
        shutil.rmtree(root)
    return {
        "nproc": cpus,
        "store_lines": total,
        "parts": min(cpus, max(1, total // shipped_min)),
        "min_part_lines": shipped_min,
        "one_part_kev_s": round(total / one / 1e3, 1),
        "parts_kev_s": round(total / many / 1e3, 1),
        "worker_part_bytes": len(sent),
        "unpickle_ms": round(statistics.median(loads) * 1e3, 1),
        "crossover": crossover,
    }


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, "..", "src"),
                    help="source tree to import chaintrace from")
    ap.add_argument("--label", default="current", help="name of this run")
    ap.add_argument("--out", help="JSON file to store the run in")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    result = measure()
    print(json.dumps(result, indent=2))
    if args.out:
        doc = {"runs": {}}
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["machine"] = {"nproc": result.pop("nproc"),
                          "python": platform.python_version()}
        doc["config"] = {"seed": SEED, "window": WINDOW, "runs": RUNS,
                         "statistic": "median of interleaved runs"}
        doc["runs"][args.label] = result
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
