"""The layer-1 rule pass over a store, read in one part and in parts.

The store is shaped like the ``large_store`` benchmark: the stream of
``SimConfig(seed=SEED)`` expanded with noise (seed SEED + 1) to 520k
events. ``apply_rules`` with the default rules reads it once as one part
and once with its parts spread over the usable CPUs
(``store.MIN_PART_LINES`` as shipped), interleaved, RUNS times each; the
medians are recorded as thousands of store lines per second (kev/s).
Each read prefilters, decodes and windows the store, as ``detect
--store`` does.

The serial tail of a two-part read: the pickled bytes of the second
part, as a worker sends it, and the median time in ms the parent takes
to unpickle it and push its items into the windows, over RUNS.

The parent's memory: the traced peak (``tracemalloc``) of the process
that calls ``apply_rules`` over the 520k store, in MiB above what it
held before the call, read once as one part and once as two parts.
Workers are not counted.

The crossover table times the first N lines of the same stream, each in
its own store, as one part and as two parts (no minimum part size),
interleaved, RUNS times each, and records the median seconds. It checks
that the ``MIN_PART_LINES`` set for feature extraction suits detect too.

A source tree whose ``apply_rules`` reads no store in parts (before
``EventStore.map_parts`` took a prefilter) is timed as one part only.

Usage:
  python benchmarks/bench_rules.py [--src DIR] [--label NAME] [--out FILE]

``--src`` names the source tree to import chaintrace from (default: this
repository's ``src``). With ``--out``, the results are stored in FILE
under ``runs[NAME]``, keeping the other labels already there.
"""

import argparse
import gc
import inspect
import json
import os
import pickle
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from importlib import resources
from itertools import islice

SEED = 501
STORE_LINES = 520_000
RUNS = 5
CROSSOVER_LINES = (10_000, 20_000, 40_000, 80_000)


def measure() -> dict:
    from chaintrace import graph, store as store_module
    from chaintrace.simulate import SimConfig, expand_with_noise, simulate
    from chaintrace.store import EventStore

    rules = graph.load_rules(str(resources.files("chaintrace.data") / "default_rules.json"))
    in_parts = "prefilter" in inspect.signature(EventStore.map_parts).parameters
    base, _ = simulate(SimConfig(seed=SEED))
    root = tempfile.mkdtemp(prefix="bench_rules.")
    try:
        sizes = [*CROSSOVER_LINES, STORE_LINES]
        for n in sizes:
            store = EventStore(os.path.join(root, str(n)))
            store.append(islice(expand_with_noise(base, STORE_LINES / len(base), SEED + 1), n))
            store.close()
        del base
        gc.collect()
        shipped_min, shipped_cpus = store_module.MIN_PART_LINES, store_module._usable_cpus

        def split(cpus: int, min_lines: int) -> None:
            store_module.MIN_PART_LINES = min_lines
            store_module._usable_cpus = lambda: cpus

        def seconds(n: int, cpus: int, min_lines: int) -> float:
            split(cpus, min_lines)
            store = EventStore(os.path.join(root, str(n)), create=False)
            t0 = time.perf_counter()
            if in_parts:
                graph.apply_rules(graph.PropertyGraph(), rules, store)
            else:
                events = store.query(prefilter=graph.line_prefilter(rules))
                graph.apply_rules(graph.PropertyGraph(), rules, events)
            return time.perf_counter() - t0

        def interleaved(n: int, settings: list[tuple[int, int]]) -> list[float]:
            times = [[] for _ in settings]
            for run in range(RUNS):
                order = range(len(settings)) if run % 2 == 0 else reversed(range(len(settings)))
                for i in order:
                    times[i].append(seconds(n, *settings[i]))
            return [statistics.median(t) for t in times]

        cpus = shipped_cpus()
        settings = [(1, shipped_min), (cpus, shipped_min)] if in_parts else [(1, shipped_min)]
        crossover_settings = [(1, 1), (2, 1)] if in_parts else [(1, 1)]
        tail = {}
        try:
            if in_parts:
                split(2, 1)
                store = EventStore(os.path.join(root, str(STORE_LINES)), create=False)
                first = graph._FirstLayer(rules)
                worker_part = list(store.map_parts(first.read, graph.line_prefilter(rules)))[1]
                sent = pickle.dumps(worker_part, pickle.HIGHEST_PROTOCOL)
                del worker_part
                pushes = []
                for _ in range(RUNS):
                    first = graph._FirstLayer(rules)
                    t0 = time.perf_counter()
                    first.push(pickle.loads(sent))
                    pushes.append(time.perf_counter() - t0)
                tail = {"worker_part_bytes": len(sent),
                        "unpickle_push_ms": round(statistics.median(pushes) * 1e3, 1)}
            peaks = {}
            for name, cpus in (("one_part_peak_mib", 1), ("two_parts_peak_mib", 2)):
                if cpus > 1 and not in_parts:
                    continue
                split(cpus, shipped_min)
                store = EventStore(os.path.join(root, str(STORE_LINES)), create=False)
                gc.collect()
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    graph.apply_rules(graph.PropertyGraph(), rules, store if in_parts else
                                      store.query(prefilter=graph.line_prefilter(rules)))
                    peaks[name] = round((tracemalloc.get_traced_memory()[1] - before) / 2**20, 2)
                finally:
                    tracemalloc.stop()
            medians = interleaved(STORE_LINES, settings)
            crossover = {
                str(n): dict(zip(("one_part_s", "two_parts_s"),
                                 (round(t, 4) for t in interleaved(n, crossover_settings))))
                for n in CROSSOVER_LINES}
        finally:
            store_module.MIN_PART_LINES = shipped_min
            store_module._usable_cpus = shipped_cpus
    finally:
        shutil.rmtree(root)
    kev_s = [round(STORE_LINES / t / 1e3, 1) for t in medians]
    return {
        "nproc": cpus,
        "store_lines": STORE_LINES,
        "parts": min(cpus, max(1, STORE_LINES // shipped_min)) if in_parts else 1,
        "min_part_lines": shipped_min,
        **dict(zip(("one_part_kev_s", "parts_kev_s"), kev_s)),
        **tail,
        **peaks,
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
        doc["config"] = {"seed": SEED, "store_lines": STORE_LINES, "runs": RUNS,
                         "statistic": "median of interleaved runs"}
        doc["runs"][args.label] = result
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
