"""Throughput of the canonical codec and of the event store, in one process.

The events are the case study (``SimConfig(seed=SEED)``) expanded with
benign noise (seed ``SEED + 1``) to STORE_EVENTS events, the way the
``large_store`` benchmark builds its store. Measured, as thousands of
events per second (kev/s):

- ``simulate``: ``simulate()`` of the ``anomaly`` benchmark's attacked
  config (100 users over SIM_SECONDS, SIM_VICTIMS victims, seed SEED),
  its stream dropped after each call, best of REPEATS;
- ``noise_expand``: a streamed ``expand_with_noise`` to STORE_EVENTS
  events, its canonical ``rows()`` (the path every store build takes),
  the rows dropped as they come, best of REPEATS. Its ``LogEvent`` view
  is those rows decoded, so it costs a decode per noise event more;
- ``encode`` and ``decode``: ``encode_event`` over the first CODEC_EVENTS
  events and ``decode_event`` over their lines, best of REPEATS passes;
- ``raw_render`` and ``raw_parse``: ``render_raw_line`` over the same
  events and ``parse_raw_line`` over their raw lines, best of REPEATS;
- ``store_append``: ``EventStore.append`` of all STORE_EVENTS events in
  lists of BATCH_EVENTS (only the append calls are timed), each event
  encoded by ``encode_event``. A list of at least
  ``2 * store.MIN_PART_LINES`` events is encoded in parts, so on more
  than one CPU each of these lists is written in parts;
- ``store_scan``: a full ``query`` of that store, best of SCANS;
- ``store_build`` and ``store_build_one_part``: one
  ``EventStore.append(expand_with_noise(...))`` of STORE_EVENTS events
  into a new store, as the ``large_store`` benchmark and acceptance
  criterion 6 build theirs, written in parts as shipped and in one part,
  interleaved, BUILDS times each; the medians are recorded. Both take
  the expansion's canonical rows: its noise lines are written as they
  are, and only its originals are encoded.

The write crossover table appends the first N events of the stream, as
a list, to a new store as one part and as two parts (no minimum part
size), interleaved, BUILDS times each, and records the median seconds:
a write in two parts must win from ``2 * MIN_PART_LINES`` events on.

Usage:
  python benchmarks/bench_codec.py [--src DIR] [--label NAME] [--out FILE]

``--src`` names the source tree to import chaintrace from (default: this
repository's ``src``), so two commits can be measured on one machine.
With ``--out``, the results are stored in FILE under ``runs[NAME]``,
keeping the other labels already there.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from itertools import islice

SEED = 61
STORE_EVENTS = 500_000
CODEC_EVENTS = 100_000
BATCH_EVENTS = 50_000
REPEATS = 5
SCANS = 3
SIM_SECONDS = 72_000  # about 154k events
SIM_VICTIMS = 70
BUILDS = 5
CROSSOVER_EVENTS = (10_000, 20_000, 50_000, 100_000)


def _best_rate(n: int, fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return n / best / 1e3


def measure() -> dict:
    from chaintrace.events import (decode_event, encode_event, parse_raw_line,
                                   render_raw_line)
    from chaintrace.simulate import SimConfig, expand_with_noise, simulate
    from chaintrace.store import EventStore

    sim_cfg = SimConfig(seed=SEED, users=100, duration=SIM_SECONDS, victims=SIM_VICTIMS)
    sim_events = len(simulate(sim_cfg)[0])
    sim_rate = _best_rate(sim_events, lambda: simulate(sim_cfg), REPEATS)

    base, _ = simulate(SimConfig(seed=SEED))

    def expand() -> None:
        for _ in expand_with_noise(base, STORE_EVENTS / len(base), SEED + 1).rows():
            pass

    expand_rate = _best_rate(STORE_EVENTS, expand, REPEATS)
    stream = iter(expand_with_noise(base, STORE_EVENTS / len(base), SEED + 1))
    root = tempfile.mkdtemp(prefix="bench_codec.")
    try:
        store = EventStore(os.path.join(root, "store"))
        append_s = 0.0
        appended = 0
        codec = []  # the first CODEC_EVENTS events
        while appended < STORE_EVENTS:
            batch = [e for _, e in zip(range(BATCH_EVENTS), stream)]
            if not batch:
                break
            codec += batch[:CODEC_EVENTS - len(codec)]
            t0 = time.perf_counter()
            appended += store.append(batch)
            append_s += time.perf_counter() - t0
        store.close()

        lines = [encode_event(e) + "\n" for e in codec]

        # results are dropped as a scan drops them, so the collector does
        # not walk a growing list of events
        def encode() -> None:
            for e in codec:
                encode_event(e)

        def decode() -> None:
            for line in lines:
                decode_event(line)

        raws = [render_raw_line(e) for e in codec]

        def render() -> None:
            for e in codec:
                render_raw_line(e)

        def parse() -> None:
            for raw in raws:
                parse_raw_line(raw)

        gc.collect()
        encode_rate = _best_rate(len(codec), encode, REPEATS)
        decode_rate = _best_rate(len(lines), decode, REPEATS)
        render_rate = _best_rate(len(codec), render, REPEATS)
        parse_rate = _best_rate(len(raws), parse, REPEATS)
        del codec, lines, raws
        gc.collect()

        reader = EventStore(os.path.join(root, "store"), create=False)

        def scan() -> None:
            for _ in reader.query():
                pass

        scan_rate = _best_rate(appended, scan, SCANS)
        seg_bytes = sum(os.path.getsize(os.path.join(root, "store", s.path))
                        for s in reader.segments)
        build_rates, crossover = _split_writes(base, root)
    finally:
        shutil.rmtree(root)
    return {
        "simulate_kev_s": round(sim_rate, 1),
        "noise_expand_kev_s": round(expand_rate, 1),
        "encode_kev_s": round(encode_rate, 1),
        "decode_kev_s": round(decode_rate, 1),
        "raw_render_kev_s": round(render_rate, 1),
        "raw_parse_kev_s": round(parse_rate, 1),
        "store_append_kev_s": round(appended / append_s / 1e3, 1),
        "store_scan_kev_s": round(scan_rate, 1),
        **build_rates,
        "store_events": appended,
        "store_bytes_per_event": round(seg_bytes / appended, 1),
        "write_crossover": crossover,
    }


def _split_writes(base, root: str) -> tuple[dict, dict]:
    """The ``store_build`` rows and the write crossover table."""
    from chaintrace import store as store_module
    from chaintrace.simulate import expand_with_noise
    from chaintrace.store import EventStore

    factor = STORE_EVENTS / len(base)
    shipped_min, shipped_cpus = store_module.MIN_PART_LINES, store_module._usable_cpus

    def seconds(make_events, cpus: int, min_lines: int) -> float:
        """One append of ``make_events()`` into a new store, closed."""
        store_module.MIN_PART_LINES = min_lines
        store_module._usable_cpus = lambda: cpus
        path = os.path.join(root, "build")
        shutil.rmtree(path, ignore_errors=True)
        store, events = EventStore(path), make_events()
        t0 = time.perf_counter()
        store.append(events)
        store.close()
        return time.perf_counter() - t0

    def interleaved(make_events, settings: list[tuple[int, int]]) -> list[float]:
        times = [[] for _ in settings]
        for run in range(BUILDS):
            order = range(len(settings)) if run % 2 == 0 else reversed(range(len(settings)))
            for i in order:
                times[i].append(seconds(make_events, *settings[i]))
        return [statistics.median(t) for t in times]

    try:
        shipped, one = interleaved(lambda: expand_with_noise(base, factor, SEED + 1),
                                   [(shipped_cpus(), shipped_min), (1, shipped_min)])
        head = list(islice(expand_with_noise(base, factor, SEED + 1), max(CROSSOVER_EVENTS)))
        crossover = {}
        for n in CROSSOVER_EVENTS:
            a, b = interleaved(lambda: head[:n], [(1, 1), (2, 1)])
            crossover[str(n)] = {"one_part_s": round(a, 4), "two_parts_s": round(b, 4)}
    finally:
        store_module.MIN_PART_LINES = shipped_min
        store_module._usable_cpus = shipped_cpus
    rates = {"store_build_kev_s": round(STORE_EVENTS / shipped / 1e3, 1),
             "store_build_one_part_kev_s": round(STORE_EVENTS / one / 1e3, 1)}
    return rates, crossover


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
    width = max(map(len, result))
    for name, value in result.items():
        if name == "write_crossover":
            for n, row in value.items():
                print(f"{'write ' + n:<{width}} {row['one_part_s']:>10} {row['two_parts_s']:>10}")
        else:
            print(f"{name:<{width}} {value:>10}")
    if args.out:
        doc = {"runs": {}}
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["machine"] = {"nproc": os.cpu_count(),
                          "python": platform.python_version()}
        doc["config"] = {"seed": SEED, "store_events": STORE_EVENTS,
                         "codec_events": CODEC_EVENTS,
                         "batch_events": BATCH_EVENTS, "repeats": REPEATS,
                         "scans": SCANS, "sim_seconds": SIM_SECONDS,
                         "sim_victims": SIM_VICTIMS, "builds": BUILDS}
        doc["runs"][args.label] = result
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
