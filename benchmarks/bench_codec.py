"""Throughput of the canonical codec and of the event store, in one process.

The events are the case study (``SimConfig(seed=SEED)``) expanded with
benign noise (seed ``SEED + 1``) to STORE_EVENTS events, the way the
``large_store`` benchmark builds its store. Measured, as thousands of
events per second (kev/s):

- ``simulate``: ``simulate()`` of the ``anomaly`` benchmark's attacked
  config (100 users over SIM_SECONDS, SIM_VICTIMS victims, seed SEED),
  its stream dropped after each call, best of REPEATS;
- ``noise_expand``: a streamed ``expand_with_noise`` to STORE_EVENTS
  events, its events dropped as they come, best of REPEATS;
- ``encode`` and ``decode``: ``encode_event`` over the first CODEC_EVENTS
  events and ``decode_event`` over their lines, best of REPEATS passes;
- ``raw_render`` and ``raw_parse``: ``render_raw_line`` over the same
  events and ``parse_raw_line`` over their raw lines, best of REPEATS;
- ``store_append``: ``EventStore.append`` of all STORE_EVENTS events in
  batches of BATCH_EVENTS (only the append calls are timed);
- ``store_scan``: a full ``query`` of that store, best of SCANS.

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
import sys
import tempfile
import time

SEED = 61
STORE_EVENTS = 500_000
CODEC_EVENTS = 100_000
BATCH_EVENTS = 50_000
REPEATS = 5
SCANS = 3
SIM_SECONDS = 72_000  # about 154k events
SIM_VICTIMS = 70


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
        for _ in expand_with_noise(base, STORE_EVENTS / len(base), SEED + 1):
            pass

    expand_rate = _best_rate(STORE_EVENTS, expand, REPEATS)
    stream = expand_with_noise(base, STORE_EVENTS / len(base), SEED + 1)
    del base
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
        "store_events": appended,
        "store_bytes_per_event": round(seg_bytes / appended, 1),
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
    width = max(map(len, result))
    for name, value in result.items():
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
                         "sim_victims": SIM_VICTIMS}
        doc["runs"][args.label] = result
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
