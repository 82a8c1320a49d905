"""Build one workload's inputs with the repository's own simulator.

Usage: python perfbench/prepare.py WORKLOAD SEED SCALE DIR

Writes the inputs under DIR plus ``info.json`` (event counts and the SVM
backend) and prints that JSON. The CLI under test later sees only these
files.
"""

from __future__ import annotations

import json
import os
import sys

from chaintrace.events import encode_event, render_raw_line
from chaintrace.simulate import (
    GroundTruth,
    SimConfig,
    expand_with_noise,
    simulate,
    write_truth_file,
)
from chaintrace.store import EventStore
from chaintrace.vault import create_vault

import workloads


def svm_backend() -> str:
    try:
        from chaintrace._kernels import using_numba
    except ImportError:  # the numba backend is gone: numpy is the only one
        return "numpy"
    return "numba" if using_numba() else "numpy"


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _fill_store(path: str, events) -> int:
    store = EventStore(path)
    n = store.append(events)
    store.close()
    return n


def build(workload: str, seed: int, scale: float, out: str) -> dict:
    os.makedirs(out)
    s = workloads.seeds(workload, seed)
    size = workloads.sizes(workload, scale)
    j = os.path.join
    counts: dict[str, int] = {}
    if workload == "large_store":
        base, truth = simulate(SimConfig(seed=s["base"]))
        id_map: dict[int, int] = {}
        stream = expand_with_noise(base, size["events"] / len(base),
                                   s["noise"], id_map)
        counts["store"] = _fill_store(j(out, "store"), stream)
        # reference input for the output check: the unexpanded stream
        _write_lines(j(out, "base.jsonl"), (encode_event(e) for e in base))
        with open(j(out, "id_map.json"), "w", encoding="utf-8") as fh:
            json.dump(id_map, fh)
        truth = GroundTruth(
            labels=[(id_map[i], lab) for i, lab in truth.labels],
            victim_hosts=truth.victim_hosts,
            attacker_ip=truth.attacker_ip,
        )
        write_truth_file(j(out, "truth.tsv"), truth)
    elif workload == "walkthrough":
        events, truth = simulate(SimConfig(seed=s["base"],
                                           duration=size["duration"]))
        counts["stream"] = len(events)
        _write_lines(j(out, "events.jsonl"), (encode_event(e) for e in events))
        raws = (render_raw_line(e) for e in events)
        _write_lines(j(out, "raw.log"),
                     (f"{r.source_kind}\t{r.text}" for r in raws))
        write_truth_file(j(out, "truth.tsv"), truth)
        vault, _shares = create_vault(3, 5)
        vault.save(j(out, "vault.json"))
    else:
        clean, _ = simulate(SimConfig(seed=s["clean"], users=100,
                                      duration=size["duration"], attack=False))
        counts["clean"] = _fill_store(j(out, "clean"), clean)
        del clean
        attacked, truth = simulate(SimConfig(
            seed=s["attacked"], users=100, duration=size["duration"],
            victims=size["victims"]))
        counts["attacked"] = _fill_store(j(out, "attacked"), attacked)
        labeled = truth.labeled_ids()
        _write_lines(j(out, "labeled.jsonl"),
                     (encode_event(e) for e in attacked if e.id in labeled))
        write_truth_file(j(out, "truth.tsv"), truth)
    info = {"events": counts, "svm_backend": svm_backend()}
    with open(j(out, "info.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return info


if __name__ == "__main__":
    workload, seed, scale, out = sys.argv[1:5]
    print(json.dumps(build(workload, int(seed), float(scale), out)))
