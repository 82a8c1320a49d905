"""Workload definitions shared by run.py, the set-up and the tracer.

Standard library only: run.py imports this module and must stay
small, because a child started by ``fork``/``exec`` starts its peak-RSS
count at the size of its parent.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

LARGE_STORE_EVENTS = 520_000  # above detect's default lite threshold (500k)
WALKTHROUGH_SECONDS = 28_800  # 8 simulated hours, about 60k events
ANOMALY_SECONDS = 72_000      # 20 simulated hours, about 150k events
ANOMALY_VICTIMS = 70
ANOMALY_WINDOW = 1200


@dataclass(frozen=True)
class Invocation:
    """One CLI command of a pass."""

    command: str          # chaintrace subcommand
    argv: tuple[str, ...]  # full argument list for ``chaintrace.cli.main``
    events_in: int        # events the command reads


def seeds(workload: str, seed: int) -> dict[str, int]:
    """Simulator seeds derived from the workload seed."""
    if workload == "large_store":
        return {"base": seed, "noise": seed + 1}
    if workload == "walkthrough":
        return {"base": seed}
    return {"clean": 1000 * seed, "attacked": seed}


def sizes(workload: str, scale: float) -> dict[str, int]:
    """Input sizes; ``scale`` < 1 only for smoke tests."""
    if workload == "large_store":
        return {"events": max(5_000, int(LARGE_STORE_EVENTS * scale))}
    if workload == "walkthrough":
        return {"duration": max(600, int(WALKTHROUGH_SECONDS * scale))}
    victims = max(1, int(ANOMALY_VICTIMS * scale))
    return {"duration": max(victims * 600, int(ANOMALY_SECONDS * scale)),
            "victims": victims}


def pass_commands(workload: str, inputs: str, out: str,
                  info: dict) -> list[Invocation]:
    """The CLI commands of one pass, in order; ``out`` is the pass directory."""
    j = os.path.join
    if workload == "large_store":
        return [Invocation(
            "detect", ("detect", "--store", j(inputs, "store"),
                       "--out", j(out, "report.jsonl")),
            info["events"]["store"])]
    if workload == "walkthrough":
        n = info["events"]["stream"]
        return [
            Invocation("ingest", ("ingest", "--store", j(out, "store"),
                                  "--events", j(inputs, "raw.log"),
                                  "--format", "raw"), n),
            Invocation("pseudonymize", ("pseudonymize",
                                        "--events", j(inputs, "events.jsonl"),
                                        "--out", j(out, "pseudo.jsonl"),
                                        "--vault", j(out, "vault.json"),
                                        "--shares-dir", j(out, "shares")),
                       n),
            Invocation("detect", ("detect", "--store", j(out, "store"),
                                  "--out", j(out, "report.jsonl")), n),
        ]
    window = str(ANOMALY_WINDOW)
    return [
        Invocation("train", ("train", "--store", j(inputs, "clean"),
                             "--out", j(out, "model.json"),
                             "--window-secs", window),
                   info["events"]["clean"]),
        Invocation("score", ("score", "--store", j(inputs, "attacked"),
                             "--model", j(out, "model.json"),
                             "--out", j(out, "scored.jsonl"),
                             "--window-secs", window),
                   info["events"]["attacked"]),
    ]


def prepare_pass(workload: str, inputs: str, out: str) -> None:
    """Create the pass directory; walkthrough passes start from the empty vault."""
    os.makedirs(out)
    if workload == "walkthrough":
        shutil.copyfile(os.path.join(inputs, "vault.json"),
                        os.path.join(out, "vault.json"))


# Stores whose size per event feeds ``store.bytes_per_event``.
def stores(workload: str, inputs: str, out: str) -> list[str]:
    if workload == "large_store":
        return [os.path.join(inputs, "store")]
    if workload == "walkthrough":
        return [os.path.join(out, "store")]
    return [os.path.join(inputs, "clean"), os.path.join(inputs, "attacked")]


WORKLOADS = ("large_store", "walkthrough", "anomaly")
# Every run reports a median of at least two passes; anomaly's check also
# compares the outputs of two passes byte for byte.
MIN_PASSES = 2
