"""Output checks: one verdict per CLI invocation.

Usage: python perfbench/check.py SPEC.json

SPEC holds ``workload``, ``inputs`` (the set-up directory) and
``invocations``: a list of ``{"command", "out", "exit"}`` in run order,
``out`` being the pass directory. Prints JSON: ``verdicts`` holds, per
invocation, ``null`` when it passed or the reason it failed;
``precision`` holds, per passing detect, the share of reconstructed
event ids that are ground-truth attack events. Detect's greedy
earliest binding can pick a benign event (a benign PDF mail received
before the attack's), so that share is reported, not checked.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import sys

from chaintrace import cli
from chaintrace.errors import ChaintraceError
from chaintrace.events import decode_event
from chaintrace.features import FeatureVector, evaluate, label_windows
from chaintrace.simulate import read_truth_file

import workloads

TOKEN_PREFIX = "pn:"
IDENTITY_ATTRS = ("email_from", "email_to")
MIN_ACCURACY = 0.90
MIN_RECALL = 0.80


def _report(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _full_rows(report: str) -> list[dict]:
    return [r for r in _report(report) if r["status"] == "full"]


def _full_match(out: str, truth) -> str | None:
    """The detect report holds exactly one full match, on the truth victim."""
    full = _full_rows(os.path.join(out, "report.jsonl"))
    if len(full) != 1:
        return f"{len(full)} full matches"
    if full[0]["victim"] != truth.victim_host:
        return f"full match on {full[0]['victim']}, truth {truth.victim_host}"
    return None


def _steps(row: dict, id_map: dict[str, int] | None = None) -> list[tuple]:
    def ids(step):
        return sorted(id_map[str(i)] for i in step["event_ids"]) if id_map \
            else step["event_ids"]
    return [(s["element"], s["variant"], ids(s)) for s in row["reconstruction"]]


def _reference_steps(inputs: str) -> list[tuple]:
    """Detect on the unexpanded case study, ids mapped into the large store."""
    ref = os.path.join(inputs, "reference.jsonl")
    if not os.path.exists(ref):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["detect", "--events", os.path.join(inputs, "base.jsonl"),
                      "--out", ref])
    with open(os.path.join(inputs, "id_map.json"), "r", encoding="utf-8") as fh:
        id_map = json.load(fh)
    full = _full_rows(ref)
    return _steps(full[0], id_map) if len(full) == 1 else []


def _large_store_report(out: str, inputs: str, truth) -> str | None:
    bad = _full_match(out, truth)
    if bad:
        return bad
    row = _full_rows(os.path.join(out, "report.jsonl"))[0]
    if row["adversary"] != truth.attacker_ip:
        return f"adversary {row['adversary']}, truth {truth.attacker_ip}"
    if _steps(row) != _reference_steps(inputs):
        return "reconstruction differs from detect on the unexpanded stream"
    return None


def precision(out: str, truth) -> float | None:
    """Share of the full match's reconstructed event ids that are attack events."""
    full = _full_rows(os.path.join(out, "report.jsonl"))
    ids = [i for row in full for step in row["reconstruction"]
           for i in step["event_ids"]]
    if not ids:
        return None
    labeled = truth.labeled_ids()
    return sum(1 for i in ids if i in labeled) / len(ids)


def _same_bytes(a_paths: list[str], b_path: str) -> bool:
    with open(b_path, "rb") as b:
        for p in a_paths:
            with open(p, "rb") as a:
                while chunk := a.read(1 << 20):
                    if b.read(len(chunk)) != chunk:
                        return False
        return b.read(1) == b""


def _segments(store: str) -> list[str]:
    return sorted(os.path.join(store, f) for f in os.listdir(store)
                  if f.endswith(".seg"))


def _pseudonymized(src: str, dst: str) -> str | None:
    n = 0
    with open(src, "r", encoding="utf-8") as a, open(dst, "r", encoding="utf-8") as b:
        for n, (la, lb) in enumerate(zip(a, b), 1):
            ea, eb = decode_event(la), decode_event(lb)
            if eb.id != ea.id or not eb.actor.startswith(TOKEN_PREFIX):
                return f"line {n}: actor {eb.actor!r} is not a token"
            for k in IDENTITY_ATTRS:
                if k in ea.attributes and not eb.attributes[k].startswith(TOKEN_PREFIX):
                    return f"line {n}: {k} left in plaintext"
        if a.readline() or b.readline():
            return "line counts differ"
    return None if n else "empty output"


def _anomaly_scores(out: str, inputs: str) -> str | None:
    scored = _report(os.path.join(out, "scored.jsonl"))
    if not scored:
        return "no scored windows"
    with open(os.path.join(inputs, "labeled.jsonl"), "r", encoding="utf-8") as fh:
        labeled_events = [decode_event(line) for line in fh]
    vectors = [FeatureVector(r["user"], r["window_start"], None) for r in scored]
    labels = label_windows(vectors, labeled_events, window=workloads.ANOMALY_WINDOW)
    m = evaluate([r["anomalous"] for r in scored], labels)
    if m["accuracy"] < MIN_ACCURACY or m["recall"] < MIN_RECALL:
        return f"accuracy {m['accuracy']:.3f}, recall {m['recall']:.3f}"
    return None


def verdict(workload: str, inputs: str, inv: dict, first: dict[str, str]) -> str | None:
    cmd, out = inv["command"], inv["out"]
    expect = 4 if cmd == "detect" else 0
    if inv["exit"] != expect:
        return f"exit {inv['exit']}, expected {expect}"
    truth = read_truth_file(os.path.join(inputs, "truth.tsv"))
    if workload == "large_store":
        return _large_store_report(out, inputs, truth)
    if workload == "walkthrough":
        if cmd == "ingest":
            if not _same_bytes(_segments(os.path.join(out, "store")),
                               os.path.join(inputs, "events.jsonl")):
                return "raw-ingested store differs from the canonical stream"
            return None
        if cmd == "pseudonymize":
            return _pseudonymized(os.path.join(inputs, "events.jsonl"),
                                  os.path.join(out, "pseudo.jsonl"))
        return _full_match(out, truth)
    name = "model.json" if cmd == "train" else "scored.jsonl"
    path = os.path.join(out, name)
    ref = first.setdefault(name, path)
    if not filecmp.cmp(ref, path, shallow=False):
        return f"{name} differs from the first pass"
    return _anomaly_scores(out, inputs) if cmd == "score" else None


def main(spec_path: str) -> dict:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    inputs = spec["inputs"]
    first: dict[str, str] = {}
    verdicts, precisions = [], []
    for inv in spec["invocations"]:
        try:
            v = verdict(spec["workload"], inputs, inv, first)
            if v is None and inv["command"] == "detect":
                precisions.append(precision(
                    inv["out"], read_truth_file(os.path.join(inputs, "truth.tsv"))))
        except (OSError, ValueError, KeyError, ChaintraceError) as exc:
            v = f"{type(exc).__name__}: {exc}"
        verdicts.append(v)
    return {"verdicts": verdicts, "precision": precisions}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
