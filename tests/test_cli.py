import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import chaintrace
from chaintrace.cli import EXIT_ERROR, build_parser, main
from chaintrace.events import NS, TextLines, decode_event, encode_event
from chaintrace.features import SOURCE_SETS, ExtractionStats, extract_features
from chaintrace.graph import (PropertyGraph, apply_rules, build_graph, export_graph,
                              line_prefilter, load_rules)
from chaintrace.simulate import SCENARIOS, STEP_ORDER, SimConfig, read_truth_file
from chaintrace.store import EventStore


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _simulate(workdir, seed=42, extra=()):
    rc = main([
        "simulate", "--seed", str(seed),
        "--out", "events.jsonl", "--truth", "truth.tsv", *extra,
    ])
    assert rc == 0
    return workdir / "events.jsonl", workdir / "truth.tsv"


def test_simulate_writes_events_truth_manifest(workdir):
    events_path, truth_path = _simulate(workdir)
    lines = events_path.read_text().splitlines()
    assert len(lines) > 500
    decode_event(lines[0])
    assert truth_path.read_text().startswith("# attacker_ip=172.18.0.3\n")
    manifest = json.loads((workdir / "manifest.simulate.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 42
    assert manifest["exit_status"] == 0
    assert str(events_path) in manifest["outputs"] \
        or "events.jsonl" in manifest["outputs"]


def test_simulate_deterministic(workdir):
    _simulate(workdir, seed=7)
    first = (workdir / "events.jsonl").read_bytes()
    _simulate(workdir, seed=7)
    assert (workdir / "events.jsonl").read_bytes() == first


def test_ingest_and_detect_full_chain(workdir):
    _simulate(workdir)
    rc = main(["ingest", "--store", "store", "--events", "events.jsonl"])
    assert rc == 0
    rc = main(["detect", "--store", "store", "--out", "report.jsonl"])
    assert rc == 4
    rows = [json.loads(ln) for ln in
            (workdir / "report.jsonl").read_text().splitlines()]
    full = [r for r in rows if r["status"] == "full"]
    assert len(full) == 1
    assert full[0]["victim"] == "ws000"
    assert full[0]["adversary"] == "172.18.0.3"
    assert full[0]["reconstruction"]
    manifest = json.loads((workdir / "manifest.detect.json").read_text())
    assert manifest["exit_status"] == 4


def test_detect_partial_exit_code(workdir):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"truncate_after": "installation"}))
    main(["simulate", "--seed", "42", "--config", str(cfg),
          "--out", "events.jsonl", "--truth", "truth.tsv"])
    rc = main(["detect", "--events", "events.jsonl", "--out", "report.jsonl"])
    assert rc == 3
    rows = [json.loads(ln) for ln in
            (workdir / "report.jsonl").read_text().splitlines()]
    assert any(r["status"] == "partial"
               and r["completeness"] == pytest.approx(0.4) for r in rows)


def test_detect_clean_exit_zero(workdir):
    main(["simulate", "--seed", "5", "--attack", "false",
          "--out", "events.jsonl", "--truth", "truth.tsv"])
    rc = main(["detect", "--events", "events.jsonl", "--out", "report.jsonl"])
    assert rc == 0


def test_raw_ingest_matches_canonical(workdir):
    # usb_insert appears only in the USB scenario
    for scenario in ("cooltype_jpeg_exfil", "usb_jpeg_exfil"):
        (workdir / "cfg.json").write_text(json.dumps({"scenario": scenario}))
        _simulate(workdir, extra=("--config", "cfg.json", "--raw", "raw.log"))
        canon_dir, raw_dir = f"store-canon-{scenario}", f"store-raw-{scenario}"
        main(["ingest", "--store", canon_dir, "--events", "events.jsonl"])
        main(["ingest", "--store", raw_dir, "--events", "raw.log", "--format", "raw"])
        canon = sorted(p for p in os.listdir(canon_dir) if p.endswith(".seg"))
        raw = sorted(p for p in os.listdir(raw_dir) if p.endswith(".seg"))
        assert canon == raw
        for name in canon:
            a = (workdir / canon_dir / name).read_bytes()
            b = (workdir / raw_dir / name).read_bytes()
            assert a == b


def test_expanded_raw_log_builds_the_expanded_store(workdir):
    # --raw holds the same noise-expanded stream as --out, so a store
    # ingested from either is the same, and the remapped truth ids name
    # the attack events in both
    _simulate(workdir, extra=("--expand-factor", "3", "--raw", "raw.log"))
    assert main(["simulate", "--seed", "42", "--out", "base.jsonl",
                 "--truth", "base-truth.tsv"]) == 0
    lines = (workdir / "events.jsonl").read_text().splitlines()
    base = (workdir / "base.jsonl").read_text().splitlines()
    assert len(lines) == 3 * len(base)
    assert len((workdir / "raw.log").read_text().splitlines()) == len(lines)
    main(["ingest", "--store", "canon", "--events", "events.jsonl"])
    main(["ingest", "--store", "raw", "--events", "raw.log", "--format", "raw"])
    names = sorted(os.listdir("canon"))
    assert names == sorted(os.listdir("raw"))
    for name in names:
        assert (workdir / "canon" / name).read_bytes() == (workdir / "raw" / name).read_bytes()

    def body(e):  # everything but the id
        return e.ts, e.source_host, e.event_type, e.actor, e.attributes

    stored = {e.id: e for e in EventStore("raw", create=False).query()}
    by_old_id = {e.id: e for e in map(decode_event, base)}
    labels = read_truth_file("truth.tsv").labels
    old_labels = read_truth_file("base-truth.tsv").labels
    assert [lab for _, lab in labels] == [lab for _, lab in old_labels]
    assert any(new != old for (new, _), (old, _) in zip(labels, old_labels))
    for (new, _), (old, _) in zip(labels, old_labels):
        assert body(stored[new]) == body(by_old_id[old])


@pytest.mark.parametrize("factor", ["1", "2.5", "60"])
@pytest.mark.parametrize("raw", [False, True], ids=["no-raw", "raw"])
def test_expanded_out_is_the_encoded_stream(workdir, factor, raw):
    # --out is written from the expansion's rows, noise lines as they are
    # made, and --raw from its events; both are the stream's events,
    # encoded and rendered one by one
    from chaintrace.events import render_raw_line
    from chaintrace.simulate import SimConfig, expand_with_noise, simulate

    _simulate(workdir, extra=("--expand-factor", factor, *(("--raw", "raw.log") if raw else ())))
    events, _ = simulate(SimConfig(seed=42))
    if float(factor) > 1:
        events = expand_with_noise(events, float(factor), 42)
    assert (workdir / "events.jsonl").read_text() == "".join(
        f"{encode_event(e)}\n" for e in events)
    if raw:
        assert (workdir / "raw.log").read_text() == "".join(
            f"{line.source_kind}\t{line.text}\n" for line in map(render_raw_line, events))
    else:
        assert not (workdir / "raw.log").exists()


def test_pseudonymize_and_reveal(workdir):
    _simulate(workdir)
    rc = main([
        "pseudonymize", "--events", "events.jsonl", "--out", "pseudo.jsonl",
        "--vault", "vault.json", "--shares-dir", "shares", "-k", "2", "-n", "3",
    ])
    assert rc == 0
    pseudo = [decode_event(ln) for ln in
              (workdir / "pseudo.jsonl").read_text().splitlines()]
    assert all(e.actor.startswith("pn:") for e in pseudo)
    token = pseudo[0].actor
    shares = sorted(os.listdir("shares"))
    assert len(shares) == 3
    rc = main([
        "reveal", "--vault", "vault.json", "--token", token,
        "--share", f"shares/{shares[0]}", "--share", f"shares/{shares[1]}",
    ])
    assert rc == 0


def test_pseudonymize_actor_that_is_not_utf8_is_error(workdir, capsys):
    events_path, _ = _simulate(workdir)
    text = events_path.read_text()
    lineno = text[:text.index('"actor":"u000"')].count("\n") + 1
    events_path.write_text(text.replace('"actor":"u000"', '"actor":"u\\ud800"'))
    rc = main(["pseudonymize", "--events", "events.jsonl", "--out", "pseudo.jsonl",
               "--vault", "vault.json", "--shares-dir", "shares"])
    assert rc == EXIT_ERROR
    assert f"events.jsonl: line {lineno}: " in _one_line_error(capsys)
    assert sorted(os.listdir(workdir)) == ["events.jsonl", "manifest.simulate.json",
                                           "truth.tsv"]


# Runs commands through main (a step given as a string imports that
# module) in a fresh interpreter and prints, after each group, which of
# the heavy modules it has loaded.
_FOOTPRINT = """
import contextlib, importlib, io, json, sys
from chaintrace.cli import main
heavy = ("numpy", "cryptography", "xml.etree.ElementTree")
for group in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [importlib.import_module(step).__name__ if isinstance(step, str)
                 else main(step) for step in group]
    print(json.dumps([codes, [m for m in heavy if m in sys.modules]]))
"""


def test_commands_load_only_what_they_run(workdir):
    _simulate(workdir, extra=("--raw", "raw.tsv"))
    groups = [
        [["simulate", "--out", "sim.jsonl", "--truth", "sim.tsv"]],
        [["ingest", "--store", "store", "--events", "raw.tsv", "--format", "raw"],
         ["detect", "--store", "store", "--out", "report.jsonl"],
         ["detect", "--events", "events.jsonl", "--out", "report2.jsonl"]],
        ["chaintrace.vault"],
        [["pseudonymize", "--events", "events.jsonl", "--out", "pseudo.jsonl",
          "--vault", "vault.json", "-k", "2", "-n", "3"]],
        [["simulate", "--expand-factor", "2", "--out", "x.jsonl", "--truth", "x.tsv"]],
    ]
    src = os.path.dirname(os.path.dirname(chaintrace.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(groups)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True).stdout.splitlines()
    assert [json.loads(line) for line in out] == [
        [[0], []],
        [[0, 4, 4], []],
        [["chaintrace.vault"], []],
        [[0], ["cryptography"]],
        [[0], ["numpy", "cryptography"]],
    ]


def test_source_set_choices_are_the_feature_sets():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    opt = next(a for a in sub.choices["train"]._actions if a.dest == "source_set")
    assert list(opt.choices) == sorted(SOURCE_SETS)


def test_reveal_too_few_shares_errors(workdir, capsys):
    _simulate(workdir)
    main(["pseudonymize", "--events", "events.jsonl", "--out", "pseudo.jsonl",
          "--vault", "vault.json", "--shares-dir", "shares",
          "-k", "2", "-n", "3"])
    pseudo = decode_event((workdir / "pseudo.jsonl").read_text().splitlines()[0])
    rc = main(["reveal", "--vault", "vault.json", "--token", pseudo.actor,
               "--share", "shares/share-001.txt"])
    assert rc == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_pseudonymized_detection_invariant(workdir):
    _simulate(workdir)
    main(["pseudonymize", "--events", "events.jsonl", "--out", "pseudo.jsonl",
          "--vault", "vault.json", "--shares-dir", "shares",
          "-k", "2", "-n", "3"])
    rc_plain = main(["detect", "--events", "events.jsonl",
                     "--out", "report-plain.jsonl"])
    rc_pseudo = main(["detect", "--events", "pseudo.jsonl",
                      "--out", "report-pseudo.jsonl"])
    assert rc_plain == rc_pseudo == 4

    def strip(path):
        rows = [json.loads(ln) for ln in
                (workdir / path).read_text().splitlines()]
        alerting = [r for r in rows if r["status"] != "none"]
        for r in alerting:
            for entry in r["reconstruction"]:
                entry["event_ids"].sort()
        return [
            (r["status"], r["completeness"], r["adversary"], r["victim"],
             [(e["element"], e["event_ids"]) for e in r["reconstruction"]])
            for r in alerting
        ]

    assert strip("report-plain.jsonl") == strip("report-pseudo.jsonl")


def test_train_score_metrics_pipeline(workdir):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"users": 30, "duration": 7200}))
    main(["simulate", "--seed", "1", "--config", str(cfg), "--attack", "false",
          "--out", "clean.jsonl", "--truth", "clean-truth.tsv"])
    main(["simulate", "--seed", "2", "--config", str(cfg),
          "--out", "mixed.jsonl", "--truth", "mixed-truth.tsv"])
    rc = main(["train", "--events", "clean.jsonl", "--out", "model.json",
               "--nu", "0.05"])
    assert rc == 0
    rc = main(["score", "--events", "mixed.jsonl", "--model", "model.json",
               "--out", "scored.jsonl"])
    assert rc == 0
    rc = main(["metrics", "--scored", "scored.jsonl", "--events", "mixed.jsonl",
               "--truth", "mixed-truth.tsv", "--out", "metrics.json"])
    assert rc == 0
    metrics = json.loads((workdir / "metrics.json").read_text())
    assert set(metrics) == {"accuracy", "precision", "recall", "f1", "confusion"}
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_export_dot(workdir):
    _simulate(workdir)
    rc = main(["detect", "--events", "events.jsonl", "--out", "r.jsonl",
               "--export", "graph.dot"])
    assert rc == 4
    text = (workdir / "graph.dot").read_text()
    assert text.startswith("digraph")
    assert "connects_to" in text


def test_export_graphml(workdir):
    _simulate(workdir)
    rc = main(["detect", "--events", "events.jsonl", "--out", "r.jsonl",
               "--export", "graph.xml", "--format", "graphml"])
    assert rc == 4
    assert "graphml" in (workdir / "graph.xml").read_text()


_DOT_ID = r'"((?:[^"\\]|\\.)*)"'
_DOT_NODE = re.compile(rf'  {_DOT_ID} \[label={_DOT_ID} shape=\w+ class="(\w+)"\];')
_DOT_EDGE = re.compile(rf'  {_DOT_ID} -> {_DOT_ID} \[label="(\w+)"\];')


def _exported_graph(path, fmt):
    """The nodes, id -> (kind, label), and the edges, as (source, target,
    kind), of a graph file that ``export_graph`` wrote."""
    nodes, edges = [], []
    if fmt == "dot":
        lines = path.read_text().splitlines()
        assert lines[0] == "digraph chaintrace {" and lines[-1] == "}"
        for line in lines[1:-1]:
            edge = _DOT_EDGE.fullmatch(line)
            if edge:
                edges.append(edge.groups())
            else:
                nid, label, kind = _DOT_NODE.fullmatch(line).groups()
                nodes.append((nid, (kind, label)))
    else:
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        graph = ElementTree.parse(path).getroot().find("g:graph", ns)
        for n in graph.findall("g:node", ns):
            kind, label = (d.text or "" for d in n.findall("g:data", ns))
            nodes.append((n.get("id"), (kind, label)))
        for e in graph.findall("g:edge", ns):
            edges.append((e.get("source"), e.get("target"), e.find("g:data", ns).text))
    assert len(dict(nodes)) == len(nodes) and len(set(edges)) == len(edges)
    return dict(nodes), set(edges)


@pytest.mark.parametrize("fmt", ["dot", "graphml"])
def test_detect_export_is_the_export_graph_plus_the_chain(workdir, fmt):
    rules = load_rules(str(resources.files("chaintrace.data") / "default_rules.json"))
    for extra in ((), ("--expand-factor", "3")):
        _simulate(workdir, extra=extra)
        assert main(["detect", "--events", "events.jsonl", "--out", "plain.jsonl"]) == 4
        assert main(["detect", "--events", "events.jsonl", "--out", "report.jsonl",
                     "--export", "detect.graph", "--format", fmt]) == 4
        report = (workdir / "report.jsonl").read_bytes()
        assert report == (workdir / "plain.jsonl").read_bytes()
        # the graph of the sequences and what they name, without the kill chain
        events = list(TextLines("events.jsonl", decode_event))
        plain = build_graph(apply_rules(PropertyGraph(), rules, events), rules, [], {})
        (workdir / "export.graph").write_text(export_graph(plain, fmt))
        nodes, edges = _exported_graph(workdir / "detect.graph", fmt)
        plain_nodes, plain_edges = _exported_graph(workdir / "export.graph", fmt)
        rows = [json.loads(line) for line in report.splitlines()]
        # the plain graph's nodes, each adversary host marked as one
        adversaries = {f"host:{r['adversary']}" for r in rows if r["adversary"]}
        assert adversaries
        assert {nid: nodes[nid] for nid in plain_nodes} == {
            nid: ("adversary", label) if nid in adversaries else (kind, label)
            for nid, (kind, label) in plain_nodes.items()}
        # plus one kc: node per bound element, and its edges plus one
        # matches edge from each bound sequence to its element's node
        bound = {(b["sequence"], f"kc:{eid}")
                 for r in rows for eid, b in r["elements"].items()}
        assert {nid: kind for nid, (kind, _) in nodes.items() if nid not in plain_nodes} == \
            {kc: "kc_element" for _, kc in bound}
        assert plain_edges < edges
        assert edges - plain_edges == {(seq, kc, "matches") for seq, kc in bound}
        # the export grows with what detection found, not with the stream:
        # its events are the sequences' layer-1 members, with no next edge
        members = {f"event:{ref}" for s in plain.sequences()
                   for ref in s.attributes["members"] if isinstance(ref, int)}
        assert {nid for nid, (kind, _) in nodes.items() if kind == "event"} == members
        assert all(kind != "next" for *_, kind in edges)


@pytest.mark.parametrize("fmt", ["dot", "graphml"])
@pytest.mark.parametrize("victim, written", [("ws\ud800", r"ws\ud800"),
                                             ("ws\x01", r"ws\u0001")])
def test_export_is_ascii_whatever_a_host_holds(workdir, fmt, victim, written):
    # each id and label is written as the codec writes a string, unquoted
    events_path, _ = _simulate(workdir)
    events_path.write_text(events_path.read_text().replace('"ws000"', json.dumps(victim)))
    assert main(["detect", "--events", "events.jsonl", "--out", "report.jsonl",
                 "--export", "detect.graph", "--format", fmt]) == 4
    assert (workdir / "detect.graph").read_bytes().isascii()
    nodes, _ = _exported_graph(workdir / "detect.graph", fmt)  # GraphML: parsed
    assert nodes[f"host:{written}"] == ("host", written)


_PINNED_INPUTS = {
    "seed 42": ["--seed", "42"],
    "seed 77": ["--seed", "77"],
    "usb, 3 victims, expanded 2x": ["--seed", "13", "--config", "usb.json",
                                    "--expand-factor", "2"],
}

# SHA-256 of detect's outputs on each input. The counters depend on the
# read path (a store's prefilter skips lines); the rest must not.
_DETECT_DIGESTS = {
    "seed 42": {
        "dot": "4ed153770170b6089ce8cf43bfbde7b1e8b7a049128110392cb161259e090267",
        "graphml": "70dc46b6705ac4a01baaca2ecc728c4e73dffd3df666b2f6d02477c00f4010a8",
        "report": "bd69c8162ababf0ff267d2b7aecb05f87cf6cc0ed5f4d2e91627f909513876da",
        "stdout": "ccce76d89b3f01f0de3a226846ecdbc27c68a0e4d80293cc428dbe8256c7adf9",
        "exit": "4b227777d4dd1fc61c6f884f48641d02b4d121d3fd328cb08b5531fcacdabf8a",
        "counters --events": "8c48945124abfe267c95828c8076876302fb0c46be89e6d6df19a8cde3e4e2f2",
        "counters --store": "eb97668eb50b71fe00b20eef1dd3c5466e34fc19525f205828a1f21a045e4cd6",
    },
    "seed 77": {
        "dot": "854f4dbb6722eae43f4e2c8a9440bbaf0205e3c332ca79475b397af4a789be91",
        "graphml": "44c2a4a1fc3e1c5fbe8615ef7c13e476b74e3b678235dd6b43970f4ee5b12930",
        "report": "b9c3840a02655d53c0c2f1fc0b28d2af96b5b7602cd4230e8668a3c7f6c6de14",
        "stdout": "cf0d669d7b92c796436282c45bad5cb1499337725865b2e1316b1950fec24a5a",
        "exit": "4b227777d4dd1fc61c6f884f48641d02b4d121d3fd328cb08b5531fcacdabf8a",
        "counters --events": "cdc46ebb7a12b9c1242c24823a865864c50c1a471a60a554d4743dc063620139",
        "counters --store": "8e85a1a239d7c3c96a9366dcbe60f9bd8322e964c00df90ec47463e8686e218f",
    },
    "usb, 3 victims, expanded 2x": {
        "dot": "d0e15396d801d7ded865a946cab88a376246cdeacea521408c30d7535370a371",
        "graphml": "2387a148942c4af79e6507d567ad2172e51af84fc58300d55a0581d185d77e39",
        "report": "ac9b7c9dbe02737cdcb64beee5ffe3f3648766f40384ae9bdae2b06fc1efe128",
        "stdout": "08d25db2d3883fb37d40a9ff6f6a4d922e37c6838524e70b781d501ba0e67ba6",
        "exit": "4b227777d4dd1fc61c6f884f48641d02b4d121d3fd328cb08b5531fcacdabf8a",
        "counters --events": "93c8bc071fe84d12174ea6009183298de47a50da138f306be4e0b753e633eb40",
        "counters --store": "d34ce3c6cca0f8663f4d2832576e3b4bff23e9a957e15a2ce187ab047dacee66",
    },
}


def _detect_digests(source: list[str]) -> dict[str, str]:
    """SHA-256 of the report, stdout, exit code and manifest counters of a
    detect on ``source``, and of its DOT and GraphML exports."""
    def sha(data: str | bytes) -> str:
        return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()

    digests = {}
    for fmt in ("dot", "graphml"):
        assert main(["detect", *source, "--out", "exported.jsonl",
                     "--export", f"graph.{fmt}", "--format", fmt]) in (0, 3, 4)
        digests[fmt] = sha(Path(f"graph.{fmt}").read_bytes())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["detect", *source, "--out", "report.jsonl"])
    report = Path("report.jsonl").read_bytes()
    assert Path("exported.jsonl").read_bytes() == report
    counters = json.loads(Path("manifest.detect.json").read_text())["counters"]
    return digests | {
        "report": sha(report),
        "stdout": sha(stdout.getvalue()),
        "exit": sha(str(rc)),
        "counters": sha(json.dumps(counters, sort_keys=True)),
    }


@pytest.mark.parametrize("case", sorted(_PINNED_INPUTS))
def test_detect_bytes_are_pinned(workdir, monkeypatch, case):
    from chaintrace import store as store_module

    (workdir / "usb.json").write_text(json.dumps(
        {"scenario": "usb_jpeg_exfil", "victims": 3, "users": 20, "duration": 1200}))
    assert main(["simulate", *_PINNED_INPUTS[case],
                 "--out", "events.jsonl", "--truth", "truth.tsv"]) == 0
    assert main(["ingest", "--store", "store", "--events", "events.jsonl"]) == 0
    got = {
        "--events": _detect_digests(["--events", "events.jsonl"]),
        "--store": _detect_digests(["--store", "store"]),
    }
    monkeypatch.setattr(store_module, "MIN_PART_LINES", 1)
    monkeypatch.setattr(store_module, "_usable_cpus", lambda: 3)
    assert _detect_digests(["--store", "store"]) == got["--store"]
    pinned = _DETECT_DIGESTS[case]
    for path, digests in got.items():
        counters = digests.pop("counters")
        assert counters == pinned[f"counters {path}"], path
        assert digests == {k: v for k, v in pinned.items() if not k.startswith("counters")}, path


def test_missing_input_is_io_error(workdir, capsys):
    rc = main(["detect", "--events", "no-such-file.jsonl", "--out", "r.jsonl"])
    assert rc == EXIT_ERROR
    assert "no-such-file.jsonl" in _one_line_error(capsys)


@pytest.fixture(scope="module")
def scored_inputs(tmp_path_factory):
    """A small attacked stream, its truth, a model trained on it and its
    scores: every input of every command but the one a test takes away."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "cfg.json").write_text(json.dumps({"users": 10, "duration": 3600}))
    for argv in (["simulate", "--seed", "1", "--config", root / "cfg.json",
                  "--out", root / "events.jsonl", "--truth", root / "truth.tsv"],
                 ["train", "--events", root / "events.jsonl", "--out", root / "model.json"],
                 ["score", "--events", root / "events.jsonl", "--model", root / "model.json",
                  "--out", root / "scored.jsonl"]):
        assert main([str(a) for a in argv]) == 0
    return root


# Each argv names one path that is not there ({gone}, in a missing
# directory); {in} holds the other inputs and {tmp} is a fresh directory.
_PSEUDO = ["--vault", "{tmp}/vault.json", "--shares-dir", "{tmp}/shares"]
_METRICS = ["metrics", "--scored", "{in}/scored.jsonl", "--truth", "{in}/truth.tsv"]
_MISSING_PATHS = {
    "detect --events": ["detect", "--events", "{gone}", "--out", "{tmp}/out"],
    "train --events": ["train", "--events", "{gone}", "--out", "{tmp}/out"],
    "score --events": ["score", "--events", "{gone}", "--model", "{in}/model.json",
                       "--out", "{tmp}/out"],
    "pseudonymize --events": ["pseudonymize", "--events", "{gone}", "--out", "{tmp}/out",
                              *_PSEUDO],
    "metrics --events": [*_METRICS, "--events", "{gone}", "--out", "{tmp}/out"],
    "ingest --events": ["ingest", "--store", "{tmp}/store", "--events", "{gone}"],
    "detect --rules": ["detect", "--events", "{in}/events.jsonl", "--rules", "{gone}",
                       "--out", "{tmp}/out"],
    "detect --export --rules": ["detect", "--events", "{in}/events.jsonl", "--rules", "{gone}",
                                "--out", "{tmp}/out", "--export", "{tmp}/g.dot"],
    "detect --killchain": ["detect", "--events", "{in}/events.jsonl", "--killchain", "{gone}",
                           "--out", "{tmp}/out"],
    "score --model": ["score", "--events", "{in}/events.jsonl", "--model", "{gone}",
                      "--out", "{tmp}/out"],
    "simulate --out": ["simulate", "--out", "{gone}", "--truth", "{tmp}/truth.tsv"],
    "detect --out": ["detect", "--events", "{in}/events.jsonl", "--out", "{gone}"],
    "train --out": ["train", "--events", "{in}/events.jsonl", "--out", "{gone}"],
    "score --out": ["score", "--events", "{in}/events.jsonl", "--model", "{in}/model.json",
                    "--out", "{gone}"],
    "pseudonymize --out": ["pseudonymize", "--events", "{in}/events.jsonl", "--out", "{gone}",
                           *_PSEUDO],
    "metrics --out": [*_METRICS, "--events", "{in}/events.jsonl", "--out", "{gone}"],
    "detect --export": ["detect", "--events", "{in}/events.jsonl", "--out", "{tmp}/out",
                        "--export", "{gone}"],
    "simulate --truth": ["simulate", "--out", "{tmp}/out", "--truth", "{gone}"],
    "pseudonymize --vault": ["pseudonymize", "--events", "{in}/events.jsonl", "--out", "{tmp}/out",
                             "--vault", "{gone}", "--shares-dir", "{tmp}/shares"],
}


@pytest.mark.parametrize("case", sorted(_MISSING_PATHS))
def test_missing_path_exits_64_naming_it(scored_inputs, tmp_path, capsys, case):
    # a file that cannot be opened takes the one failure path of every
    # other fault: exit 64 and one error line that names the file; and the
    # command leaves none of its outputs, no temporary file and no key share
    gone = str(tmp_path / "nosuch" / "file")
    argv = [a.format(gone=gone, tmp=tmp_path, **{"in": scored_inputs})
            for a in _MISSING_PATHS[case]]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    assert f"'{gone}'" in _one_line_error(capsys)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["detect", "--events", "events.jsonl", "--out", "g", "--export", "g"],
    ["detect", "--events", "events.jsonl", "--out", "g", "--export", "./g"],
    ["simulate", "--out", "g", "--truth", "g"],
    ["pseudonymize", "--events", "events.jsonl", "--out", "g", "--vault", "g"],
])
def test_output_named_twice_is_refused(workdir, capsys, argv):
    _simulate(workdir)
    before = sorted(os.listdir(workdir))
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    assert _one_line_error(capsys).endswith(": named as two outputs\n")
    assert sorted(os.listdir(workdir)) == before


@pytest.mark.parametrize("flag,doc,message", [
    ("--killchain", {"elements": [{"id": "x"}]},
     "kill chain {path}: malformed: elements[0].name: missing"),
    ("--config", {"users": "x"}, "config {path}: malformed: users: expected int, got 'x'"),
    # a document that fits its schema but fails its semantic check
    ("--config", {"users": 0}, "config {path}: users must be >= 1"),
    ("--killchain", {"elements": []}, "kill chain {path}: model has no elements"),
    ("--rules", [{"id": "x", "layer": 1, "input_kind": "logon", "window": 60,
                  "min_count": 1, "emit": "y"}] * 2, "rules {path}: duplicate rule id x"),
    ("--config", {"duration": 100}, "config {path}: duration 100s too short for 1 victim(s)"),
    # a fault that only the command line's --attack true makes
    ("--config --attack", {"attack": False, "victims": 0},
     "config {path}: victims must be >= 1 when attack is enabled"),
], ids=["killchain", "config", "config-check", "killchain-check", "rules-check",
        "config-duration", "config-override"])
def test_malformed_document_error_names_its_file(workdir, capsys, flag, doc, message):
    _simulate(workdir)
    (workdir / "doc.json").write_text(json.dumps(doc))
    simulate = ["simulate", "--config", "doc.json", "--out", "out", "--truth", "t.tsv"]
    argv = {"--killchain": ["detect", "--events", "events.jsonl", "--killchain", "doc.json",
                            "--out", "out"],
            "--rules": ["detect", "--events", "events.jsonl", "--rules", "doc.json",
                        "--out", "out"],
            "--config": simulate,
            "--config --attack": [*simulate, "--attack", "true"]}[flag]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    assert _one_line_error(capsys) == "error: " + message.format(path="doc.json") + "\n"
    assert not (workdir / "out").exists()


def test_bad_config_is_error(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"users": 0}))
    rc = main(["simulate", "--config", str(cfg),
               "--out", "x.jsonl", "--truth", "t.tsv"])
    assert rc == EXIT_ERROR


def test_non_positive_start_ts_is_error(workdir, capsys):
    (workdir / "cfg.json").write_text(json.dumps({"start_ts": -1000000000000000,
                                                  "users": 3}))
    rc = main(["simulate", "--config", "cfg.json", "--out", "x.jsonl", "--truth", "t.tsv"])
    assert rc == EXIT_ERROR
    assert "start_ts" in _one_line_error(capsys)
    assert not (workdir / "x.jsonl").exists()


def test_expand_factor_past_memory_is_error(workdir, capsys):
    # 1e12 asks for more noise draws than a 64-bit address space holds, so
    # the allocation fails at once; a smaller huge factor could be granted
    # and fill memory instead
    rc = main(["simulate", "--expand-factor", "1e12", "--out", "x.jsonl", "--truth", "t.tsv"])
    assert rc == EXIT_ERROR
    assert "expand factor" in _one_line_error(capsys)
    assert not (workdir / "x.jsonl").exists() and not (workdir / "t.tsv").exists()


@pytest.mark.parametrize("config", [{"users": "5"}, {"rates": {"session": "x"}},
                                    {"users": 1.5}, {"rates": {}}],
                         ids=["users-string", "rate-string", "users-float", "rates-empty"])
def test_config_value_of_wrong_type_is_error(workdir, capsys, config):
    (workdir / "cfg.json").write_text(json.dumps(config))
    rc = main(["simulate", "--config", "cfg.json", "--out", "x.jsonl", "--truth", "t.tsv"])
    assert rc == EXIT_ERROR
    assert "config" in _one_line_error(capsys)


@pytest.mark.parametrize("flag,keys,value", [
    ("--rules", (0, "emit"), ["x"]),
    ("--rules", (0, "id"), 7),
    ("--killchain", ("elements", 0, "id"), ["x"]),
    ("--killchain", ("elements", 0, "variants", 0, "accepts"), [["x"]]),
    ("--killchain", ("alert_threshold",), "high"),
    ("--rules", (0, "where", "attachment_ext"), 5),
    ("--rules", (0, "where"), [["attachment_ext", "pdf"]]),
    ("--killchain", ("elements", 1, "required"), "false"),
    ("--rules", (0, "min_count"), 1.7),
    ("--rules", (0, "layer"), True),
    ("--rules", (0, "window"), True),
    ("--killchain", ("alert_threshold",), "0.5"),
    ("--rules", (0, "max_cuont"), 1),
], ids=["rule-emit-list", "rule-id-int", "element-id-list", "accepts-entry-list",
        "threshold-word", "where-value-int", "where-pair-list", "required-string",
        "min-count-float", "layer-bool", "window-bool", "threshold-string",
        "rule-unknown-member"])
def test_document_member_of_wrong_type_is_error(workdir, capsys, flag, keys, value):
    _simulate(workdir)
    name = {"--rules": "default_rules.json", "--killchain": "default_killchain.json"}[flag]
    doc = json.loads((resources.files("chaintrace.data") / name).read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    (workdir / "input.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["detect", "--events", "events.jsonl", "--out", "out", flag, "input.json"])
    assert rc == EXIT_ERROR
    assert "malformed" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["detect", "--out", "r.jsonl"],
    ["train", "--out", "m.json"],
    ["score", "--model", "m.json", "--out", "s.jsonl"],
])
def test_input_source_required(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "one of the arguments --store --events is required" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value,labeled", [("TRUE", True), ("Yes", True), ("1", True),
                                           ("false", False), ("NO", False), ("0", False)])
def test_simulate_attack_values(workdir, value, labeled):
    _, truth = _simulate(workdir, extra=("--attack", value))
    assert ("\t" in truth.read_text()) == labeled


@pytest.mark.parametrize("value", ["ture", "", "2", "on", "y"])
def test_simulate_attack_refuses_other_values(workdir, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--attack", value, "--out", "e.jsonl", "--truth", "t.tsv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--attack: must be true/false, yes/no or 1/0" in err
    assert "Traceback" not in err
    assert not (workdir / "e.jsonl").exists()


def test_raw_line_without_tab_is_error(workdir, capsys):
    _simulate(workdir, extra=("--raw", "raw.log"))
    lines = (workdir / "raw.log").read_text().splitlines()
    (workdir / "bad.log").write_text(f"{lines[0]}\nno tab here\n")
    rc = main(["ingest", "--store", "store", "--events", "bad.log",
               "--format", "raw"])
    assert rc == EXIT_ERROR
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("name,line,fault", [
    ("bad.log", "windows\tgarbage", "windows: bad timestamp 'garbage'"),
    ("bad2.log", "notab", "no tab after the source kind"),
    *((f"ts{ts}.log", f"windows\t{ts}\tws000\t4624\tu000\tS1",
       f"windows: timestamp '{ts}' outside 1 .. 2**63 - 1") for ts in (0, -1, 1 << 63)),
    # what int() takes but str(ts) never writes
    *((f"ts-form{i}.log", f"windows\t{ts}\tws000\t4624\tu000\tS1",
       f"windows: bad timestamp {ts!r}")
      for i, ts in enumerate(["1_000", " 2000", "+3000", "\u0663", "01000"])),
], ids=["bad timestamp", "no tab", "ts 0", "ts -1", "ts 2**63", "ts 1_000", "ts space 2000",
        "ts +3000", "ts arabic-indic 3", "ts 01000"])
def test_raw_ingest_error_names_the_file_and_line(workdir, capsys, name, line, fault):
    _simulate(workdir, extra=("--raw", "raw.log"))
    lines = (workdir / "raw.log").read_text().splitlines()
    (workdir / name).write_text("\n".join([*lines[:5], line]) + "\n")
    capsys.readouterr()
    assert main(["ingest", "--store", "store", "--events", name,
                 "--format", "raw"]) == EXIT_ERROR
    assert _one_line_error(capsys) == f"error: {name}: line 6: {fault}\n"


_TOP = (1 << 63) - 1  # the largest id and ts
_BOUND = "id and ts must lie in 1 .. 2**63 - 1"


def _canonical(eid, ts):
    return f'{{"id":{eid},"ts":{ts},"host":"ws000","type":"logon","actor":"u000","attrs":{{}}}}'


@pytest.mark.parametrize("member", ["id", "ts"])
@pytest.mark.parametrize("value", [1, _TOP, 0, -1, 1 << 63])
def test_detect_events_takes_ids_and_ts_up_to_the_bound(workdir, capsys, member, value):
    # the value goes on line 1 if it is below the other event's, else on line 2
    at = 1 if value < 5 else 2
    pairs = [[5, 5], [6, 6]]
    pairs[at - 1][member == "ts"] = value
    (workdir / "e.jsonl").write_text("".join(_canonical(*p) + "\n" for p in pairs))
    capsys.readouterr()
    rc = main(["detect", "--events", "e.jsonl", "--out", "r.jsonl"])
    if 0 < value <= _TOP:
        assert rc == 0
        return
    assert rc == EXIT_ERROR
    fault = f"ts must be > 0, got {value}" if member == "ts" and value <= 0 else _BOUND
    assert _one_line_error(capsys) == f"error: e.jsonl: line {at}: {fault}\n"
    assert not (workdir / "r.jsonl").exists()


def _raw_logon(ts):
    return f"windows\t{ts}\tws000\t4624\tu000\tS1\n"


def test_raw_ingest_takes_ts_up_to_the_bound(workdir):
    (workdir / "raw.log").write_text(_raw_logon(1) + _raw_logon(_TOP))
    assert main(["ingest", "--store", "store", "--events", "raw.log", "--format", "raw"]) == 0
    assert [(e.id, e.ts) for e in EventStore("store", create=False).query()] \
        == [(1, 1), (2, _TOP)]


def test_raw_ingest_past_the_last_id_is_error(workdir, capsys):
    # raw ingest numbers its events on from the store's last id, which is
    # the largest an id may be
    store = EventStore("store")
    store.append([decode_event(_canonical(_TOP - 1, 10)), decode_event(_canonical(_TOP, 20))])
    store.close()
    (workdir / "raw.log").write_text(_raw_logon(30))
    capsys.readouterr()
    assert main(["ingest", "--store", "store", "--events", "raw.log",
                 "--format", "raw"]) == EXIT_ERROR
    assert _one_line_error(capsys) == f"error: event after id={_TOP}: {_BOUND}\n"
    assert [e.id for e in EventStore("store", create=False).query()] == [_TOP - 1, _TOP]


def _shifted(rows, by):
    """The report ``rows`` with every ``ts`` member moved by ``by``."""
    if isinstance(rows, dict):
        return {k: v + by if k == "ts" else _shifted(v, by) for k, v in rows.items()}
    if isinstance(rows, list):
        return [_shifted(v, by) for v in rows]
    return rows


@pytest.mark.parametrize("start_ts", [1 << 62, (1 << 63) - 600 * NS],
                         ids=["2**62", "the largest"])
def test_detect_finds_the_attack_at_any_start_ts(workdir, start_ts):
    _simulate(workdir)
    assert main(["detect", "--events", "events.jsonl", "--out", "ref.jsonl"]) == 4
    (workdir / "cfg.json").write_text(json.dumps({"start_ts": start_ts}))
    _simulate(workdir, extra=("--config", "cfg.json"))
    assert main(["detect", "--events", "events.jsonl", "--out", "late.jsonl"]) == 4
    ref, late = ([json.loads(line) for line in (workdir / name).read_text().splitlines()]
                 for name in ("ref.jsonl", "late.jsonl"))
    assert late == _shifted(ref, start_ts - SimConfig().start_ts)


@pytest.mark.parametrize("start_ts", [9223372036854000000, (1 << 63) - 600 * NS + 1])
@pytest.mark.parametrize("extra", [(), ("--expand-factor", "2")], ids=["plain", "expanded"])
def test_simulate_refuses_a_ts_past_the_bound(workdir, capsys, start_ts, extra):
    (workdir / "cfg.json").write_text(json.dumps({"start_ts": start_ts}))
    rc = main(["simulate", "--config", "cfg.json", "--out", "x.jsonl", "--truth", "t.tsv",
               *extra])
    assert rc == EXIT_ERROR
    assert "start_ts + duration" in _one_line_error(capsys)
    assert not (workdir / "x.jsonl").exists() and not (workdir / "t.tsv").exists()


def test_rule_missing_layer_is_error(workdir, capsys):
    _simulate(workdir)
    rule = {"id": "r", "input_kind": "file_read", "window": 60,
            "min_count": 2, "emit": "burst"}
    (workdir / "rules.json").write_text(json.dumps([rule]))
    rc = main(["detect", "--events", "events.jsonl", "--rules", "rules.json",
               "--out", "r.jsonl"])
    assert rc == EXIT_ERROR
    assert "layer" in capsys.readouterr().err


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("seg_path", ["../victim.txt", "absolute", "sub/000000.seg",
                                      "000001.seg", ""])
@pytest.mark.parametrize("argv", [
    ["ingest", "--store", "st", "--events", "events.jsonl"],
    ["detect", "--store", "st", "--out", "report.jsonl"],
    ["train", "--store", "st", "--out", "model.json"],
], ids=lambda argv: argv[0])
def test_store_index_names_no_file_outside_the_store(workdir, capsys, seg_path, argv):
    # a segment's path is the name the writer gives segment i; any other
    # would let a reader, or a writer reopening its unsealed last segment,
    # open a file the store does not own
    _simulate(workdir)
    assert main(["ingest", "--store", "st", "--events", "events.jsonl"]) == 0
    victim = workdir / "victim.txt"
    victim.write_bytes(b"not a segment\n")
    if seg_path == "absolute":
        seg_path = str(victim)
    index = workdir / "st" / "index.json"
    payload = json.loads(index.read_text())
    assert len(payload["segments"]) == 1
    payload["segments"][0].update(path=seg_path, sealed=False, bytes=7)
    index.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    err = _one_line_error(capsys)
    assert f"malformed: segments[0].path: must be 000000.seg, got {seg_path!r}" in err
    assert victim.read_bytes() == b"not a segment\n"


@pytest.mark.parametrize("garble", ["logon_cut_in_half", "no_type_member",
                                    "unterminated_type"])
def test_detect_store_decodes_garbled_lines(workdir, capsys, garble):
    _simulate(workdir)
    assert main(["ingest", "--store", "store", "--events", "events.jsonl"]) == 0
    assert main(["detect", "--events", "events.jsonl", "--out", "r-events.jsonl"]) == 4
    assert main(["detect", "--store", "store", "--out", "r-store.jsonl"]) == 4
    assert (workdir / "r-events.jsonl").read_bytes() \
        == (workdir / "r-store.jsonl").read_bytes()
    capsys.readouterr()

    # no default rule reads logon lines, so only decoding them finds the damage
    seg = workdir / "store" / "000000.seg"
    lines = seg.read_text().splitlines(keepends=True)
    i = next(n for n, ln in enumerate(lines) if '"type":"logon"' in ln)
    if garble == "logon_cut_in_half":
        # torn after the type member, which still reads logon
        lines[i] = lines[i][: lines[i].index('"actor"')] + "\n"
    elif garble == "no_type_member":
        lines[i] = lines[i].replace('"type":"', '"kind":"')
    else:
        lines[i] = lines[i][: lines[i].index('"type":"') + 8] + 'logon}}\n'
    seg.write_text("".join(lines))
    rc = main(["detect", "--store", "store", "--out", "r-store.jsonl"])
    assert rc == EXIT_ERROR
    _one_line_error(capsys)


@pytest.mark.parametrize("command", ["detect", "train", "score"])
def test_store_line_past_its_index_is_error(workdir, capsys, command, request):
    # a full read once ended silently at such a line: detect reported
    # "0 alert(s)" and train fitted the events before it
    _simulate(workdir)
    assert main(["ingest", "--store", "store", "--events", "events.jsonl"]) == 0
    seg = workdir / "store" / "000000.seg"
    lines = seg.read_text().splitlines(keepends=True)
    i = next(n for n, ln in enumerate(lines) if '"type":"file_read"' in ln)
    lines[i] = _bad_ts(lines[i], 1 << 62) + "\n"
    seg.write_text("".join(lines))
    argv = [command, "--store", "store", "--out", "out.jsonl"]
    if command == "score":
        argv += ["--model", request.getfixturevalue("model_file")]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    err = _one_line_error(capsys)
    at = os.path.join("store", "000000.seg")
    assert err.startswith(f"error: {at}: line {i + 1}: ts {1 << 62} lies outside")


def test_manifest_records_the_argv_main_parsed(workdir, monkeypatch):
    _simulate(workdir)
    monkeypatch.setattr(sys, "argv", ["x", "--bogus"])
    argv = ["detect", "--events", "events.jsonl", "--out", "r.jsonl"]
    assert main(argv) == 4
    manifest = json.loads((workdir / "manifest.detect.json").read_text())
    assert manifest["argv"] == argv


def test_detect_manifest_counters(workdir):
    _simulate(workdir)
    main(["ingest", "--store", "store", "--events", "events.jsonl"])
    n = len((workdir / "events.jsonl").read_text().splitlines())
    main(["detect", "--store", "store", "--out", "r.jsonl"])
    store = json.loads((workdir / "manifest.detect.json").read_text())["counters"]
    assert store["rows_scanned"] == n
    assert 0 < store["events_decoded"] < n
    assert store["rows_skipped"] == n - store["events_decoded"]
    main(["detect", "--events", "events.jsonl", "--out", "r.jsonl"])
    events = json.loads((workdir / "manifest.detect.json").read_text())["counters"]
    assert events == {"rows_scanned": n, "rows_skipped": 0,
                      "events_decoded": n, "rule_skips": store["rule_skips"]}


@pytest.fixture
def model_file(workdir):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"users": 10, "duration": 3600}))
    main(["simulate", "--seed", "1", "--config", str(cfg), "--attack", "false",
          "--out", "clean.jsonl", "--truth", "clean-truth.tsv"])
    assert main(["train", "--events", "clean.jsonl", "--out", "model.json"]) == 0
    return "model.json"


@pytest.mark.parametrize("command", ["detect", "train", "score"])
def test_missing_store_is_error(workdir, capsys, model_file, command):
    argv = [command, "--store", "nosuch", "--out", "out.jsonl"]
    if command == "score":
        argv += ["--model", model_file]
    capsys.readouterr()
    rc = main(argv)
    assert rc == EXIT_ERROR
    assert "nosuch" in _one_line_error(capsys)
    assert not (workdir / "nosuch").exists()
    assert not (workdir / "out.jsonl").exists()


@pytest.mark.parametrize("command,n", [("detect", 1), ("train", 1), ("train", 4)],
                         ids=["detect", "train", "train in 4 parts"])
def test_missing_segment_is_error(workdir, capsys, monkeypatch, command, n):
    from chaintrace import store as store_module

    _simulate(workdir)
    lines = (workdir / "events.jsonl").read_text().splitlines()
    store = store_module.EventStore("store", segment_events=len(lines) // 3)
    store.append(decode_event(line) for line in lines)
    store.close()
    assert len(store.segments) > 2
    os.remove(os.path.join("store", "000001.seg"))
    monkeypatch.setattr(store_module, "MIN_PART_LINES", 100)
    monkeypatch.setattr(store_module, "_usable_cpus", lambda: n)
    capsys.readouterr()
    assert main([command, "--store", "store", "--out", "out"]) == EXIT_ERROR
    assert "000001.seg" in _one_line_error(capsys)
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("content", [
    '{"x": 1}',
    "not json at all",
    '{"magic": "chaintrace-ocsvm", "version": 1}',
])
def test_score_bad_model_is_error(workdir, capsys, content):
    (workdir / "model.json").write_text(content)
    rc = main(["score", "--events", "events.jsonl", "--model", "model.json",
               "--out", "s.jsonl"])
    assert rc == EXIT_ERROR
    assert "model.json" in _one_line_error(capsys)


@pytest.mark.parametrize("lines", [
    [],
    ['{"id":1,"ts":5,"host":"h","type":"email_received","actor":"a","attrs":{}}'],
])
def test_train_on_no_windows_is_error(workdir, capsys, lines):
    (workdir / "events.jsonl").write_text("".join(line + "\n" for line in lines))
    rc = main(["train", "--events", "events.jsonl", "--out", "model.json"])
    assert rc == EXIT_ERROR
    err = _one_line_error(capsys)
    assert "empty" in err and "2-d" not in err
    assert not (workdir / "model.json").exists()


def test_train_score_manifest_counters(workdir, model_file):
    events = [decode_event(line)
              for line in (workdir / "clean.jsonl").read_text().splitlines()]
    stats = ExtractionStats()
    vectors = extract_features(events, window=3600, stats=stats)
    assert main(["ingest", "--store", "store", "--events", "clean.jsonl"]) == 0
    assert main(["train", "--store", "store", "--out", "model.json"]) == 0
    train = json.loads((workdir / "manifest.train.json").read_text())["counters"]
    model = json.loads((workdir / "model.json").read_text())
    assert 0 < train.pop("iterations")
    assert 0 <= train.pop("final_gap") <= 1e-6
    assert 0 < train.pop("kernel_rows")
    assert train == {
        "rows_scanned": len(events), "events_decoded": len(events),
        "windows": len(vectors), "unmatched_logoffs": stats.unmatched_logoffs,
        "bad_numeric_attrs": stats.bad_numeric_attrs,
        "support_vectors": len(model["alpha"]),
    }
    assert main(["score", "--store", "store", "--model", "model.json",
                 "--out", "scored.jsonl"]) == 0
    score = json.loads((workdir / "manifest.score.json").read_text())["counters"]
    scored = [json.loads(line)
              for line in (workdir / "scored.jsonl").read_text().splitlines()]
    assert score == {
        "rows_scanned": len(events), "events_decoded": len(events),
        "windows": len(scored), "unmatched_logoffs": stats.unmatched_logoffs,
        "bad_numeric_attrs": stats.bad_numeric_attrs,
        "anomalous": sum(r["anomalous"] for r in scored),
    }


@pytest.mark.parametrize("member,value", [("actor", 5), ("host", ["x"])])
@pytest.mark.parametrize("command", ["train", "pseudonymize", "export", "ingest"])
def test_non_string_host_or_actor_is_error(workdir, capsys, command, member, value):
    obj = {"id": 1, "ts": 5, "host": "h", "type": "logon", "actor": "a",
           "attrs": {"session_id": "S"}}
    obj[member] = value
    (workdir / "events.jsonl").write_text(json.dumps(obj) + "\n")
    argv = {
        "train": ["train", "--events", "events.jsonl", "--out", "out.json"],
        "pseudonymize": ["pseudonymize", "--events", "events.jsonl", "--out", "out.json",
                         "--vault", "vault.json"],
        "export": ["detect", "--events", "events.jsonl", "--out", "out.json",
                   "--export", "g.dot"],
        "ingest": ["ingest", "--store", "store", "--events", "events.jsonl"],
    }[command]
    assert main(argv) == EXIT_ERROR
    assert "host and actor must be strings" in _one_line_error(capsys)
    if command == "ingest":  # the store is made by its first write
        assert not (workdir / "store").exists()


def test_manifest_outputs_are_the_command_outputs(workdir, model_file):
    train = json.loads((workdir / "manifest.train.json").read_text())
    assert list(train["outputs"]) == [model_file]
    assert main(["score", "--events", "clean.jsonl", "--model", model_file,
                 "--out", "scored.jsonl"]) == 0
    score = json.loads((workdir / "manifest.score.json").read_text())
    assert list(score["outputs"]) == ["scored.jsonl"]


@pytest.mark.parametrize("value", ["1" * 5000, "[" * 100_000],
                         ids=["digits", "nesting"])
def test_unreadable_json_value_is_error(workdir, capsys, value):
    # an integer past Python's 4,300-digit limit, or nesting past its
    # recursion limit, makes json raise a plain ValueError or RecursionError
    line = ('{"id":1,"ts":5,"host":"h","type":"logon","actor":"a","attrs":'
            + value + "}")
    (workdir / "events.jsonl").write_text(line + "\n")
    rc = main(["detect", "--events", "events.jsonl", "--out", "r.jsonl"])
    assert rc == EXIT_ERROR
    assert "unreadable JSON" in _one_line_error(capsys)


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--window-secs", "0"),
    ("train", "--window-secs", "1.5"),
    ("score", "--window-secs", "-60"),
    ("metrics", "--window-secs", "0"),
    ("simulate", "--expand-factor", "0.5"),
    ("simulate", "--expand-factor", "nan"),
])
def test_number_out_of_range_is_usage_error(workdir, capsys, model_file,
                                            command, flag, value):
    assert main(["score", "--events", "clean.jsonl", "--model", model_file,
                 "--out", "scored.jsonl"]) == 0
    capsys.readouterr()
    argv = {
        "train": ["train", "--events", "clean.jsonl", "--out", "m2.json"],
        "score": ["score", "--events", "clean.jsonl", "--model", model_file,
                  "--out", "s2.jsonl"],
        "metrics": ["metrics", "--scored", "scored.jsonl", "--events", "clean.jsonl",
                    "--truth", "clean-truth.tsv", "--out", "m2.json"],
        "simulate": ["simulate", "--out", "s2.jsonl", "--truth", "t2.tsv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err and "Traceback" not in err
    assert not any((workdir / name).exists() for name in ("m2.json", "s2.jsonl"))


@pytest.mark.parametrize("window", [math.nan, math.inf, 1e300, -60, 0])
def test_rule_window_out_of_range_is_error(workdir, capsys, window):
    _simulate(workdir)
    rules = json.loads(
        (resources.files("chaintrace.data") / "default_rules.json").read_text())
    next(r for r in rules if r["id"] == "file_sweep")["window"] = window
    (workdir / "rules.json").write_text(json.dumps(rules))
    capsys.readouterr()
    rc = main(["detect", "--events", "events.jsonl", "--rules", "rules.json",
               "--out", "r.jsonl"])
    assert rc == EXIT_ERROR
    # the loader refuses JSON's NaN and Infinity, the rule's range check the rest
    fault = ("file_sweep: window must be finite and > 0" if math.isfinite(window)
             else f"window: expected finite float, got {window}")
    assert fault in _one_line_error(capsys)
    assert not (workdir / "r.jsonl").exists()


def _break_utf8(path) -> int:
    """Put a 0xff byte into a line near the middle of ``path``; its number."""
    data = bytearray(path.read_bytes())
    at = data.index(b"\n", len(data) // 2) + 3
    data[at] = 0xFF
    path.write_bytes(bytes(data))
    return data[:at].count(b"\n") + 1


@pytest.mark.parametrize("command", [
    "detect --events", "detect --store", "train --store", "ingest --format raw",
    "pseudonymize", "ingest", "train --events", "score --events",
    "metrics --events", "metrics --scored", "metrics --truth",
])
def test_invalid_utf8_is_decode_error(workdir, capsys, command):
    _simulate(workdir, extra=("--raw", "raw.log"))
    assert main(["ingest", "--store", "store", "--events", "events.jsonl"]) == 0
    if command.startswith(("score", "metrics")):
        assert main(["train", "--events", "events.jsonl", "--out", "m.json",
                     "--window-secs", "1200"]) == 0
        assert main(["score", "--events", "events.jsonl", "--model", "m.json",
                     "--out", "s.jsonl", "--window-secs", "1200"]) == 0
    metrics = ["metrics", "--scored", "s.jsonl", "--events", "events.jsonl",
               "--truth", "truth.tsv", "--out", "out", "--window-secs", "1200"]
    argv, broken = {
        "detect --events": (["detect", "--events", "events.jsonl", "--out", "out"],
                            "events.jsonl"),
        "detect --store": (["detect", "--store", "store", "--out", "out"],
                           os.path.join("store", "000000.seg")),
        "train --store": (["train", "--store", "store", "--out", "out"],
                          os.path.join("store", "000000.seg")),
        "ingest --format raw": (["ingest", "--store", "store2", "--events", "raw.log",
                                 "--format", "raw"], "raw.log"),
        "pseudonymize": (["pseudonymize", "--events", "events.jsonl", "--out", "out",
                          "--vault", "vault.json"], "events.jsonl"),
        "ingest": (["ingest", "--store", "store2", "--events", "events.jsonl"],
                   "events.jsonl"),
        "train --events": (["train", "--events", "events.jsonl", "--out", "out"],
                           "events.jsonl"),
        "score --events": (["score", "--events", "events.jsonl", "--model", "m.json",
                            "--out", "out"], "events.jsonl"),
        "metrics --events": (metrics, "events.jsonl"),
        "metrics --scored": (metrics, "s.jsonl"),
        "metrics --truth": (metrics, "truth.tsv"),
    }[command]
    lineno = _break_utf8(workdir / broken)
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    assert f"{broken}: line {lineno} is not UTF-8" in _one_line_error(capsys)
    assert not (workdir / "out").exists()
    if command == "pseudonymize":  # no orphan key shares, no vault
        assert not (workdir / "shares").exists()
        assert not (workdir / "vault.json").exists()
        assert not (workdir / "out.tmp").exists()


@pytest.mark.parametrize("content", ["{bad", b"[\xff]", "5", "[]"],
                         ids=["not-json", "not-utf8", "number", "list"])
@pytest.mark.parametrize("flag", ["--rules", "--killchain", "--config", "--vault",
                                  "reveal --vault"])
def test_unreadable_json_input_is_error(workdir, capsys, flag, content):
    # every JSON document a command loads is checked at the load: one
    # error line and exit 64, never a traceback
    _simulate(workdir)
    path = workdir / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    argv = {
        "--rules": ["detect", "--events", "events.jsonl", "--out", "out",
                    "--rules", "input.json"],
        "--killchain": ["detect", "--events", "events.jsonl", "--out", "out",
                        "--killchain", "input.json"],
        "--config": ["simulate", "--config", "input.json", "--out", "out",
                     "--truth", "truth2.tsv"],
        "--vault": ["pseudonymize", "--events", "events.jsonl", "--out", "out",
                    "--vault", "input.json"],
        "reveal --vault": ["reveal", "--vault", "input.json", "--token", "pn:x",
                           "--share", "s1"],
    }[flag]
    capsys.readouterr()
    assert main(argv) == EXIT_ERROR
    _one_line_error(capsys)
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("line", ["17", "17\tdelivery\textra", "x\tdelivery"])
def test_garbled_truth_file_is_error(workdir, capsys, line):
    _simulate(workdir)
    assert main(["train", "--events", "events.jsonl", "--out", "m.json",
                 "--window-secs", "1200"]) == 0
    assert main(["score", "--events", "events.jsonl", "--model", "m.json",
                 "--out", "s.jsonl", "--window-secs", "1200"]) == 0
    truth = workdir / "truth.tsv"
    lines = truth.read_text().splitlines()
    lines.insert(3, line)
    truth.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["metrics", "--scored", "s.jsonl", "--events", "events.jsonl",
                 "--truth", "truth.tsv", "--out", "m.out",
                 "--window-secs", "1200"]) == EXIT_ERROR
    assert "truth.tsv: line 4:" in _one_line_error(capsys)


_SCORED = '{"user": "u000", "window_start": %s, "decision": 0.5, "anomalous": %s%s}'


@pytest.mark.parametrize("line", ["not json", "[1, 2]",
                                  '{"user": "u000", "anomalous": true}',
                                  '{"user": "u000", "window_start": "0", "anomalous": true}',
                                  _SCORED % ("0", '"true"', ""),
                                  _SCORED % ("true", "true", ""),
                                  _SCORED % ("0", "true", ', "rank": 1')],
                         ids=["not-json", "not-object", "no-window-start", "string-start",
                              "string-anomalous", "bool-start", "extra-member"])
def test_garbled_scored_line_is_error(workdir, capsys, line):
    _simulate(workdir)
    assert main(["train", "--events", "events.jsonl", "--out", "m.json",
                 "--window-secs", "1200"]) == 0
    assert main(["score", "--events", "events.jsonl", "--model", "m.json",
                 "--out", "s.jsonl", "--window-secs", "1200"]) == 0
    scored = workdir / "s.jsonl"
    lines = scored.read_text().splitlines()
    lines.insert(3, line)
    scored.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["metrics", "--scored", "s.jsonl", "--events", "events.jsonl",
                 "--truth", "truth.tsv", "--out", "m.out",
                 "--window-secs", "1200"]) == EXIT_ERROR
    assert "s.jsonl: line 4:" in _one_line_error(capsys)
    assert not (workdir / "m.out").exists()


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "0"])
def test_train_gamma_must_be_finite_and_positive(workdir, capsys, gamma):
    _simulate(workdir)
    capsys.readouterr()
    assert main(["train", "--events", "events.jsonl", "--out", "m.json",
                 f"--gamma={gamma}"]) == EXIT_ERROR
    assert "gamma" in _one_line_error(capsys)
    assert not (workdir / "m.json").exists()


def test_huge_bytes_out_is_a_bad_numeric_attr(workdir, model_file):
    lines = (workdir / "clean.jsonl").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if '"bytes_out":"' in line)
    e = decode_event(lines[at])
    e.attributes["bytes_out"] = "9" * 401
    lines[at] = encode_event(e)
    (workdir / "events.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["train", "--events", "events.jsonl", "--out", "m.json"]) == 0
    counters = json.loads((workdir / "manifest.train.json").read_text())["counters"]
    assert counters["bad_numeric_attrs"] == 1


# --- detect, train and score read a store in parts, one per usable CPU ---

@pytest.fixture(scope="module")
def parts_store(tmp_path_factory):
    """An attacked 862-event store and the detect, train and score outputs
    of one pass."""
    root = tmp_path_factory.mktemp("parts")
    (root / "cfg.json").write_text(json.dumps({"users": 10, "duration": 3600}))
    for argv in (["simulate", "--seed", "1", "--config", root / "cfg.json",
                  "--out", root / "events.jsonl", "--truth", root / "truth.tsv"],
                 ["ingest", "--store", root / "store", "--events", root / "events.jsonl"]):
        assert main([str(a) for a in argv]) == 0
    return root, _read_in_parts(root / "store", root / "one")


def _read_in_parts(store, out):
    """(exit status, stderr, output bytes and manifest counters) of detect,
    of train, and of score if train succeeded."""
    os.makedirs(out)
    window = ["--window-secs", "600"]
    runs = []
    for argv in (["detect", "--store", store, "--out", out / "report.jsonl"],
                 ["train", "--store", store, "--out", out / "model.json", *window],
                 ["score", "--store", store, "--model", out / "model.json",
                  "--out", out / "scored.jsonl", *window]):
        if argv[0] == "score" and runs[-1][0]:
            break
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([str(a) for a in argv])
        result = [rc, err.getvalue()]
        if rc in (0, 3, 4):
            result.append(Path(argv[argv.index("--out") + 1]).read_bytes())
            manifest = json.loads((out / f"manifest.{argv[0]}.json").read_text())
            result.append(manifest["counters"])
        runs.append(result)
    with pytest.raises(ChildProcessError):  # no worker is left behind
        os.waitpid(-1, os.WNOHANG)
    return runs


@pytest.fixture
def four_parts(monkeypatch):
    from chaintrace import store

    monkeypatch.setattr(store, "MIN_PART_LINES", 100)
    monkeypatch.setattr(store, "_usable_cpus", lambda: 4)


def _damaged_copy(root, tmp_path, edits):
    """A copy of the store with ``edits`` ({line number: new line}) made."""
    store = tmp_path / "store"
    shutil.copytree(root / "store", store)
    seg = store / "000000.seg"
    lines = seg.read_text().splitlines()
    for at, line in edits.items():
        lines[at] = line
    seg.write_text("\n".join(lines) + "\n")
    return store


def _detect_decodes(lines, at):
    """The number of the first of ``lines`` from ``at`` on that detect's
    prefilter keeps, so that detect decodes it."""
    rules = load_rules(str(resources.files("chaintrace.data") / "default_rules.json"))
    keep = line_prefilter(rules)
    return next(i for i in range(at, len(lines)) if keep(lines[i] + "\n"))


def test_parts_give_the_outputs_of_one_pass(parts_store, tmp_path, four_parts):
    root, one = parts_store
    assert [rc for rc, *_ in one] == [4, 0, 0]
    assert one[0][3]["events_decoded"] < one[0][3]["rows_scanned"] == 862
    assert _read_in_parts(root / "store", tmp_path / "four") == one


@pytest.mark.parametrize("fork", ["missing", "fails after one worker"])
def test_parts_without_a_worker_are_read_in_order(parts_store, tmp_path, four_parts,
                                                  monkeypatch, fork):
    root, one = parts_store
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        real, forked = os.fork, []

        def fork_once():
            if forked:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forked.append(True)
            return real()

        monkeypatch.setattr(os, "fork", fork_once)
    assert _read_in_parts(root / "store", tmp_path / "four") == one


def test_killed_worker_part_is_read_again(parts_store, tmp_path, four_parts, monkeypatch):
    from chaintrace import store as store_module

    root, one = parts_store
    parent, decode = os.getpid(), store_module.decode_event
    # from line 500 on is part 2: only its worker decodes the line, halfway through
    lines = (root / "store" / "000000.seg").read_text().splitlines(True)
    target = lines[_detect_decodes(lines, 500)]

    def dies_in_worker(line):
        if line == target and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return decode(line)

    monkeypatch.setattr(store_module, "decode_event", dies_in_worker)
    assert _read_in_parts(root / "store", tmp_path / "four") == one


def _bad_ts(line, ts):  # by text: the encoder refuses a ts <= 0
    return line.replace(f'"ts":{decode_event(line).ts},', f'"ts":{ts},', 1)


@pytest.mark.parametrize("damage", ["later part", "two parts", "past t1 hides",
                                    "unsorted", "unsorted, then bad"])
def test_parts_fail_as_one_pass(parts_store, tmp_path, request, damage):
    root, _ = parts_store
    lines = (root / "store" / "000000.seg").read_text().splitlines()
    # with four parts of about 215 lines: part 0 is lines 0-214, part 2 from 431
    at = _detect_decodes(lines, 431)  # part 2's first line that detect decodes
    unsorted = _bad_ts(lines[at], decode_event(lines[0]).ts)
    edits = {
        "later part": {500: "{bad"},
        "two parts": {300: _bad_ts(lines[300], -5), 700: "{bad"},
        "past t1 hides": {100: _bad_ts(lines[100], 1 << 62), 300: "{bad"},
        # the step back is found where the parts meet
        "unsorted": {at: unsorted},
        # its worker fails at the bad line; one pass fails at the step back
        "unsorted, then bad": {at: unsorted, at + 20: "{bad"},
    }[damage]
    store = _damaged_copy(root, tmp_path, edits)
    one = _read_in_parts(store, tmp_path / "one")
    request.getfixturevalue("four_parts")
    assert _read_in_parts(store, tmp_path / "four") == one
    (detect_rc, detect_err, *_), (train_rc, train_err, *_), *_ = one
    assert detect_rc == EXIT_ERROR
    assert (train_rc == EXIT_ERROR) == (damage != "unsorted")
    for err in (detect_err, train_err) if train_rc else (detect_err,):
        assert err.startswith("error: ") and err.count("\n") == 1
    assert ("ts must be > 0" in train_err) == (damage == "two parts")
    # a ts past the index is an error at its line, not the end of the read
    assert ("line 101: ts 4611686018427387904 lies outside" in train_err) \
        == (damage == "past t1 hides")
    if damage.startswith("unsorted"):
        e = decode_event(unsorted)
        assert detect_err == f"error: event id={e.id} ts={e.ts} out of order\n"
    elif damage == "two parts":  # detect's prefilter skips line 301 undecoded
        assert "line 701: invalid JSON" in detect_err
    else:
        assert detect_err == train_err


def _detect_run(argv):
    """(exit status, stdout, stderr, report bytes, manifest counters) of a detect."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    report = Path(argv[argv.index("--out") + 1])
    manifest = json.loads((report.parent / "manifest.detect.json").read_text())
    with pytest.raises(ChildProcessError):  # no worker is left behind
        os.waitpid(-1, os.WNOHANG)
    return rc, out.getvalue(), err.getvalue(), report.read_bytes(), manifest["counters"]


@given(scenario=st.sampled_from(SCENARIOS), victims=st.integers(0, 3),
       truncate=st.one_of(st.none(), st.sampled_from(STEP_ORDER)),
       factor=st.sampled_from([1, 1.5, 2, 3]), seed=st.integers(0, 1 << 16),
       n_parts=st.integers(1, 4), segment=st.sampled_from([40, 150, 1 << 20]))
@settings(max_examples=40, deadline=None)
def test_detect_store_in_parts_is_one_pass(scenario, victims, truncate, factor, seed,
                                           n_parts, segment):
    """``detect --store`` read in 1-4 parts, across segments, gives the
    outputs of one part; its report is that of ``detect --events``."""
    from chaintrace import store as store_module
    from chaintrace.simulate import SimConfig, expand_with_noise, simulate

    cfg = SimConfig(seed=seed, users=8, duration=600 * max(victims, 1), attack=victims > 0,
                    victims=max(victims, 1), scenario=scenario, truncate_after=truncate)
    events, _ = simulate(cfg)
    if factor > 1:
        events = list(expand_with_noise(events, factor, seed))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        (root / "events.jsonl").write_text("".join(encode_event(e) + "\n" for e in events))
        store = EventStore(str(root / "store"), segment_events=segment)
        store.append(events)
        store.close()
        mp.setattr(store_module, "MIN_PART_LINES", 1)
        runs = []
        for n in (n_parts, 1):
            mp.setattr(store_module, "_usable_cpus", lambda n=n: n)
            os.makedirs(root / str(n), exist_ok=True)
            runs.append(_detect_run(["detect", "--store", root / "store",
                                     "--out", root / str(n) / "report.jsonl"]))
        assert runs[0] == runs[1]
        rc, _, err, report, counters = runs[0]
        assert err == "" and counters["rows_scanned"] == len(events)
        by_events = _detect_run(["detect", "--events", root / "events.jsonl",
                                 "--out", root / "report.jsonl"])
        assert (by_events[0], by_events[3]) == (rc, report)
        assert by_events[4]["rule_skips"] == counters["rule_skips"]


_BAD_JSON = "invalid JSON: Expecting property name enclosed in double quotes (byte offset 1)"


@pytest.mark.parametrize("command", ["detect", "train"])
@pytest.mark.parametrize("at", [100, 500], ids=["part 0", "later part"])
def test_store_decode_error_names_the_file_and_line(parts_store, tmp_path, capsys,
                                                    four_parts, command, at):
    root, _ = parts_store
    store = _damaged_copy(root, tmp_path, {at: "{bad"})
    capsys.readouterr()
    assert main([command, "--store", str(store), "--out", str(tmp_path / "out")]) == EXIT_ERROR
    seg = os.path.join(str(store), "000000.seg")
    assert _one_line_error(capsys) == f"error: {seg}: line {at + 1}: {_BAD_JSON}\n"


@pytest.mark.parametrize("command", ["detect", "train"])
@pytest.mark.parametrize("damage", ["bad JSON", "negative ts"])
def test_events_decode_error_names_the_file_and_line(parts_store, tmp_path, capsys,
                                                     command, damage):
    root, _ = parts_store
    lines = (root / "store" / "000000.seg").read_text().splitlines()
    lines[500] = "{bad" if damage == "bad JSON" else _bad_ts(lines[500], -5)
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--events", str(events), "--out", str(tmp_path / "out")]) == EXIT_ERROR
    # a fault without an offset states none
    want = _BAD_JSON if damage == "bad JSON" else "ts must be > 0, got -5"
    assert _one_line_error(capsys) == f"error: {events}: line 501: {want}\n"


# --- ingest and pseudonymize read an --events file in parts ---

_RAW_OR_CANONICAL = {"ingest": "events.jsonl", "ingest raw": "raw.log",
                     "pseudonymize": "events.jsonl"}


@pytest.fixture(scope="module")
def file_parts(tmp_path_factory):
    """An attacked 862-event stream, canonical and raw, with its first 100
    lines and the rest as files of their own; a vault and its shares, and
    that vault holding the tokens of the first 100 lines."""
    from chaintrace.vault import create_vault

    root = tmp_path_factory.mktemp("file-parts")
    (root / "cfg.json").write_text(json.dumps({"users": 10, "duration": 3600}))
    assert main([str(a) for a in ["simulate", "--seed", "1", "--config", root / "cfg.json",
                                  "--out", root / "events.jsonl", "--truth", root / "t.tsv",
                                  "--raw", root / "raw.log"]]) == 0
    for name in ("events.jsonl", "raw.log"):
        lines = (root / name).read_bytes().splitlines(keepends=True)
        (root / f"head-{name}").write_bytes(b"".join(lines[:100]))
        (root / f"tail-{name}").write_bytes(b"".join(lines[100:]))
    vault, shares = create_vault(2, 3)
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr("chaintrace.vault.create_vault", lambda k, n: (copy.deepcopy(vault), shares))
        assert main([str(a) for a in ["pseudonymize", "--events", root / "head-events.jsonl",
                                      "--out", root / "head-pseudo.jsonl",
                                      "--vault", root / "vault-100.json",
                                      "--shares-dir", root / "shares"]]) == 0
    return root, vault, shares


def _in_file_parts(monkeypatch, n, max_part=None):
    """Force ``n`` parts of at least 100 lines and batches of 64 rows onto
    the store's writer, at most ``max_part`` rows each; the list that
    records the number of parts of each ``_in_parts`` run."""
    from chaintrace import cli as cli_module
    from chaintrace import store as store_module

    monkeypatch.setattr(store_module, "MIN_PART_LINES", 100)
    monkeypatch.setattr(store_module, "WRITE_BATCH_LINES", 64)
    monkeypatch.setattr(store_module, "_usable_cpus", lambda: n)
    if max_part is not None:
        monkeypatch.setattr(store_module, "MAX_WRITE_PART_LINES", max_part)
    runs, real = [], store_module._in_parts

    def counted(parts, work):
        runs.append(len(parts))
        return real(parts, work)
    monkeypatch.setattr(store_module, "_in_parts", counted)
    monkeypatch.setattr(cli_module, "_in_parts", counted)
    return runs


def _part_starts(command, n_lines):
    """The first line of each part of ``command``'s read of ``n_lines``
    lines, in the forced parts."""
    from chaintrace import store as store_module

    if command == "pseudonymize":
        return [part.start for part in store_module._even_parts(range(n_lines))]
    return [rows.start for rows, _ in EventStore("unused")._write_parts(range(n_lines))]


def _committed(store):
    """The store's index and the committed bytes of each segment."""
    if not os.path.exists(store):
        return None
    index = json.loads((store / "index.json").read_text())
    return {"index.json": (store / "index.json").read_bytes(),
            **{seg["path"]: (store / seg["path"]).read_bytes()[:seg["bytes"]]
               for seg in index["segments"]}}


def _run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    with pytest.raises(ChildProcessError):  # no worker is left behind
        os.waitpid(-1, os.WNOHANG)
    return rc, err.getvalue()


def _file_command(command, events, out, vault=None):
    """(exit status, stderr, and the command's outputs: the store's
    committed bytes, or ``--out``, the vault's token -> hash map and the
    share files) of ``command`` on the file ``events``; ``out`` is a new
    directory, or one that holds the store or vault to start from."""
    os.makedirs(out, exist_ok=True)
    if command.startswith("ingest"):
        fmt = "raw" if command == "ingest raw" else "canonical"
        rc, err = _run_quietly(["ingest", "--store", out / "store", "--events", events,
                                "--format", fmt])
        return rc, err, _committed(out / "store")
    if vault is not None:
        shutil.copyfile(vault, out / "vault.json")
    rc, err = _run_quietly(["pseudonymize", "--events", events, "--out", out / "p.jsonl",
                            "--vault", out / "vault.json", "--shares-dir", out / "shares"])
    left = sorted(p.name for p in out.iterdir() if not p.name.startswith("manifest."))
    if rc:
        return rc, err, left
    entries = json.loads((out / "vault.json").read_text())["entries"]
    pseudo = (out / "p.jsonl").read_bytes()
    # every token written is escrowed
    assert {t.decode() for t in re.findall(rb"pn:[0-9a-f]{32}", pseudo)} <= entries.keys()
    shares = {p.name: p.read_bytes() for p in sorted((out / "shares").glob("*"))} \
        if vault is None else None
    return rc, err, left, pseudo, {token: entry["h"] for token, entry in entries.items()}, shares


@pytest.fixture
def fixed_new_vault(file_parts, monkeypatch):
    """A new vault is the one of ``file_parts``, so that two runs make equal ones."""
    _, vault, shares = file_parts
    monkeypatch.setattr("chaintrace.vault.create_vault",
                        lambda k, n: (copy.deepcopy(vault), shares))


@pytest.mark.parametrize("held", [False, True], ids=["new", "holding 100 events"])
@pytest.mark.parametrize("max_part", [None, 50], ids=["one group", "many groups"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("command", sorted(_RAW_OR_CANONICAL))
def test_events_file_in_parts_gives_the_outputs_of_one_pass(file_parts, tmp_path, monkeypatch,
                                                            fixed_new_vault, command, n,
                                                            max_part, held):
    root, *_ = file_parts
    name = _RAW_OR_CANONICAL[command]

    def run(out):
        # a store holds the first 100 events in a partly filled segment; a
        # vault, the tokens of their identities
        vault = root / "vault-100.json" if held and command == "pseudonymize" else None
        if held and vault is None:
            assert _file_command(command, root / f"head-{name}", out)[0] == 0
        return _file_command(command, root / (f"tail-{name}" if held else name), out, vault)

    _in_file_parts(monkeypatch, 1)
    one = run(tmp_path / "one")
    assert one[0] == 0
    runs = _in_file_parts(monkeypatch, n, max_part)
    assert run(tmp_path / "split") == one
    lines = 762 if held else 862
    parts = len(_part_starts(command, lines))
    assert parts >= n and (parts > n) == (max_part is not None and n > 1)
    # a write of one part does not go through _in_parts
    assert runs == ([parts] if parts > 1 or command == "pseudonymize" else [])


def test_pseudonymized_tokens_of_a_worker_part_are_revealed(file_parts, tmp_path, monkeypatch,
                                                            fixed_new_vault):
    root, *_ = file_parts
    _in_file_parts(monkeypatch, 4)
    assert _file_command("pseudonymize", root / "events.jsonl", tmp_path)[0] == 0
    last = decode_event((root / "events.jsonl").read_text().splitlines()[-1])
    token = decode_event((tmp_path / "p.jsonl").read_text().splitlines()[-1]).actor
    shares = sorted((tmp_path / "shares").iterdir())[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["reveal", "--vault", str(tmp_path / "vault.json"), "--token", token,
                     *(a for p in shares for a in ("--share", str(p)))]) == 0
    assert out.getvalue() == f"{last.actor}\n"


def test_pseudonymize_workers_never_encrypt(file_parts, tmp_path, monkeypatch,
                                            fixed_new_vault):
    from chaintrace import vault as vault_module

    root, *_ = file_parts
    parent, oaep, marker = os.getpid(), vault_module._oaep, tmp_path / "encrypted in a worker"

    def in_the_parent_only():
        if os.getpid() != parent:
            marker.touch()
        return oaep()
    monkeypatch.setattr(vault_module, "_oaep", in_the_parent_only)
    assert _in_file_parts(monkeypatch, 4) == []
    assert _file_command("pseudonymize", root / "events.jsonl", tmp_path / "out")[0] == 0
    assert not marker.exists()


def _raw_ts(line: bytes, ts: int) -> bytes:
    kind, _, rest = line.split(b"\t", 2)
    return b"\t".join([kind, str(ts).encode(), rest])


def _ts_of(command, line: bytes) -> int:
    return int(line.split(b"\t")[1]) if command == "ingest raw" \
        else decode_event(line.decode()).ts


_FILE_FAULTS = {  # (commands, the damage done to lines[k])
    "malformed": (("ingest", "ingest raw", "pseudonymize"),
                  lambda lines, k, command: b"windows\tgarbage\n" if command == "ingest raw"
                  else b"{bad\n"),
    "not UTF-8": (("ingest", "ingest raw", "pseudonymize"),
                  lambda lines, k, command: lines[k][:4] + b"\xff" + lines[k][5:]),
    "ts regresses": (("ingest", "ingest raw"),
                     lambda lines, k, command: _raw_ts(lines[k], _ts_of(command, lines[k - 1]) - 1)
                     if command == "ingest raw" else
                     _bad_ts(lines[k].decode(), _ts_of(command, lines[k - 1]) - 1).encode()),
    "actor not UTF-8": (("pseudonymize",),
                        lambda lines, k, command: re.sub(rb'"actor":"[^"]*"',
                                                         rb'"actor":"u\\ud800"', lines[k])),
    "id past the bound": (("ingest raw",), None),
}


@pytest.mark.parametrize("where", ["part 0", "first of part 1", "last of part 1",
                                   "first of part 2", "last line"])
@pytest.mark.parametrize("command, fault", [(c, f) for f, (cs, _) in _FILE_FAULTS.items()
                                            for c in cs])
def test_events_file_in_parts_fails_as_one_pass(file_parts, tmp_path, monkeypatch,
                                                fixed_new_vault, command, fault, where):
    root, *_ = file_parts
    lines = (root / _RAW_OR_CANONICAL[command]).read_bytes().splitlines(keepends=True)
    _in_file_parts(monkeypatch, 4)
    starts = _part_starts(command, len(lines))
    assert len(starts) == 4
    k = {"part 0": 10, "first of part 1": starts[1], "last of part 1": starts[2] - 1,
         "first of part 2": starts[2], "last line": len(lines) - 1}[where]
    damage = _FILE_FAULTS[fault][1]
    if damage is None:  # the store holds an id from which line k's is 2**63
        lines_path = root / "raw.log"
        store = EventStore(str(tmp_path / "held"))
        store.append([decode_event(_canonical(_TOP - k, 1))])
        store.close()
    else:
        lines[k] = damage(lines, k, command)
        lines_path = tmp_path / "damaged"
        lines_path.write_bytes(b"".join(lines))

    def run(out):
        if damage is None:
            shutil.copytree(tmp_path / "held", out / "store")
        return _file_command(command, lines_path, out)

    _in_file_parts(monkeypatch, 1)
    one = run(tmp_path / "one")
    runs = _in_file_parts(monkeypatch, 4)
    assert run(tmp_path / "split") == one
    assert runs == [4]
    rc, err, left = one
    assert rc == EXIT_ERROR and err.startswith("error: ") and err.count("\n") == 1, err
    if fault == "id past the bound":
        assert err == f"error: event after id={_TOP}: {_BOUND}\n"
    elif fault != "ts regresses":
        assert f"{lines_path}: line {k + 1}" in err
    # a failing ingest commits none of its events; pseudonymize leaves no file
    if command == "pseudonymize":
        assert left == []
    else:
        assert left == (None if damage else _committed(tmp_path / "held"))


def _kill_worker_at(monkeypatch, command, target: bytes):
    """Make the worker that reads the line ``target`` die by SIGKILL there."""
    from chaintrace import cli as cli_module

    parent = os.getpid()
    name = "parse_raw_line" if command == "ingest raw" else "decode_event"
    real = getattr(cli_module, name)
    text = target.decode().rstrip("\n")

    def dies_in_worker(line, *args):
        seen = f"{line.source_kind}\t{line.text}" if command == "ingest raw" else line
        if seen.rstrip("\n") == text and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(line, *args)
    monkeypatch.setattr(cli_module, name, dies_in_worker)


@pytest.mark.parametrize("fault", ["worker killed", "no fork", "fork fails after one worker"])
@pytest.mark.parametrize("command", sorted(_RAW_OR_CANONICAL))
def test_events_file_in_parts_survives_a_lost_worker(file_parts, tmp_path, monkeypatch,
                                                     fixed_new_vault, command, fault):
    root, *_ = file_parts
    events = root / _RAW_OR_CANONICAL[command]
    _in_file_parts(monkeypatch, 1)
    one = _file_command(command, events, tmp_path / "one")
    runs = _in_file_parts(monkeypatch, 4)
    if fault == "worker killed":  # halfway through part 2
        lines = events.read_bytes().splitlines(keepends=True)
        starts = _part_starts(command, len(lines))
        _kill_worker_at(monkeypatch, command, lines[(starts[2] + starts[3]) // 2])
    elif fault == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        real, forked = os.fork, []

        def fork_once():
            if forked:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forked.append(True)
            return real()
        monkeypatch.setattr(os, "fork", fork_once)
    assert _file_command(command, events, tmp_path / "split") == one
    assert one[0] == 0 and runs == [4]


@pytest.mark.parametrize("source", ["pipe", "CRLF file"])
@pytest.mark.parametrize("command", sorted(_RAW_OR_CANONICAL))
def test_events_not_cuttable_are_read_in_one_part(file_parts, tmp_path, monkeypatch,
                                                  fixed_new_vault, command, source):
    # text mode reads "\r\n" as "\n": a CRLF file has the lines of the LF one
    import threading

    root, *_ = file_parts
    events = root / _RAW_OR_CANONICAL[command]
    one = _file_command(command, events, tmp_path / "file")
    runs = _in_file_parts(monkeypatch, 4)
    data = events.read_bytes()
    path = tmp_path / "input"
    if source == "CRLF file":
        path.write_bytes(data.replace(b"\n", b"\r\n"))
        got = _file_command(command, path, tmp_path / "out")
    else:
        os.mkfifo(path)

        def feed():
            with open(path, "wb") as fh:
                fh.write(data)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        got = _file_command(command, path, tmp_path / "out")
        writer.join(timeout=60)
        assert not writer.is_alive()
    assert got == one and one[0] == 0
    assert runs == ([1] if command == "pseudonymize" else [])


# --- fuzz gate: a damaged input file never lets an exception out of main() ---

@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One valid input file of each kind the commands read, and the reveal
    token; a fuzz example damages a copy of one of them."""
    root = tmp_path_factory.mktemp("pristine")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    (root / "cfg.json").write_text(json.dumps({"users": 8, "duration": 600}))
    for name in ("default_rules.json", "default_killchain.json"):
        (root / name).write_text(
            (resources.files("chaintrace.data") / name).read_text())
    run("simulate", "--seed", 42, "--config", root / "cfg.json",
        "--out", root / "events.jsonl", "--truth", root / "truth.tsv",
        "--raw", root / "raw.log")
    run("ingest", "--store", root / "store", "--events", root / "events.jsonl")
    run("pseudonymize", "--events", root / "events.jsonl", "--out", root / "pseudo.jsonl",
        "--vault", root / "vault.json", "--shares-dir", root / "shares", "-k", 2, "-n", 2)
    run("train", "--events", root / "events.jsonl", "--out", root / "model.json",
        "--window-secs", 600)
    run("score", "--events", root / "events.jsonl", "--model", root / "model.json",
        "--out", root / "scored.jsonl", "--window-secs", 600)
    token = sorted(json.loads((root / "vault.json").read_text())["entries"])[0]
    return root, token


# Each command with its argv (inputs relative to the copy, outputs under
# ``out/``) and the input files a fuzz example may damage.
_EVENTS_IN = ["--events", "events.jsonl"]
_STORE_IN = ["--store", "store"]
_STORE_FILES = ("store/index.json", "store/000000.seg")
_FUZZ_COMMANDS = {
    "simulate": (["simulate", "--config", "cfg.json", "--out", "out/e.jsonl",
                  "--truth", "out/t.tsv"], ("cfg.json",)),
    "ingest": (["ingest", "--store", "store", "--events", "pseudo.jsonl"],
               ("pseudo.jsonl",) + _STORE_FILES),
    "ingest --format raw": (["ingest", "--store", "out/store", "--events", "raw.log",
                             "--format", "raw"], ("raw.log",)),
    "pseudonymize": (["pseudonymize", *_EVENTS_IN, "--out", "out/p.jsonl",
                      "--vault", "vault.json"], ("events.jsonl", "vault.json")),
    "detect --events": (["detect", *_EVENTS_IN, "--rules", "default_rules.json",
                         "--killchain", "default_killchain.json", "--out", "out/r.jsonl"],
                        ("events.jsonl", "default_rules.json", "default_killchain.json")),
    "detect --store": (["detect", *_STORE_IN, "--out", "out/r.jsonl"], _STORE_FILES),
    "train": (["train", *_STORE_IN, "--out", "out/m.json", "--window-secs", "600"],
              _STORE_FILES),
    "score": (["score", *_EVENTS_IN, "--model", "model.json", "--out", "out/s.jsonl",
               "--window-secs", "600"], ("events.jsonl", "model.json")),
    "metrics": (["metrics", "--scored", "scored.jsonl", *_EVENTS_IN, "--truth", "truth.tsv",
                 "--out", "out/m.json", "--window-secs", "600"],
                ("scored.jsonl", "events.jsonl", "truth.tsv")),
    "reveal": (["reveal", "--vault", "vault.json", "--token", "TOKEN",
                "--share", "shares/share-001.txt", "--share", "shares/share-002.txt"],
               ("vault.json", "shares/share-001.txt")),
    "detect --export": (["detect", *_EVENTS_IN, "--rules", "default_rules.json",
                         "--out", "out/r.jsonl", "--export", "out/g.dot"],
                        ("events.jsonl", "default_rules.json")),
}
_FUZZ_CASES = [(command, path) for command, (_, paths) in _FUZZ_COMMANDS.items()
               for path in paths]


def _damage(data: bytes, how) -> bytes:
    """``data`` cut at, or with one byte replaced at, a position taken
    modulo its length (negative counts from the end); the document of
    another JSON kind; or nothing."""
    kind, *arg = how
    if kind == "empty" or not data:
        return b""
    if kind == "kind":
        return arg[0].encode() + b"\n"
    at = arg[0] % len(data)
    if kind == "truncate":
        return data[:at]
    return data[:at] + bytes([arg[1]]) + data[at + 1:]


# One value of each JSON kind.
_KINDS = ["[]", "{}", '"x"', "0", "null", "true"]
_JSON_DOCUMENTS = {"cfg.json", "default_rules.json", "default_killchain.json",
                   "vault.json", "model.json", "store/index.json"}
# The members a swap to null leaves valid: (member, null) is allowed for
# these nullable members only.
_NULLABLE = {"max_count", "bytes"}


def _paths(doc, path=()):
    """The path of every member and array entry of ``doc``, at any depth."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from _paths(value, path + (key,))


def _swap(data: bytes, at, kind: str):
    """``data``, a JSON document, with the member at ``at`` (a path, or an
    index into ``_paths`` taken modulo their number) replaced by the value
    ``kind``, or by the next one in ``_KINDS`` if the member holds that
    JSON kind already; and the member's name and its new value."""
    doc = json.loads(data)
    if not isinstance(at, tuple):
        paths = list(_paths(doc))
        at = paths[at % len(paths)]
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    old = {list: "[]", dict: "{}", str: '"x"', int: "0", float: "0",
           type(None): "null", bool: "true"}[type(parent[at[-1]])]
    if old == kind:
        kind = _KINDS[(_KINDS.index(kind) + 1) % len(_KINDS)]
    parent[at[-1]] = json.loads(kind)
    return json.dumps(doc).encode(), at[-1], parent[at[-1]]


_damages = st.one_of(
    st.tuples(st.just("truncate"), st.integers(-(1 << 20), 1 << 20)),
    st.tuples(st.just("flip"), st.integers(-(1 << 20), 1 << 20), st.integers(0, 255)),
    st.tuples(st.just("kind"), st.sampled_from(_KINDS)),
    st.just(("empty",)),
    st.tuples(st.just("swap"), st.integers(0, 1 << 20), st.sampled_from(_KINDS)),
)


@given(case=st.sampled_from(_FUZZ_CASES), how=_damages)
@example(case=("metrics", "scored.jsonl"), how=("flip", 0, ord("x")))  # not JSON
@example(case=("metrics", "scored.jsonl"), how=("kind", "[]"))  # not an object
@example(case=("metrics", "scored.jsonl"), how=("flip", -25, ord("T")))  # window_starT
@example(case=("reveal", "shares/share-001.txt"), how=("flip", 23, ord("-")))  # x: -1
@example(case=("reveal", "shares/share-001.txt"), how=("flip", 0, 0xFF))
@example(case=("detect --store", "store/index.json"), how=("flip", 0, ord("x")))
@example(case=("detect --store", "store/index.json"), how=("flip", 0, 0xFF))
@example(case=("detect --store", "store/index.json"), how=("flip", 16, ord("q")))  # "qath"
@example(case=("ingest", "store/index.json"), how=("kind", "[]"))
# a member of another JSON kind once loaded as a different document
@example(case=("detect --events", "default_rules.json"),
         how=("swap", (0, "where", "attachment_ext"), "0"))  # a rule that never fires
@example(case=("detect --events", "default_rules.json"), how=("swap", (0, "layer"), "true"))
@example(case=("detect --export", "default_rules.json"), how=("swap", (6, "window"), "true"))
@example(case=("detect --events", "default_killchain.json"),
         how=("swap", ("elements", 1, "required"), '"x"'))  # read as true
@example(case=("score", "model.json"), how=("swap", ("rho",), "null"))  # a traceback
@example(case=("score", "model.json"), how=("swap", ("l",), "true"))
@example(case=("score", "model.json"),
         how=("swap", ("feature_means", 0), "null"))  # every decision NaN, exit 0
@example(case=("reveal", "vault.json"), how=("swap", ("version",), '"x"'))
@example(case=("detect --store", "store/index.json"),
         how=("swap", ("segments", 0, "bytes"), "null"))  # nullable: still a store
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_input_never_escapes_main(pristine, case, how):
    root, token = pristine
    command, damaged = case
    assume(how[0] != "swap" or damaged in _JSON_DOCUMENTS)
    argv, _ = _FUZZ_COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "w")
        shutil.copytree(root, work)
        os.mkdir(os.path.join(work, "out"))
        target = os.path.join(work, damaged)
        with open(target, "rb") as fh:
            data = fh.read()
        if how[0] == "swap":
            data, member, value = _swap(data, *how[1:])
        else:
            data = _damage(data, how)
        with open(target, "wb") as fh:
            fh.write(data)
        argv = [token if a == "TOKEN" else os.path.join(work, a)
                if a.startswith("out/") or os.path.exists(os.path.join(work, a))
                else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse
                rc = exc.code
    lines = err.getvalue().splitlines()
    if how[0] == "swap" and not (value is None and member in _NULLABLE):
        # the loader refuses a member its field's type does not allow
        assert rc == EXIT_ERROR and len(lines) == 1 and lines[0].startswith("error: "), \
            (rc, lines)
    elif rc == EXIT_ERROR:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert rc in (0, 2, 3, 4), (rc, lines)
