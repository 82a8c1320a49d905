import argparse
import contextlib
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
from chaintrace.events import TextLines, decode_event, encode_event
from chaintrace.features import SOURCE_SETS, ExtractionStats, extract_features
from chaintrace.graph import (apply_rules, build_graph, draw_detection, export_graph,
                              line_prefilter, load_rules)
from chaintrace.simulate import SCENARIOS, STEP_ORDER, read_truth_file
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
    _simulate(workdir)
    assert main(["detect", "--events", "events.jsonl", "--out", "plain.jsonl"]) == 4
    assert main(["detect", "--events", "events.jsonl", "--out", "report.jsonl",
                 "--export", "detect.graph", "--format", fmt]) == 4
    report = (workdir / "report.jsonl").read_bytes()
    assert report == (workdir / "plain.jsonl").read_bytes()
    # the graph of the events and their sequences, without the kill chain
    events = list(TextLines("events.jsonl", decode_event))
    rules = load_rules(str(resources.files("chaintrace.data") / "default_rules.json"))
    plain = apply_rules(build_graph(events), rules, events)
    draw_detection(plain, [], {})  # the member_of edges alone
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
    bound = {(b["sequence"], f"kc:{eid}") for r in rows for eid, b in r["elements"].items()}
    assert {nid: kind for nid, (kind, _) in nodes.items() if nid not in plain_nodes} == \
        {kc: "kc_element" for _, kc in bound}
    assert plain_edges < edges
    assert edges - plain_edges == {(seq, kc, "matches") for seq, kc in bound}


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
        "dot": "5746173a79b7204bc2fe57366ce6cf1326ebe46017885026606eba4e9a2b47d4",
        "graphml": "00c3cb25b90f3e5019e70d7500c8d47705c28db99a71d3c2f2e377a5937c3b7b",
        "report": "bd69c8162ababf0ff267d2b7aecb05f87cf6cc0ed5f4d2e91627f909513876da",
        "stdout": "ccce76d89b3f01f0de3a226846ecdbc27c68a0e4d80293cc428dbe8256c7adf9",
        "exit": "4b227777d4dd1fc61c6f884f48641d02b4d121d3fd328cb08b5531fcacdabf8a",
        "counters --events": "8c48945124abfe267c95828c8076876302fb0c46be89e6d6df19a8cde3e4e2f2",
        "counters --store": "eb97668eb50b71fe00b20eef1dd3c5466e34fc19525f205828a1f21a045e4cd6",
    },
    "seed 77": {
        "dot": "90fdf0bd1ee2d5f9eb27f734810c450fbb05a966013788821478e95770ff67dc",
        "graphml": "6d8901b06db8904a4b6632e0af9c76453235ab27529ad5aae8618a76d5a57616",
        "report": "b9c3840a02655d53c0c2f1fc0b28d2af96b5b7602cd4230e8668a3c7f6c6de14",
        "stdout": "cf0d669d7b92c796436282c45bad5cb1499337725865b2e1316b1950fec24a5a",
        "exit": "4b227777d4dd1fc61c6f884f48641d02b4d121d3fd328cb08b5531fcacdabf8a",
        "counters --events": "cdc46ebb7a12b9c1242c24823a865864c50c1a471a60a554d4743dc063620139",
        "counters --store": "8e85a1a239d7c3c96a9366dcbe60f9bd8322e964c00df90ec47463e8686e218f",
    },
    "usb, 3 victims, expanded 2x": {
        "dot": "46f5cafcfc6bbbfd0c5700adfdf110a601dcaa28f2f663da44eec24070a88fac",
        "graphml": "119827eb2fc1f8b63a6ba4102d0e29f9d6ebe40add966839b956132114ebb9d9",
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
], ids=["bad timestamp", "no tab"])
def test_raw_ingest_error_names_the_file_and_line(workdir, capsys, name, line, fault):
    _simulate(workdir, extra=("--raw", "raw.log"))
    lines = (workdir / "raw.log").read_text().splitlines()
    (workdir / name).write_text("\n".join([*lines[:5], line]) + "\n")
    capsys.readouterr()
    assert main(["ingest", "--store", "store", "--events", name,
                 "--format", "raw"]) == EXIT_ERROR
    assert _one_line_error(capsys) == f"error: {name}: line 6: {fault}\n"


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
        "export": ["detect", "--events", "events.jsonl", "--out", "out.json",  # full graph
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


def _bad_ts(line, ts):
    e = decode_event(line)
    e.ts = ts
    return encode_event(e)


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
