import argparse
import contextlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import chaintrace
from chaintrace.cli import EXIT_ERROR, build_parser, main
from chaintrace.events import decode_event, encode_event
from chaintrace.features import SOURCE_SETS, ExtractionStats, extract_features


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


# Runs commands through main in a fresh interpreter and prints, after
# each group, which of the heavy modules it has loaded.
_FOOTPRINT = """
import contextlib, io, json, sys
from chaintrace.cli import main
heavy = ("numpy", "cryptography", "xml.etree.ElementTree")
for group in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv) for argv in group]
    print(json.dumps([codes, [m for m in heavy if m in sys.modules]]))
"""


def test_commands_load_only_what_they_run(workdir):
    _simulate(workdir, extra=("--raw", "raw.tsv"))
    groups = [
        [["ingest", "--store", "store", "--events", "raw.tsv", "--format", "raw"],
         ["detect", "--store", "store", "--out", "report.jsonl"],
         ["detect", "--events", "events.jsonl", "--out", "report2.jsonl"]],
        [["pseudonymize", "--events", "events.jsonl", "--out", "pseudo.jsonl",
          "--vault", "vault.json", "-k", "2", "-n", "3"]],
    ]
    src = os.path.dirname(os.path.dirname(chaintrace.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(groups)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True).stdout.splitlines()
    assert [json.loads(line) for line in out] == [
        [[0, 4, 4], []],
        [[0], ["cryptography"]],
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
    rc = main(["export", "--events", "events.jsonl", "--out", "graph.dot"])
    assert rc == 0
    text = (workdir / "graph.dot").read_text()
    assert text.startswith("digraph")
    assert "connects_to" in text


def test_export_graphml(workdir):
    _simulate(workdir)
    rc = main(["export", "--events", "events.jsonl", "--out", "graph.xml",
               "--format", "graphml"])
    assert rc == 0
    assert "graphml" in (workdir / "graph.xml").read_text()


def test_missing_input_is_io_error(workdir, capsys):
    rc = main(["detect", "--events", "no-such-file.jsonl", "--out", "r.jsonl"])
    assert rc >= EXIT_ERROR
    assert "error" in capsys.readouterr().err


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
    ["export", "--out", "g.dot"],
])
def test_input_source_required(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "one of the arguments --store --events is required" in err
    assert "Traceback" not in err


def test_raw_line_without_tab_is_error(workdir, capsys):
    _simulate(workdir, extra=("--raw", "raw.log"))
    lines = (workdir / "raw.log").read_text().splitlines()
    (workdir / "bad.log").write_text(f"{lines[0]}\nno tab here\n")
    rc = main(["ingest", "--store", "store", "--events", "bad.log",
               "--format", "raw"])
    assert rc == EXIT_ERROR
    assert "line 2" in capsys.readouterr().err


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
    assert rc >= EXIT_ERROR
    assert "nosuch" in _one_line_error(capsys)
    assert not (workdir / "nosuch").exists()
    assert not (workdir / "out.jsonl").exists()


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
        "export": ["export", "--events", "events.jsonl", "--out", "out.json"],
        "ingest": ["ingest", "--store", "store", "--events", "events.jsonl"],
    }[command]
    assert main(argv) == EXIT_ERROR
    assert "host and actor must be strings" in _one_line_error(capsys)
    if command == "ingest":
        assert not (workdir / "store" / "000000.seg").exists()


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
    "pseudonymize",
])
def test_invalid_utf8_is_decode_error(workdir, capsys, command):
    _simulate(workdir, extra=("--raw", "raw.log"))
    assert main(["ingest", "--store", "store", "--events", "events.jsonl"]) == 0
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


@pytest.mark.parametrize("line", ["not json", "[1, 2]",
                                  '{"user": "u000", "anomalous": true}',
                                  '{"user": "u000", "window_start": "0", "anomalous": true}'],
                         ids=["not-json", "not-object", "no-window-start", "string-start"])
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


# --- train and score read a store in parts, one per usable CPU ---

@pytest.fixture(scope="module")
def parts_store(tmp_path_factory):
    """A clean 811-event store and the train and score outputs of one pass."""
    root = tmp_path_factory.mktemp("parts")
    (root / "cfg.json").write_text(json.dumps({"users": 10, "duration": 3600}))
    for argv in (["simulate", "--seed", "1", "--config", root / "cfg.json",
                  "--attack", "false", "--out", root / "events.jsonl",
                  "--truth", root / "truth.tsv"],
                 ["ingest", "--store", root / "store", "--events", root / "events.jsonl"]):
        assert main([str(a) for a in argv]) == 0
    return root, _train_and_score(root / "store", root / "one")


def _train_and_score(store, out):
    """(exit status, stderr, output bytes and manifest counters) of train,
    then of score if train succeeded."""
    os.makedirs(out)
    runs = []
    for argv in (["train", "--store", store, "--out", out / "model.json"],
                 ["score", "--store", store, "--model", out / "model.json",
                  "--out", out / "scored.jsonl"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([str(a) for a in argv + ["--window-secs", "600"]])
        result = [rc, err.getvalue()]
        if rc == 0:
            result.append(Path(argv[-1]).read_bytes())
            manifest = json.loads((out / f"manifest.{argv[0]}.json").read_text())
            result.append(manifest["counters"])
        runs.append(result)
        if rc:
            break
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


def test_parts_give_the_outputs_of_one_pass(parts_store, tmp_path, four_parts):
    root, one = parts_store
    assert [rc for rc, *_ in one] == [0, 0]
    assert _train_and_score(root / "store", tmp_path / "four") == one


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
    assert _train_and_score(root / "store", tmp_path / "four") == one


def test_killed_worker_part_is_read_again(parts_store, tmp_path, four_parts, monkeypatch):
    from chaintrace import store as store_module

    root, one = parts_store
    parent, decode = os.getpid(), store_module.decode_event
    # line 500 is in part 2: only its worker decodes it, halfway through
    target = (root / "store" / "000000.seg").read_text().splitlines(True)[500]

    def dies_in_worker(line):
        if line == target and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return decode(line)

    monkeypatch.setattr(store_module, "decode_event", dies_in_worker)
    assert _train_and_score(root / "store", tmp_path / "four") == one


def _bad_ts(line, ts):
    e = decode_event(line)
    e.ts = ts
    return encode_event(e)


@pytest.mark.parametrize("damage", ["later part", "two parts", "past t1 hides"])
def test_parts_fail_as_one_pass(parts_store, tmp_path, request, damage):
    root, _ = parts_store
    lines = (root / "store" / "000000.seg").read_text().splitlines()
    # with four parts of about 200 lines: part 0 is lines 0-201, part 2 from 405
    edits = {
        "later part": {500: "{bad"},
        "two parts": {300: _bad_ts(lines[300], -5), 700: "{bad"},
        "past t1 hides": {100: _bad_ts(lines[100], 1 << 62), 300: "{bad"},
    }[damage]
    store = _damaged_copy(root, tmp_path, edits)
    one = _train_and_score(store, tmp_path / "one")
    request.getfixturevalue("four_parts")
    assert _train_and_score(store, tmp_path / "four") == one
    assert one[0][0] == EXIT_ERROR
    assert one[0][1].startswith("error: ") and one[0][1].count("\n") == 1
    assert ("ts must be > 0" in one[0][1]) == (damage == "two parts")
    # a ts past the index is an error at its line, not the end of the read
    assert ("line 101: ts 4611686018427387904 lies outside" in one[0][1]) \
        == (damage == "past t1 hides")


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
    "export": (["export", *_EVENTS_IN, "--rules", "default_rules.json",
                "--out", "out/g.dot"], ("events.jsonl", "default_rules.json")),
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
@example(case=("export", "default_rules.json"), how=("swap", (6, "window"), "true"))
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
    elif rc in (EXIT_ERROR, EXIT_ERROR + 1):
        prefix = "error: " if rc == EXIT_ERROR else "io error: "
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
    else:
        assert rc in (0, 2, 3, 4), (rc, lines)
