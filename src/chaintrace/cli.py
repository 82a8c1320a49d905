"""Command-line front end: simulate, ingest, pseudonymize, detect, train,
score, metrics, reveal, export.

Exit codes: 0 success / no alert, 3 partial kill chain, 4 full kill
chain, >= 64 on errors. Every run writes a JSON manifest next to its
primary output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from importlib import resources

from .errors import ChaintraceError, MalformedLine
from .events import (RawLine, decode_event, encode_event, load_json,
                     parse_raw_line, render_raw_line, utf8_fault)
from .graph import (
    PropertyGraph,
    apply_rules,
    build_graph,
    export_graph,
    line_prefilter,
    load_rules,
)
from .killchain import (
    exit_code_for,
    identify_adversary,
    load_killchain,
    match_killchain,
    reconstruct_attack,
)
from .store import EventStore

# features, ocsvm and simulate load numpy, vault loads cryptography: each
# is imported by the commands that use it, so the others start without them.

EXIT_ERROR = 64


def _default_resource(name: str) -> str:
    return str(resources.files("chaintrace.data") / name)


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(command: str, argv: list[str], args: argparse.Namespace,
                    outputs: list[str], t0: float, status: int) -> None:
    primary = next((p for p in outputs if p and os.path.exists(p)), None)
    if primary is None:
        return
    manifest = {
        "command": command,
        "argv": argv,
        "seed": getattr(args, "seed", None),
        "outputs": {
            p: _sha256_file(p) for p in outputs if p and os.path.isfile(p)
        },
        "elapsed_seconds": round(time.monotonic() - t0, 3),
        "exit_status": status,
    }
    counters = getattr(args, "counters", None)
    if counters is not None:
        manifest["counters"] = counters
    path = os.path.join(os.path.dirname(os.path.abspath(primary)),
                        f"manifest.{command}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


def _write_events(path: str, events) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(encode_event(e))
            fh.write("\n")
            n += 1
    return n


class _EventFile:
    """The events of a canonical file, one per line; counts the lines it
    reads as ``EventStore.query`` counts a store's."""

    rows_skipped = 0  # every line is decoded

    def __init__(self, path: str):
        self.path = path
        self.rows_scanned = 0

    def __iter__(self):
        with open(self.path, "r", encoding="utf-8") as fh:
            try:
                for line in fh:
                    self.rows_scanned += 1
                    yield decode_event(line)
            except UnicodeDecodeError:
                raise utf8_fault(self.path) from None


def _input_events(args: argparse.Namespace, prefilter=None):
    """The event stream named by ``--store`` or ``--events``, and the
    store or file it reads, whose ``rows_scanned`` and ``rows_skipped``
    are complete once the stream is.

    A ``--store`` that is not an existing store is an error, not an empty
    stream. ``prefilter`` applies to store lines only (``EventStore.query``).
    """
    if args.store:
        store = EventStore(args.store, create=False)
        return store.query_all(prefilter=prefilter), store
    events = _EventFile(args.events)
    return events, events


# --- subcommands ---

def cmd_simulate(args) -> int:
    from .simulate import GroundTruth, SimConfig, expand_with_noise, simulate, write_truth_file

    cfg = SimConfig.from_dict(load_json(args.config, "config") if args.config else {})
    if args.seed is not None:
        cfg.seed = args.seed
    if args.attack is not None:
        cfg.attack = args.attack
    events, truth = simulate(cfg)
    if args.expand_factor > 1:
        id_map: dict[int, int] = {}
        expanded = expand_with_noise(events, args.expand_factor, cfg.seed, id_map)
        _write_events(args.out, expanded)
        truth = GroundTruth(
            labels=[(id_map[i], lab) for i, lab in truth.labels],
            victim_hosts=truth.victim_hosts,
            attacker_ip=truth.attacker_ip,
        )
    else:
        _write_events(args.out, events)
    write_truth_file(args.truth, truth)
    if args.raw:
        with open(args.raw, "w", encoding="utf-8") as fh:
            for e in events:
                raw = render_raw_line(e)
                fh.write(f"{raw.source_kind}\t{raw.text}\n")
    return 0


def cmd_ingest(args) -> int:
    store = EventStore(args.store)
    if args.format == "canonical":
        stream = _EventFile(args.events)
    else:
        def raw_stream():
            with open(args.events, "r", encoding="utf-8") as fh:
                next_id = store.last_id + 1
                try:
                    for lineno, line in enumerate(fh, 1):
                        kind, tab, text = line.rstrip("\n").partition("\t")
                        if not tab:
                            raise MalformedLine(
                                f"line {lineno}: no tab after the source kind")
                        yield parse_raw_line(RawLine(kind, text), next_id)
                        next_id += 1
                except UnicodeDecodeError:
                    raise utf8_fault(args.events) from None
        stream = raw_stream()
    n = store.append(stream)
    store.close()
    print(f"ingested {n} events into {args.store}")
    return 0


def cmd_pseudonymize(args) -> int:
    """Tokenize into a temporary file; only once the whole input has been
    read are a new vault's key shares, the vault and ``--out`` written, so
    a failing input leaves none of them behind."""
    from .secretshare import write_share_file
    from .vault import PseudonymVault, create_vault

    shares = []
    if os.path.exists(args.vault):
        vault = PseudonymVault.load(args.vault)
    else:
        vault, shares = create_vault(args.threshold, args.shares)
    def stream():
        for e in _EventFile(args.events):
            yield vault.pseudonymize_event(e)
    tmp = args.out + ".tmp"
    try:
        _write_events(tmp, stream())
        if shares:
            os.makedirs(args.shares_dir, exist_ok=True)
        for share in shares:
            write_share_file(
                os.path.join(args.shares_dir, f"share-{share.x:03d}.txt"), share
            )
        vault.save(args.vault)
        os.replace(tmp, args.out)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return 0


def cmd_detect(args) -> int:
    rules = load_rules(args.rules or _default_resource("default_rules.json"))
    model = load_killchain(
        args.killchain or _default_resource("default_killchain.json"), rules
    )
    # Canonical store lines that no layer-1 rule can accept are skipped
    # undecoded; an --events file need not be canonical, and the exported
    # graph needs every event.
    prefilter = line_prefilter(rules) if args.store and not args.export else None
    events, source = _input_events(args, prefilter)
    if args.export:
        # the exported graph carries the host/user/event layer as well
        events = list(events)
        graph = build_graph(events)
    else:
        graph = PropertyGraph()
    apply_rules(graph, rules, events)
    args.counters = {
        "rows_scanned": source.rows_scanned,
        "rows_skipped": source.rows_skipped,
        "events_decoded": source.rows_scanned - source.rows_skipped,
        "rule_skips": graph.rule_skips,
    }

    matches = match_killchain(graph, model)
    report_rows = []
    for m in matches:
        if m.status in ("partial", "full"):
            try:
                identify_adversary(m, graph, model)
            except ChaintraceError:
                pass
        row = m.to_report(model)
        row["reconstruction"] = reconstruct_attack(m, graph, model)
        report_rows.append(row)
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in report_rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(export_graph(graph, args.format))
    code = exit_code_for(matches)
    alerts = [m for m in matches if m.status != "none"]
    print(f"{len(matches)} candidate host(s), {len(alerts)} alert(s), exit {code}")
    return code


def _vectors_from_args(args):
    """Feature vectors of the input and their matrix; fills
    ``args.counters`` with what the scan and the extraction saw."""
    from . import features as feats

    # a store is read in parts, one per usable CPU; an --events file in one
    source = _input_events(args)[1]
    stats = feats.ExtractionStats()
    vectors = feats.extract_features(source, window=args.window_secs, stats=stats)
    args.counters = {
        "rows_scanned": source.rows_scanned,
        "events_decoded": source.rows_scanned - source.rows_skipped,
        "windows": len(vectors),
        "unmatched_logoffs": stats.unmatched_logoffs,
        "bad_numeric_attrs": stats.bad_numeric_attrs,
    }
    return vectors, feats.matrix_of(vectors)


def cmd_train(args) -> int:
    from . import ocsvm

    vectors, X = _vectors_from_args(args)
    solver = ocsvm.SolverStats()
    model = ocsvm.fit(
        X, nu=args.nu, gamma=args.gamma, source_set=args.source_set, stats=solver
    )
    model.save(args.out)
    args.counters.update(
        iterations=solver.iterations,
        final_gap=solver.final_gap,
        kernel_rows=solver.kernel_rows,
        support_vectors=model.support_vectors.shape[0],
    )
    print(f"trained on {len(vectors)} windows, "
          f"{model.support_vectors.shape[0]} support vectors")
    return 0


def cmd_score(args) -> int:
    from . import ocsvm

    model = ocsvm.OneClassSvmModel.load(args.model)
    vectors, X = _vectors_from_args(args)
    decisions = model.decision(X)
    args.counters["anomalous"] = int((decisions < 0).sum())
    with open(args.out, "w", encoding="utf-8") as fh:
        for fv, f in zip(vectors, decisions):
            fh.write(json.dumps({
                "user": fv.user,
                "window_start": fv.window_start,
                "decision": float(f),
                "anomalous": bool(f < 0),
            }, sort_keys=True))
            fh.write("\n")
    return 0


def _read_scored(path: str) -> list[tuple[str, int, bool]]:
    """(user, window_start, anomalous) of each line ``score`` wrote."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                try:
                    r = json.loads(line)
                    row = (r["user"], r["window_start"], r["anomalous"])
                    valid = (type(row[0]) is str and type(row[1]) is int
                             and type(row[2]) is bool)
                except (ValueError, RecursionError, TypeError, KeyError):
                    valid = False
                if not valid:
                    raise MalformedLine(f"{path}: line {lineno}: not a scored "
                                        "window (user, window_start, anomalous)")
                rows.append(row)
        except UnicodeDecodeError:
            raise utf8_fault(path) from None
    return rows


def cmd_metrics(args) -> int:
    from . import features as feats
    from .simulate import read_truth_file

    truth = read_truth_file(args.truth)
    labeled_ids = truth.labeled_ids()
    labeled_events = [
        e for e in _EventFile(args.events) if e.id in labeled_ids
    ]
    scored = _read_scored(args.scored)
    vectors = [feats.FeatureVector(user, start, None) for user, start, _ in scored]
    labels = feats.label_windows(vectors, labeled_events, window=args.window_secs)
    predictions = [anomalous for _, _, anomalous in scored]
    metrics = feats.evaluate(predictions, labels)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(metrics, sort_keys=True))
    return 0


def cmd_reveal(args) -> int:
    from .secretshare import read_share_file
    from .vault import PseudonymVault

    vault = PseudonymVault.load(args.vault, read_only=True)
    shares = [read_share_file(p) for p in args.share]
    plaintext = vault.reveal(args.token, shares)
    print(plaintext)
    return 0


def cmd_export(args) -> int:
    rules = load_rules(args.rules or _default_resource("default_rules.json"))
    events = list(_input_events(args)[0])
    graph = apply_rules(build_graph(events), rules, events)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(export_graph(graph, args.format))
    return 0


def _at_least(convert, low: int, what: str):
    """An argparse type: ``convert(text)``, finite and at least ``low``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_window_secs = _at_least(int, 1, "an integer > 0")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chaintrace")
    # each command's ``outputs`` names the arguments whose files it writes;
    # the manifest hashes those
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--store")
        src.add_argument("--events")

    sp = sub.add_parser("simulate", help="generate an event stream + ground truth")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--config", help="JSON SimConfig overrides")
    sp.add_argument("--attack", type=lambda v: v.lower() in ("1", "true", "yes"),
                    default=None)
    sp.add_argument("--expand-factor", default=1.0,
                    type=_at_least(float, 1, "a finite number >= 1"))
    sp.add_argument("--out", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--raw", help="also write raw source lines here")
    sp.set_defaults(func=cmd_simulate, outputs=("out", "truth", "raw"))

    sp = sub.add_parser("ingest", help="append an event file to a store")
    sp.add_argument("--store", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--format", choices=("canonical", "raw"), default="canonical")
    sp.set_defaults(func=cmd_ingest, outputs=())

    sp = sub.add_parser("pseudonymize", help="tokenize identity fields")
    sp.add_argument("--events", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--vault", required=True)
    sp.add_argument("--shares-dir", default="shares")
    sp.add_argument("-k", "--threshold", type=int, default=3)
    sp.add_argument("-n", "--shares", type=int, default=5)
    sp.set_defaults(func=cmd_pseudonymize, outputs=("out",))

    sp = sub.add_parser("detect", help="kill-chain detection over a store")
    add_input(sp)
    sp.add_argument("--rules")
    sp.add_argument("--killchain")
    sp.add_argument("--out", required=True)
    sp.add_argument("--export")
    sp.add_argument("--format", choices=("dot", "graphml"), default="dot")
    sp.set_defaults(func=cmd_detect, outputs=("out", "export"))

    sp = sub.add_parser("train", help="train the one-class SVM on clean windows")
    add_input(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--nu", type=float, default=0.05)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--window-secs", type=_window_secs, default=3600)
    # sorted(features.SOURCE_SETS), stated here so parsing loads no numpy
    sp.add_argument("--source-set", default="combined",
                    choices=("combined", "fileaudit", "firewall", "windows"))
    sp.set_defaults(func=cmd_train, outputs=("out",))

    sp = sub.add_parser("score", help="score user windows against a model")
    add_input(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--window-secs", type=_window_secs, default=3600)
    sp.set_defaults(func=cmd_score, outputs=("out",))

    sp = sub.add_parser("metrics", help="compare scored windows to ground truth")
    sp.add_argument("--scored", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--window-secs", type=_window_secs, default=3600)
    sp.set_defaults(func=cmd_metrics, outputs=("out",))

    sp = sub.add_parser("reveal", help="re-identify a pseudonym token")
    sp.add_argument("--vault", required=True)
    sp.add_argument("--token", required=True)
    sp.add_argument("--share", action="append", required=True,
                    help="share file; repeat for each share")
    sp.set_defaults(func=cmd_reveal, outputs=())

    sp = sub.add_parser("export", help="export the event graph")
    add_input(sp)
    sp.add_argument("--rules")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("dot", "graphml"), default="dot")
    sp.set_defaults(func=cmd_export, outputs=("out",))

    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        status = args.func(args)
    except ChaintraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR + 1
    outputs = [getattr(args, name) for name in args.outputs]
    _write_manifest(args.command, argv, args, [o for o in outputs if o], t0, status)
    return status


if __name__ == "__main__":
    sys.exit(main())
