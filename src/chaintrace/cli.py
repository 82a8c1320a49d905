"""Command-line front end: simulate, ingest, pseudonymize, detect, train,
score, metrics, reveal. ``detect --export`` writes the property graph.

Exit codes: 0 success / no alert, 3 partial kill chain, 4 full kill
chain, 64 on any error, I/O included, with one ``error:`` line on stderr.
A command writes its files through ``events.committing``, so a failing
one leaves none of them. Every run writes a JSON manifest next to its
primary output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from importlib import resources
from itertools import islice
from typing import Iterator

from .errors import BadConfig, ChaintraceError, MalformedLine
from .events import (RawLine, TextLines, committing, decode_event, encode_event,
                     from_json, load_json, parse_raw_line, render_raw_line)
from .graph import PropertyGraph, apply_rules, build_graph, export_graph, load_rules
from .killchain import (
    exit_code_for,
    identify_adversary,
    load_killchain,
    match_killchain,
    reconstruct_attack,
)
from .store import EventStore, _even_parts, _in_parts, _rows

# features, ocsvm and simulate load numpy, vault loads cryptography: each
# is imported by the commands that use it, so the others start without them.

EXIT_ERROR = 64
# Lines per batch of a pseudonymize part: about 90 KB of text. Batches of
# WRITE_BATCH_LINES (about 700 KB each) left the parent 1.5 MiB larger.
_PSEUDONYMIZE_BATCH = 512


def _default_resource(name: str) -> str:
    return str(resources.files("chaintrace.data") / name)


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    # small reads: two are alive at once, at the end of a command's run
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
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
    with committing(path) as (tmp,), open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _input_events(args: argparse.Namespace) -> EventStore | TextLines:
    """The store named by ``--store`` or the events of the ``--events``
    file; each counts the lines a read of it scanned and skipped in
    ``rows_scanned`` and ``rows_skipped``.

    A ``--store`` that is not an existing store is an error, not an empty
    stream.
    """
    if args.store:
        return EventStore(args.store, create=False)
    return TextLines(args.events, decode_event)


# --- subcommands ---

def cmd_simulate(args) -> int:
    """Write ``--out`` from the canonical rows of the stream, noise-expanded
    or not, ``--raw`` from a second walk over its events, and the ground
    truth of its ids."""
    from .simulate import GroundTruth, SimConfig, expand_with_noise, simulate, write_truth_file

    def settle(cfg: SimConfig) -> None:
        """Check the config as given, then with the command line's overrides."""
        cfg.validate()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.attack is not None:
            cfg.attack = args.attack
        cfg.validate()

    if args.config:
        cfg = load_json(args.config, "config", SimConfig, BadConfig, check=settle)
    else:
        cfg = SimConfig()
        settle(cfg)
    events, truth = simulate(cfg)
    if args.expand_factor > 1:
        id_map: dict[int, int] = {}  # complete once expand_with_noise returns
        events = expand_with_noise(events, args.expand_factor, cfg.seed, id_map)
        truth = GroundTruth(
            labels=[(id_map[i], lab) for i, lab in truth.labels],
            victim_hosts=truth.victim_hosts,
            attacker_ip=truth.attacker_ip,
        )
    with committing(args.out, args.raw, args.truth) as (out_tmp, raw_tmp, truth_tmp):
        with open(out_tmp, "w", encoding="utf-8") as out:
            # a noise line is written as the expansion made it
            out.writelines(f"{p if type(p) is str else encode_event(p)}\n"
                           for *_, p in _rows(events))
        if raw_tmp:
            with open(raw_tmp, "w", encoding="utf-8") as raw:
                for e in events:
                    line = render_raw_line(e)
                    raw.write(f"{line.source_kind}\t{line.text}\n")
        write_truth_file(truth_tmp, truth)
    return 0


def cmd_ingest(args) -> int:
    """Append the ``--events`` file to the store; a cuttable file (see
    ``TextLines``) is written in parts, as a list of events is."""
    store = EventStore(args.store)
    if args.format == "canonical":
        lines = TextLines(args.events, decode_event)
    else:
        first_id = store.last_id + 1

        def parse(line, n):  # every raw line is one event or a fault
            kind, tab, text = line.rstrip("\n").partition("\t")
            if not tab:
                raise MalformedLine("no tab after the source kind")
            return parse_raw_line(RawLine(kind, text), first_id + n)
        lines = TextLines(args.events, parse, numbered=True)
    n = store.append(lines if lines.cuttable else iter(lines))
    store.close()
    print(f"ingested {n} events into {args.store}")
    return 0


def cmd_pseudonymize(args) -> int:
    """Write ``--out``, the vault and a new vault's key shares together:
    a failing input leaves none of them behind.

    A cuttable ``--events`` file is read in parts (``store._in_parts``),
    each written in batches of ``_PSEUDONYMIZE_BATCH`` lines. Tokens are
    HMACs, so ``--out`` is that of one pass. Every part holds the pairs
    new to the vault back (``PseudonymVault.held``); they are escrowed
    here once every line is read, in the order one pass meets them.
    """
    from .secretshare import write_share_file
    from .vault import PseudonymVault, create_vault

    shares = []
    if os.path.exists(args.vault):
        vault = PseudonymVault.load(args.vault)
    else:
        vault, shares = create_vault(args.threshold, args.shares)
    share_paths = [os.path.join(args.shares_dir, f"share-{share.x:03d}.txt")
                   for share in shares]

    def pseudonymize(part: TextLines) -> Iterator[tuple[str, list]]:
        """The part's batches, each with the pairs first held in it."""
        events, held = iter(part), len(vault.held)
        while lines := [encode_event(e) for e in islice(events, _PSEUDONYMIZE_BATCH)]:
            yield "\n".join(lines) + "\n", vault.held[held:]
            held = len(vault.held)

    with committing(args.out, args.vault, *share_paths) as (out, vault_tmp, *share_tmps):
        # a line whose identity cannot be hashed fails as a line of the file
        lines = TextLines(args.events,
                          lambda line: vault.pseudonymize_event(decode_event(line)))
        parts = _even_parts(lines) if lines.cuttable else [lines]
        vault.held, new = [], []
        with (open(out, "w", encoding="utf-8") as fh,
              contextlib.closing(_in_parts(parts, pseudonymize)) as batches):
            for text, held in batches:
                fh.write(text)
                new += held
        vault.escrow(new)
        vault.save(vault_tmp)
        if shares:
            os.makedirs(args.shares_dir, exist_ok=True)
        for share, path in zip(shares, share_tmps):
            write_share_file(path, share)
    return 0


def cmd_detect(args) -> int:
    rules = load_rules(args.rules or _default_resource("default_rules.json"))
    model = load_killchain(
        args.killchain or _default_resource("default_killchain.json"), rules
    )
    with committing(args.out, args.export) as (out, export):
        # a store is read in parts, its lines prefiltered (apply_rules); an
        # --events file in one part
        source = _input_events(args)
        graph = apply_rules(PropertyGraph(), rules, source)
        args.counters = {
            "rows_scanned": source.rows_scanned,
            "rows_skipped": source.rows_skipped,
            "events_decoded": source.rows_scanned - source.rows_skipped,
            "rule_skips": graph.rule_skips,
        }

        matches = match_killchain(graph.sequences(), model)
        with open(out, "w", encoding="utf-8") as fh:
            for m in matches:
                identify_adversary(m, graph.nodes, model)
                row = m.to_report()
                row["reconstruction"] = reconstruct_attack(m, graph.nodes, model)
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
        if export:
            build_graph(graph, rules, matches, {e.id: e.name for e in model.elements})
            with open(export, "w", encoding="utf-8") as fh:
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
    source = _input_events(args)
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
    with committing(args.out) as (out,), open(out, "w", encoding="utf-8") as fh:
        for fv, f in zip(vectors, decisions):
            fh.write(json.dumps({
                "user": fv.user,
                "window_start": fv.window_start,
                "decision": float(f),
                "anomalous": bool(f < 0),
            }, sort_keys=True))
            fh.write("\n")
    return 0


def cmd_metrics(args) -> int:
    from . import features as feats
    from .simulate import read_truth_file

    truth = read_truth_file(args.truth)
    labeled_ids = truth.labeled_ids()
    labeled_events = [
        e for e in TextLines(args.events, decode_event) if e.id in labeled_ids
    ]

    def scored_window(line: str) -> feats.ScoredWindow:
        try:
            return from_json(feats.ScoredWindow, json.loads(line))
        except (ValueError, RecursionError) as exc:
            raise MalformedLine(f"not a scored window: {exc}") from None

    scored = list(TextLines(args.scored, scored_window))
    vectors = [feats.FeatureVector(s.user, s.window_start, None) for s in scored]
    labels = feats.label_windows(vectors, labeled_events, window=args.window_secs)
    predictions = [s.anomalous for s in scored]
    metrics = feats.evaluate(predictions, labels)
    with committing(args.out) as (out,), open(out, "w", encoding="utf-8") as fh:
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


def _boolean(text: str) -> bool:
    """An argparse type: true/false, yes/no or 1/0, in any case."""
    value = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}.get(text.lower())
    if value is None:
        raise argparse.ArgumentTypeError(f"must be true/false, yes/no or 1/0, got {text!r}")
    return value


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
    sp.add_argument("--attack", type=_boolean, default=None)
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

    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        status = args.func(args)
        outputs = [getattr(args, name) for name in args.outputs]
        _write_manifest(args.command, argv, args, [o for o in outputs if o], t0, status)
    except (ChaintraceError, OSError) as exc:  # every fault: one line, exit 64
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
