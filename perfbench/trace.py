"""Traced run: time calls into each chaintrace module from outside it.

Usage:
  python perfbench/trace.py setup WORKLOAD SEED SCALE DIR RESULT.json
  python perfbench/trace.py commands WORKLOAD INPUTS PASSDIR RESULT.json

``setup`` builds the workload's inputs in-process with the simulator
traced. ``commands`` runs one pass of the workload's CLI commands through
``chaintrace.cli.main`` in this process. Both write per-layer figures to
RESULT.json.

Each public function is wrapped at the name its caller uses, and each
iterator such a function returns is wrapped too, so the time spent
producing a row is charged to the layer that produced it. A frame's self
time is its duration minus the frames opened inside it. Calls made once
per row (decode, encode, parse, pseudonymize, scan steps) are summed, not
kept as spans. A target that no longer exists is reported as missing.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import workloads

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds, rows yielded]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.missing: dict[str, str] = {}
        # open frames: [seconds spent in frames opened inside, nearest span id]
        self._stack: list[list] = [[0.0, 0]]
        self._ids = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a recorded span."""
        self._ids += 1
        sid = self._ids
        parent, frame = self._stack[-1], [0.0, sid]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            parent[0] += dur
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            self.spans.append((sid, name, start, end, parent[1]))

    def bookkeep(self, fn, *args) -> None:
        """Run the tracer's own counting ``fn`` outside every layer."""
        start = perf_counter()
        fn(*args)
        dur = perf_counter() - start
        st = self.stats[BOOKKEEPING]
        st[0] += 1
        st[1] += dur
        st[2] += dur
        self._stack[-1][0] += dur

    # --- installing wrappers ---

    def patch(self, target: str, make, names: tuple[str, ...]) -> bool:
        """Replace ``module:attr`` or ``module:Class.attr`` by ``make(orig)``."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            orig = getattr(owner, attr)
        except (ImportError, AttributeError):
            for n in names:
                self.missing.setdefault(n, f"{module_name}.{path} not found")
            return False
        setattr(owner, attr, make(orig))
        return True


class TimedIter:
    """Charges each step of ``it`` to ``name``; counts the rows it yields.

    Steps run once per row, so they are summed rather than kept as spans.
    """

    __slots__ = ("tracer", "stats", "it", "on_row")

    def __init__(self, tracer: Tracer, name: str, it, on_row=None):
        self.tracer, self.stats = tracer, tracer.stats[name]
        self.it, self.on_row = iter(it), on_row

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.tracer._stack
        frame = [0.0, stack[-1][1]]
        stack.append(frame)
        start = perf_counter()
        try:
            row = next(self.it)
        finally:
            dur = perf_counter() - start
            stack.pop()
            stack[-1][0] += dur
            st = self.stats
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
        self.stats[3] += 1
        if self.on_row is not None:
            self.tracer.bookkeep(self.on_row, row)
        return row


def _per_row(t: Tracer, name: str, leaf_call=None):
    """Sum the calls of a function that calls no other wrapped function."""
    st, stack = t.stats[name], t._stack

    def make(fn):
        call = fn if leaf_call is None else leaf_call(fn)

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                st[0] += 1
                st[1] += dur
                st[2] += dur
                stack[-1][0] += dur
        return wrapper
    return make


def _span(t: Tracer, name: str, after=None):
    """Record a span per call; ``after(args, result)`` runs as bookkeeping."""
    def make(fn):
        def wrapper(*args, **kwargs):
            result = t.call(name, fn, *args, **kwargs)
            if after is not None:
                t.bookkeep(after, args, result)
            return result
        return wrapper
    return make


class RuleFilter:
    """Counts scanned rows that some layer-1 rule's type and ``where`` accept."""

    def __init__(self, t: Tracer) -> None:
        self.t = t
        self.by_type: dict[str, list[dict]] | None = None

    def capture(self, fn):
        def wrapper(*args, **kwargs):
            rules = fn(*args, **kwargs)
            self.by_type = {}
            for r in rules:
                if r.layer == 1:
                    self.by_type.setdefault(r.input_kind, []).append(r.where)
            return rules
        return wrapper

    def on_row(self, e) -> None:
        if self.by_type is None:
            return
        self.t.counts["graph.rules.input_rows"] += 1
        for where in self.by_type.get(e.event_type, ()):
            if all(e.attributes.get(k) == v for k, v in where.items()):
                self.t.counts["graph.rules.accepted_rows"] += 1
                return


# --- layer targets ---

def install_command_targets(t: Tracer) -> None:
    rf = RuleFilter(t)
    c = t.counts

    def query(orig):
        def wrapper(self, *args, **kwargs):
            return TimedIter(t, "store.scan", orig(self, *args, **kwargs), rf.on_row)
        return wrapper

    def append(orig):
        def wrapper(self, events, *args, **kwargs):
            n = t.call("store.append", orig, self,
                       TimedIter(t, "cli.input", events), *args, **kwargs)
            c["store.append.rows"] += n
            return n
        return wrapper

    def new_tokens(orig):
        def call(vault, e):
            before = len(vault.entries)
            out = orig(vault, e)
            c["vault.tokens_new"] += len(vault.entries) - before
            return out
        return call

    def built(_args, g):
        c["graph.build.nodes"] += len(g.nodes)
        c["graph.build.edges"] += g.edge_count()

    def seq_count(g) -> int:
        return sum(1 for n in g.nodes.values() if n.kind == "sequence")

    def graph_counts(g, sign: int) -> None:
        c["graph.rules.sequences"] += sign * seq_count(g)
        c["graph.rule_skips"] += sign * getattr(g, "rule_skips", 0)

    def rules(orig):
        def wrapper(graph, *args, **kwargs):
            t.bookkeep(graph_counts, graph, -1)
            g = t.call("graph.rules", orig, graph, *args, **kwargs)
            t.bookkeep(graph_counts, g, 1)
            return g
        return wrapper

    def matched(_args, matches):
        c["killchain.candidates"] += len(matches)

    def extracted(_args, vectors):
        c["features.windows"] += len(vectors)

    def fitted(_args, model):
        c["ocsvm.support_vectors"] += model.support_vectors.shape[0]

    def trained(_args, result):
        c["ocsvm.train.iterations"] += int(result[2])

    p = t.patch
    p("chaintrace.store:EventStore.query", query,
      ("store.scan.s", "store.scan.rows", "graph.rules.input_share"))
    p("chaintrace.store:EventStore.append", append,
      ("store.append.s", "store.append.kev_s"))
    for mod in ("chaintrace.store", "chaintrace.cli"):
        p(f"{mod}:decode_event", _per_row(t, "events.decode"),
          ("events.decode.s", "events.decode.calls"))
        p(f"{mod}:encode_event", _per_row(t, "events.encode"), ("events.encode.s",))
    p("chaintrace.cli:parse_raw_line", _per_row(t, "events.parse_raw"),
      ("events.parse_raw.s",))
    p("chaintrace.vault:PseudonymVault.pseudonymize_event",
      _per_row(t, "vault.pseudonymize", new_tokens),
      ("vault.pseudonymize.s", "vault.tokens_new"))
    p("chaintrace.vault:PseudonymVault.save", _span(t, "vault.save"),
      ("vault.save.s",))
    p("chaintrace.cli:load_rules", rf.capture, ("graph.rules.input_share",))
    p("chaintrace.cli:build_graph", _span(t, "graph.build", built),
      ("graph.build.s", "graph.build.nodes", "graph.build.edges"))
    p("chaintrace.cli:apply_rules", rules,
      ("graph.rules.s", "graph.rules.sequences", "graph.rule_skips"))
    p("chaintrace.cli:match_killchain", _span(t, "killchain.match", matched),
      ("killchain.match.s", "killchain.candidates"))
    for fn in ("identify_adversary", "reconstruct_attack"):
        p(f"chaintrace.cli:{fn}", _span(t, "killchain.report"),
          ("killchain.report.s",))
    p("chaintrace.features:extract_features",
      _span(t, "features.extract", extracted),
      ("features.extract.s", "features.windows"))
    p("chaintrace.ocsvm:fit", _span(t, "ocsvm.fit", fitted),
      ("ocsvm.fit.s", "ocsvm.support_vectors"))
    p("chaintrace.ocsvm:train_ocsvm", _span(t, "ocsvm.train", trained),
      ("ocsvm.train.s", "ocsvm.train.iterations"))
    if not p("chaintrace._kernels:rbf_matrix", _span(t, "ocsvm.gram"), ()):
        if not p("chaintrace.ocsvm:rbf_matrix", _span(t, "ocsvm.gram"), ()):
            t.missing["ocsvm.gram.s"] = "rbf_matrix not found"
    p("chaintrace.ocsvm:OneClassSvmModel.decision", _span(t, "ocsvm.decision"),
      ("ocsvm.decision.s",))


def install_setup_targets(t: Tracer) -> None:
    def expand(orig):
        def wrapper(*args, **kwargs):
            it = t.call("simulate.expand", orig, *args, **kwargs)
            return TimedIter(t, "simulate.expand", it)
        return wrapper

    t.patch("prepare:simulate", _span(t, "simulate"), ("simulate.s",))
    t.patch("prepare:expand_with_noise", expand, ("simulate.expand.kev_s",))


# --- figures ---

def _self(t: Tracer, name: str) -> float:
    return t.stats[name][2]


def _kev_s(rows: int, seconds: float) -> float:
    return rows / seconds / 1e3 if seconds > 0 else 0.0


def command_layers(t: Tracer, walls: list[float]) -> dict[str, float]:
    c = t.counts
    cmds = [n for n in t.stats if n.startswith("cli.") and n != "cli.input"]
    other = sum(_self(t, n) for n in cmds) + _self(t, "cli.input")
    rows = c["graph.rules.input_rows"]
    layers = {
        "store.scan.s": _self(t, "store.scan"),
        "store.scan.rows": t.stats["store.scan"][3],
        "store.append.s": _self(t, "store.append"),
        "store.append.kev_s": _kev_s(c["store.append.rows"], _self(t, "store.append")),
        "events.decode.s": _self(t, "events.decode"),
        "events.decode.calls": t.stats["events.decode"][0],
        "events.encode.s": _self(t, "events.encode"),
        "events.parse_raw.s": _self(t, "events.parse_raw"),
        "vault.pseudonymize.s": _self(t, "vault.pseudonymize"),
        "vault.tokens_new": c["vault.tokens_new"],
        "vault.save.s": _self(t, "vault.save"),
        "graph.build.s": _self(t, "graph.build"),
        "graph.build.nodes": c["graph.build.nodes"],
        "graph.build.edges": c["graph.build.edges"],
        "graph.rules.s": _self(t, "graph.rules"),
        "graph.rules.sequences": c["graph.rules.sequences"],
        "graph.rules.input_share": c["graph.rules.accepted_rows"] / rows if rows else 0.0,
        "graph.rule_skips": c["graph.rule_skips"],
        "killchain.match.s": _self(t, "killchain.match"),
        "killchain.candidates": c["killchain.candidates"],
        "killchain.report.s": _self(t, "killchain.report"),
        "features.extract.s": _self(t, "features.extract"),
        "features.windows": c["features.windows"],
        "ocsvm.fit.s": _self(t, "ocsvm.fit"),
        "ocsvm.train.s": _self(t, "ocsvm.train"),
        "ocsvm.gram.s": _self(t, "ocsvm.gram"),
        "ocsvm.train.iterations": c["ocsvm.train.iterations"],
        "ocsvm.support_vectors": c["ocsvm.support_vectors"],
        "ocsvm.decision.s": _self(t, "ocsvm.decision"),
        "cli.other.s": other,
        "trace.bookkeeping.s": _self(t, BOOKKEEPING),
        "trace.wall.s": sum(walls),
    }
    # Every traced second lies in exactly one frame's self time, so the
    # layers' self times, cli.other.s and trace.bookkeeping.s add up to
    # the commands' wall time; the remainder is the tracer's own calls.
    accounted = sum(st[2] for st in t.stats.values())
    layers["trace.unaccounted.s"] = sum(walls) - accounted
    return layers


def setup_layers(t: Tracer) -> dict[str, float]:
    expand = t.stats["simulate.expand"]
    return {
        "simulate.s": _self(t, "simulate"),
        "simulate.expand.kev_s": _kev_s(expand[3], expand[1]),
    }


def run_commands(t: Tracer, workload: str, inputs: str, out: str) -> dict:
    import chaintrace.cli as cli

    with open(f"{inputs}/info.json", "r", encoding="utf-8") as fh:
        info = json.load(fh)
    workloads.prepare_pass(workload, inputs, out)
    ran = []
    for inv in workloads.pass_commands(workload, inputs, out, info):
        start = perf_counter()
        try:
            code = t.call("cli." + inv.command, cli.main, list(inv.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        ran.append({"command": inv.command, "exit": code,
                    "wall": perf_counter() - start})
    return {"layers": command_layers(t, [r["wall"] for r in ran]),
            "invocations": ran}


def main(argv: list[str]) -> None:
    phase, workload = argv[0], argv[1]
    t = Tracer()
    if phase == "setup":
        seed, scale, out, result_path = argv[2:6]
        install_setup_targets(t)
        import prepare

        t.call("setup", prepare.build, workload, int(seed), float(scale), out)
        result = {"layers": setup_layers(t)}
    else:
        inputs, out, result_path = argv[2:5]
        install_command_targets(t)
        result = run_commands(t, workload, inputs, out)
    result["missing"] = t.missing
    result["spans"] = t.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
