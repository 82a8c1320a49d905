"""The layered sequence rules that aggregate events into event-sequence
nodes of a directed property graph, and the graph's export.

Detection reads only the sequence nodes; ``build_graph`` draws around
them what detection found, for ``detect --export``. This module alone
spells the graph's node ids (``host:``, ``user:``, ``event:``, ``seq:``,
``kc:``).

Rule semantics: within one (rule, group key), members accumulate greedily
from the earliest unconsumed item; the window is anchored at the first
member, absorbs further members (loop) until the window or the loop cap
is exhausted, and emits a sequence node when at least ``min_count``
members were gathered. Membership never overlaps within one rule.

Numbering: one apply_rules call makes its sequence nodes layer by layer
and numbers them ``seq:<rule id>:<n>`` with one counter over all rules,
in (layer, rule id, t_start, first member) order. The first member is
compared as a string: an event id on layer 1 (``"10"`` before ``"9"``),
a lower node id above it (``seq:a:10`` before ``seq:a:9``). A higher
layer reads the lower nodes in (t_start, n) order, so nodes tied on
t_start meet its windows in the order they were numbered.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .errors import RuleCycle, SchemaError, UnknownInputKind, UnsortedInput
from .events import EVENT_TYPES, NS, LogEvent, _quote, load_json
from .store import EventStore

GROUP_FIELDS = ("source_host", "actor", "dst_ip")


@dataclass
class Node:
    id: str
    kind: str
    label: str
    attributes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: str


class PropertyGraph:
    """Nodes by id and a set of distinct directed edges."""

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self._edge_set: set[Edge] = set()
        self.rule_skips = 0

    def add_node(self, node: Node) -> Node:
        """Add ``node``, or return the node already holding its id."""
        return self.nodes.setdefault(node.id, node)

    def add_edge(self, src: str, dst: str, kind: str) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"edge {src} -> {dst} references missing node")
        self._edge_set.add(Edge(src, dst, kind))

    def edges(self) -> Iterable[Edge]:
        """Every edge once, in no particular order."""
        return iter(self._edge_set)

    def edge_count(self) -> int:
        return len(self._edge_set)

    def sequences(self) -> list[Node]:
        return sorted(
            (n for n in self.nodes.values() if n.kind == "sequence"),
            key=lambda n: (n.attributes["t_start"], n.id),
        )


def _unsorted(ts: int, eid: int) -> UnsortedInput:
    return UnsortedInput(f"event id={eid} ts={ts} out of order")


def _in_order(events: Iterable[LogEvent],
              last: tuple[int, int] = (-1, -1)) -> Iterator[LogEvent]:
    """Yield ``events``, raising UnsortedInput at the first step back in
    (ts, id), the first event's step from ``last`` included."""
    for e in events:
        if (e.ts, e.id) <= last:
            raise _unsorted(e.ts, e.id)
        last = (e.ts, e.id)
        yield e


@dataclass
class SequenceRule:
    """Windowed aggregation rule for one layer of abstraction."""

    id: str
    layer: int
    input_kind: str  # event type (layer 1) or lower-layer sequence type
    window: float  # seconds
    min_count: int
    emit: str
    where: dict[str, str] = field(default_factory=dict)
    group_by: list[str] = field(default_factory=list)
    max_count: int | None = None

    def validate(self) -> None:
        if self.layer < 1:
            raise UnknownInputKind(f"rule {self.id}: layer must be >= 1")
        if not (self.window > 0 and math.isfinite(self.window * NS)):
            raise UnknownInputKind(
                f"rule {self.id}: window must be finite and > 0, got {self.window}")
        if self.min_count < 1:
            raise UnknownInputKind(f"rule {self.id}: min_count must be >= 1")
        if self.max_count is not None and self.max_count < self.min_count:
            raise UnknownInputKind(f"rule {self.id}: max_count < min_count")
        bad = set(self.group_by) - set(GROUP_FIELDS)
        if bad:
            raise UnknownInputKind(f"rule {self.id}: bad group_by fields {sorted(bad)}")
        if self.layer == 1 and self.input_kind not in EVENT_TYPES:
            raise UnknownInputKind(
                f"rule {self.id}: layer-1 rules consume event types, "
                f"got {self.input_kind!r}"
            )


def load_rules(path: str) -> list[SequenceRule]:
    """The rules of the JSON list in the file ``path``, validated."""
    return load_json(path, "rules", list[SequenceRule], check=validate_rules)


def validate_rules(rules: list[SequenceRule]) -> list[SequenceRule]:
    """Check layer ordering: every rule consumes events or lower layers."""
    seen = set()
    for r in rules:
        if r.id in seen:
            raise RuleCycle(f"duplicate rule id {r.id}")
        seen.add(r.id)
    emit_layer: dict[str, int] = {}
    for r in sorted(rules, key=lambda r: r.layer):
        r.validate()
        if r.layer > 1:
            src_layer = emit_layer.get(r.input_kind)
            if src_layer is None:
                raise UnknownInputKind(
                    f"rule {r.id}: no lower-layer rule emits {r.input_kind!r}"
                )
            if src_layer >= r.layer:
                raise RuleCycle(
                    f"rule {r.id} (layer {r.layer}) consumes {r.input_kind!r} "
                    f"emitted at layer {src_layer}"
                )
        prev = emit_layer.get(r.emit)
        if prev is not None and prev != r.layer:
            raise RuleCycle(f"sequence type {r.emit!r} emitted at two layers")
        emit_layer[r.emit] = r.layer
    return rules


@dataclass(slots=True)
class SeqItem:
    """One matchable item: a raw event or a lower sequence node."""

    ts: int  # anchor timestamp (t_start for sequences)
    t_end: int
    ref: int | str  # LogEvent id or sequence node id


class _Windower:
    """The greedy windows of one rule over items pushed in ts order, one
    deque per group key. A head window is closed once a pushed item falls
    outside it; ``flush`` closes the rest. A closed window keeps its group
    key, t_start, t_end and its members' refs, not their items: the refs
    list becomes the sequence node's ``members``."""

    __slots__ = ("rule", "where", "window_ns", "buffers", "windows", "skips")

    def __init__(self, rule: SequenceRule):
        self.rule = rule
        self.where = tuple(rule.where.items())
        self.window_ns = int(rule.window * NS)
        self.buffers: dict[tuple[str, ...], deque[SeqItem]] = {}
        self.windows: list[tuple[tuple[str, ...], int, int, list[int | str]]] = []
        self.skips = 0  # items that passed ``where`` but lack a group_by field

    def accept(self, attrs: dict, fields: dict) -> tuple[str, ...] | None:
        """The group key of an item whose ``attrs`` pass ``where``, read
        from its ``fields``; None, and a skip counted if a group_by field
        is missing, for an item the rule does not take."""
        for k, v in self.where:
            if attrs.get(k) != v:
                return None
        key = tuple(fields.get(f, "") for f in self.rule.group_by)
        if not all(key):
            self.skips += 1
            return None
        return key

    def push(self, key: tuple[str, ...], item: SeqItem) -> None:
        """Add an accepted ``item`` to its group's windows."""
        buf = self.buffers.get(key)
        if buf is None:
            buf = self.buffers[key] = deque()
        buf.append(item)
        while buf and item.ts - buf[0].ts > self.window_ns:
            self._close(key, buf)

    def _close(self, key: tuple[str, ...], buf: deque[SeqItem]) -> None:
        """Pop the window anchored at the head of ``buf``: its members if at
        least ``min_count`` fall within the window (at most ``max_count``),
        else the head alone."""
        window_ns, max_count = self.window_ns, self.rule.max_count
        head_ts = buf[0].ts
        count = 0
        for item in buf:
            if item.ts - head_ts > window_ns:
                break
            count += 1
            if max_count is not None and count >= max_count:
                break
        if count < self.rule.min_count:
            buf.popleft()
        else:
            members = [buf.popleft() for _ in range(count)]
            self.windows.append((key, head_ts, max(m.t_end for m in members),
                                 [m.ref for m in members]))

    def flush(self) -> list[tuple[tuple[str, ...], int, int, list[int | str]]]:
        """Every window of the rule, as (group key, t_start, t_end, member
        refs)."""
        for key, buf in self.buffers.items():
            while buf:
                self._close(key, buf)
        return self.windows


def line_prefilter(rules: list[SequenceRule]) -> Callable[[str], bool]:
    """A test on raw canonical store lines: False only for a line no
    layer-1 rule can accept, so the caller may skip decoding it.

    A canonical line (``encode_event``) starts ``{"id":``, ends ``}}``,
    writes the host before the type and each attribute exactly as
    ``json.dumps(k) + ":" + json.dumps(v)``. Every quote inside a JSON
    string is escaped, so the host cannot hold ``"type":"`` and the first
    one opens the type; and a ``where`` pair the event holds is always a
    substring of its line. A hit elsewhere (a key ending in an escaped
    ``"k``) only costs a decode: the exact ``where`` check runs after it.
    A line that is not canonically framed is kept, so decoding it reports
    the damage.
    """
    by_type: dict[str, list[tuple[str, ...]]] = {}
    for r in rules:
        if r.layer != 1:
            continue
        # A None value accepts every event without its key, so it asks for
        # no substring; a non-string value is never in a line and never
        # equals a (string) attribute either.
        pairs = tuple(json.dumps(k) + ":" + json.dumps(v)
                      for k, v in r.where.items() if v is not None)
        by_type.setdefault(r.input_kind, []).append(pairs)

    def keep(line: str) -> bool:
        if not (line.startswith('{"id":') and line.endswith("}}\n")):
            return True
        start = line.find('"type":"') + 8
        if start < 8:
            return True
        end = line.find('"', start)
        alternatives = by_type.get(line[start:end])
        if alternatives is None:
            return end < 0  # an unterminated type is garbled: decode it
        for pairs in alternatives:
            for p in pairs:
                if p not in line:
                    break
            else:
                return True
        return False

    return keep


@dataclass(slots=True)
class _Columns:
    """One layer-1 rule's accepted events in one part of a stream: the
    group keys in first-seen order, each key's index, and per event in
    stream order its key's index, ts and id, each column an array of
    64-bit integers, which holds any id and ts (see ``MAX_ID_TS``)."""

    keys: dict[tuple[str, ...], int]
    key_at: Sequence[int]
    ts: Sequence[int]
    ids: Sequence[int]
    skips: int = 0  # events that passed ``where`` but lack a group_by field

    def add(self, key: tuple[str, ...], ts: int, eid: int) -> None:
        k = self.keys.get(key)
        if k is None:
            k = self.keys[key] = len(self.keys)
        self.ts.append(ts)
        self.ids.append(eid)
        self.key_at.append(k)


@dataclass(slots=True)
class _Part:
    """What the layer-1 rules take from one contiguous part of a stream:
    the (ts, id) of its first and last event (None: it has none) and
    each rule's columns, in rule order."""

    first: tuple[int, int] | None
    last: tuple[int, int] | None
    columns: list[_Columns]


class _FirstLayer:
    """The layer-1 rules over a stream read in contiguous parts: ``read``
    takes a part's events to a ``_Part``, wherever the part is read, and
    ``push`` adds the parts, in stream order, to the rules' windows.

    A part read in this process starts its order check from the last
    event pushed before it, as one pass does; a forked worker starts
    before any part is pushed, from (-1, -1), and ``push`` checks its
    first event.
    """

    def __init__(self, rules: list[SequenceRule]):
        self.rules = [r for r in rules if r.layer == 1]
        self.windowers = [_Windower(r) for r in self.rules]
        self.last = (-1, -1)  # (ts, id) of the last event pushed

    def read(self, events: Iterable[LogEvent]) -> _Part:
        from array import array  # loaded by detect alone

        columns = [_Columns({}, array("q"), array("q"), array("q")) for _ in self.rules]
        # windowers of this part's own, whose accept tests count its skips
        tests = [_Windower(r) for r in self.rules]
        by_type: dict[str, list[tuple[_Windower, _Columns]]] = {}
        for w, col in zip(tests, columns):
            by_type.setdefault(w.rule.input_kind, []).append((w, col))
        first = e = None
        try:
            for e in _in_order(events, self.last):
                if first is None:
                    first = (e.ts, e.id)
                offered = by_type.get(e.event_type)
                if offered:
                    fields = {"source_host": e.source_host, "actor": e.actor,
                              "dst_ip": e.attributes.get("dst_ip", "")}
                    for w, col in offered:
                        key = w.accept(e.attributes, fields)
                        if key is not None:
                            col.add(key, e.ts, e.id)
        except OverflowError:  # a column refused an id or ts past 64 bits
            raise SchemaError("event: id and ts must be integers from 1 to 2**63 - 1") from None
        for w, col in zip(tests, columns):
            col.skips = w.skips
        return _Part(first, None if e is None else (e.ts, e.id), columns)

    def push(self, part: _Part) -> None:
        if part.first is None:
            return
        if part.first <= self.last:
            raise _unsorted(*part.first)
        self.last = part.last
        for w, col in zip(self.windowers, part.columns):
            w.skips += col.skips
            keys = list(col.keys)
            for k, ts, eid in zip(col.key_at, col.ts, col.ids):
                w.push(keys[k], SeqItem(ts, ts, eid))


def apply_rules(
    graph: PropertyGraph,
    rules: list[SequenceRule],
    events: Iterable[LogEvent] | EventStore,
) -> PropertyGraph:
    """Apply sequence rules to a time-sorted stream, adding their sequence
    nodes to ``graph`` layer by layer, numbered as the module docstring
    says, and counting ``rule_skips``; it adds no edge, and a second call
    on the same stream adds no node. Each node is made from a closed
    window's record (group key, t_start, t_end, member refs), and takes
    the record's refs list as its ``members``.

    An ``EventStore`` is read in the contiguous parts of its
    ``map_parts``, its lines prefiltered by ``line_prefilter``; the nodes,
    ``rule_skips``, the store's counts and any error are those of one
    pass, whatever the number of parts.
    """
    validate_rules(rules)
    layer1 = _FirstLayer(rules)
    if isinstance(events, EventStore):
        parts = events.map_parts(layer1.read, line_prefilter(rules))
    else:
        parts = [layer1.read(events)]
    try:
        for part in parts:
            layer1.push(part)
            del part  # dropped before the next part is collected
    finally:
        if isinstance(events, EventStore):
            parts.close()  # reaps the workers of parts not pushed

    made: dict[str, list[Node]] = {}  # emitted type -> its nodes, numbered order
    windowers = layer1.windowers
    n = 0
    for layer in sorted({r.layer for r in rules}):
        if layer > 1:
            windowers = [_Windower(r) for r in rules if r.layer == layer]
            for w in windowers:
                lower = made.get(w.rule.input_kind, [])
                for node in sorted(lower, key=lambda node: node.attributes["t_start"]):
                    a = node.attributes
                    key = w.accept(a["group"], a["group"])
                    if key is not None:
                        w.push(key, SeqItem(a["t_start"], a["t_end"], node.id))
        found = sorted(
            ((w.rule, *window) for w in windowers for window in w.flush()),
            key=lambda f: (f[0].id, f[2], str(f[4][0])),
        )
        for rule, key, t_start, t_end, refs in found:
            n += 1
            node = graph.add_node(Node(f"seq:{rule.id}:{n}", "sequence", rule.emit, {
                "rule": rule.id,
                "layer": rule.layer,
                "type": rule.emit,
                "group": dict(zip(rule.group_by, key)),
                "members": refs,
                "t_start": t_start,
                "t_end": t_end,
            }))
            made.setdefault(rule.emit, []).append(node)
        graph.rule_skips += sum(w.skips for w in windowers)
    return graph


# --- export ---

# per group_by field, the kind of node its value names and the edge kind
# from the sequence to that node
_GROUP_NODES = {"source_host": ("host", "caused_by"), "actor": ("user", "caused_by"),
                "dst_ip": ("host", "connects_to")}


def build_graph(graph: PropertyGraph, rules: list[SequenceRule], matches: Iterable,
                names: dict[str, str]) -> PropertyGraph:
    """Add to ``graph``, for export, what detection found around its
    sequence nodes, and return it: an ``event:<id>`` node per layer-1
    member, labelled with its rule's ``input_kind``, and a member_of edge
    from each member to its sequence; a ``host:`` or ``user:`` node per
    value of a sequence's group key, with an edge from the sequence
    (``_GROUP_NODES``); a ``kc:<element id>`` node labelled ``names[element
    id]`` with a matches edge from each sequence bound to the element; and
    each adversary host marked as one. ``matches`` are
    ``killchain.ChainMatch`` objects."""
    input_kinds = {r.id: r.input_kind for r in rules}
    for seq in graph.sequences():
        a = seq.attributes
        for ref in a["members"]:
            if isinstance(ref, int):
                ref = graph.add_node(Node(f"event:{ref}", "event", input_kinds[a["rule"]])).id
            graph.add_edge(ref, seq.id, "member_of")
        for name, value in a["group"].items():
            kind, edge = _GROUP_NODES[name]
            node = graph.add_node(Node(f"{kind}:{value}", kind, value))
            graph.add_edge(seq.id, node.id, edge)
    for m in matches:
        for eid, binding in m.matched.items():
            kc = graph.add_node(Node(f"kc:{eid}", "kc_element", names[eid]))
            graph.add_edge(binding.sequence_id, kc.id, "matches")
        if m.adversary:
            host = graph.add_node(Node(f"host:{m.adversary}", "host", m.adversary))
            host.kind = "adversary"
    return graph


_DOT_SHAPES = {
    "host": "box",
    "user": "ellipse",
    "event": "point",
    "sequence": "hexagon",
    "kc_element": "doubleoctagon",
    "adversary": "octagon",
}


def export_graph(graph: PropertyGraph, fmt: str) -> str:
    """Deterministic DOT or GraphML rendering, nodes sorted by id and edges
    by (source, target, kind). Each node id, label and edge kind is written
    as the canonical codec writes a string, without its quotes, so the text
    is ASCII."""
    def text(s: str) -> str:
        return _quote(s)[1:-1]

    nodes = [(text(nid), text(n.label), n.kind) for nid, n in sorted(graph.nodes.items())]
    edges = [(text(e.src), text(e.dst), text(e.kind))
             for e in sorted(graph.edges(), key=lambda e: (e.src, e.dst, e.kind))]
    if fmt == "dot":
        return "".join([
            "digraph chaintrace {\n",
            *(f'  "{nid}" [label="{label}" shape={_DOT_SHAPES.get(kind, "box")} '
              f'class="{kind}"];\n' for nid, label, kind in nodes),
            *(f'  "{src}" -> "{dst}" [label="{kind}"];\n' for src, dst, kind in edges),
            "}\n"])
    if fmt == "graphml":
        import xml.etree.ElementTree as ET  # loaded only for this export

        root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
        for key_id, attr in (("d0", "kind"), ("d1", "label")):
            ET.SubElement(root, "key", id=key_id, attrib={
                "for": "node", "attr.name": attr, "attr.type": "string",
            })
        ET.SubElement(root, "key", id="d2", attrib={
            "for": "edge", "attr.name": "kind", "attr.type": "string",
        })
        gel = ET.SubElement(root, "graph", id="G", edgedefault="directed")
        for nid, label, kind in nodes:
            nel = ET.SubElement(gel, "node", id=nid)
            ET.SubElement(nel, "data", key="d0").text = kind
            ET.SubElement(nel, "data", key="d1").text = label
        for src, dst, kind in edges:
            eel = ET.SubElement(gel, "edge", source=src, target=dst)
            ET.SubElement(eel, "data", key="d2").text = kind
        ET.indent(root)
        return ET.tostring(root, encoding="unicode") + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
