"""Directed property graph over hosts, users and events, plus the layered
sequence-rule engine that aggregates events into event-sequence nodes.

Rule semantics: within one (rule, group key), members accumulate greedily
from the earliest unconsumed item; the window is anchored at the first
member, absorbs further members (loop) until the window or the loop cap
is exhausted, and emits a sequence node when at least ``min_count``
members were gathered. Membership never overlaps within one rule.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import RuleCycle, SchemaError, UnknownInputKind, UnsortedInput
from .events import EVENT_TYPES, LogEvent

NS = 1_000_000_000

NODE_KINDS = ("host", "user", "event", "sequence", "kc_element", "adversary")
EDGE_KINDS = ("caused_by", "next", "member_of", "matches", "connects_to")

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
    """Adjacency-indexed directed graph; both edge directions indexed."""

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.out_edges: dict[str, list[Edge]] = {}
        self.in_edges: dict[str, list[Edge]] = {}
        self._edge_set: set[Edge] = set()
        self.event_count = 0
        self.rule_skips = 0
        self.applied_rules: set[str] = set()

    def add_node(self, node: Node) -> Node:
        existing = self.nodes.get(node.id)
        if existing is not None:
            return existing
        self.nodes[node.id] = node
        self.out_edges[node.id] = []
        self.in_edges[node.id] = []
        return node

    def add_edge(self, src: str, dst: str, kind: str) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"edge {src} -> {dst} references missing node")
        edge = Edge(src, dst, kind)
        if edge in self._edge_set:
            return
        self._edge_set.add(edge)
        self.out_edges[src].append(edge)
        self.in_edges[dst].append(edge)

    def edges(self) -> Iterable[Edge]:
        for lst in self.out_edges.values():
            yield from lst

    def edge_count(self) -> int:
        return len(self._edge_set)

    def sequences(self) -> list[Node]:
        return sorted(
            (n for n in self.nodes.values() if n.kind == "sequence"),
            key=lambda n: (n.attributes["t_start"], n.id),
        )


def _host_id(name: str) -> str:
    return f"host:{name}"


def _user_id(name: str) -> str:
    return f"user:{name}"


def _event_id(eid: int) -> str:
    return f"event:{eid}"


def _in_order(events: Iterable[LogEvent]) -> Iterator[LogEvent]:
    """Yield ``events``, raising UnsortedInput at the first step back in (ts, id)."""
    last = (-1, -1)
    for e in events:
        if (e.ts, e.id) <= last:
            raise UnsortedInput(f"event id={e.id} ts={e.ts} out of order")
        last = (e.ts, e.id)
        yield e


def build_graph(events: Iterable[LogEvent]) -> PropertyGraph:
    """Construct the host/user/event layer from a time-sorted stream.

    Detection reads only sequence nodes, so this layer is built for export.
    """
    g = PropertyGraph()
    prev_event_per_host: dict[str, str] = {}

    for e in _in_order(events):
        g.event_count += 1

        host = g.add_node(Node(_host_id(e.source_host), "host", e.source_host))
        user = g.add_node(Node(_user_id(e.actor), "user", e.actor))
        dst_ip = e.attributes.get("dst_ip")
        if dst_ip:
            g.add_node(Node(_host_id(dst_ip), "host", dst_ip))
            if e.event_type in ("fw_conn", "http_request"):
                g.add_edge(host.id, _host_id(dst_ip), "connects_to")

        ev = g.add_node(Node(
            _event_id(e.id), "event", e.event_type,
            {"ts": e.ts, "event": e},
        ))
        g.add_edge(ev.id, host.id, "caused_by")
        g.add_edge(ev.id, user.id, "caused_by")
        prev = prev_event_per_host.get(host.id)
        if prev is not None:
            g.add_edge(prev, ev.id, "next")
        prev_event_per_host[host.id] = ev.id
    return g


@dataclass
class SequenceRule:
    """Windowed aggregation rule for one layer of abstraction."""

    id: str
    layer: int
    input_kind: str  # event type (layer 1) or lower-layer sequence type
    where: dict[str, str]
    group_by: list[str]
    window: float  # seconds
    min_count: int
    emit: str
    max_count: int | None = None

    def validate(self) -> None:
        if self.layer < 1:
            raise UnknownInputKind(f"rule {self.id}: layer must be >= 1")
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

    @classmethod
    def from_dict(cls, data: dict) -> "SequenceRule":
        try:
            rule = cls(
                id=data["id"],
                layer=data["layer"],
                input_kind=data["input_kind"],
                where=dict(data.get("where", {})),
                group_by=list(data.get("group_by", [])),
                window=float(data["window"]),
                min_count=int(data["min_count"]),
                emit=data["emit"],
                max_count=data.get("max_count"),
            )
            rule.validate()
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed sequence rule: {exc}") from exc
        return rule

    def to_dict(self) -> dict:
        d = {
            "id": self.id, "layer": self.layer, "input_kind": self.input_kind,
            "where": self.where, "group_by": self.group_by,
            "window": self.window, "min_count": self.min_count,
            "emit": self.emit,
        }
        if self.max_count is not None:
            d["max_count"] = self.max_count
        return d


def load_rules(path: str) -> list[SequenceRule]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return validate_rules([SequenceRule.from_dict(r) for r in raw])


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


@dataclass
class SeqItem:
    """One matchable item: a raw event or an emitted sequence node."""

    ts: int  # anchor timestamp (t_start for sequences)
    t_end: int
    ref: int | str  # LogEvent id or sequence node id
    group: dict[str, str]


def _take_window(
    buf: deque[SeqItem], window_ns: int, min_count: int, max_count: int | None
) -> list[SeqItem] | None:
    """Pop the window anchored at the head of ``buf``.

    Returns its members when at least ``min_count`` fall within
    ``window_ns`` of the head (at most ``max_count``); otherwise drops the
    head alone and returns None.
    """
    head_ts = buf[0].ts
    count = 0
    for item in buf:
        if item.ts - head_ts > window_ns:
            break
        count += 1
        if max_count is not None and count >= max_count:
            break
    if count < min_count:
        buf.popleft()
        return None
    return [buf.popleft() for _ in range(count)]


def greedy_windows(
    items: list[SeqItem], window_ns: int, min_count: int, max_count: int | None
) -> list[list[SeqItem]]:
    """Earliest-start, non-overlapping window aggregation with loop cap."""
    buf = deque(items)
    out: list[list[SeqItem]] = []
    while buf:
        members = _take_window(buf, window_ns, min_count, max_count)
        if members is not None:
            out.append(members)
    return out


class RuleEngine:
    """Streaming layer-1 matcher plus offline higher-layer application."""

    def __init__(self, rules: list[SequenceRule]):
        self.rules = validate_rules(rules)
        self.layer1 = [r for r in self.rules if r.layer == 1]
        self.higher = sorted(
            (r for r in self.rules if r.layer > 1), key=lambda r: (r.layer, r.id)
        )
        self._by_type: dict[str, list[SequenceRule]] = {}
        for r in self.layer1:
            self._by_type.setdefault(r.input_kind, []).append(r)
        # (rule id, group key) -> pending items, ts-ascending
        self._buffers: dict[tuple[str, tuple[str, ...]], deque[SeqItem]] = {}
        self._emitted: dict[str, list[tuple[SequenceRule, list[SeqItem], dict[str, str]]]] = {}
        self.skips = 0

    @staticmethod
    def _group_of(rule: SequenceRule, e: LogEvent) -> dict[str, str] | None:
        group: dict[str, str] = {}
        for f in rule.group_by:
            if f == "source_host":
                v = e.source_host
            elif f == "actor":
                v = e.actor
            else:
                v = e.attributes.get("dst_ip", "")
            if not v:
                return None
            group[f] = v
        return group

    def feed(self, e: LogEvent) -> None:
        for rule in self._by_type.get(e.event_type, ()):
            if any(e.attributes.get(k) != v for k, v in rule.where.items()):
                continue
            group = self._group_of(rule, e)
            if group is None:
                self.skips += 1
                continue
            key = (rule.id, tuple(group[f] for f in rule.group_by))
            buf = self._buffers.setdefault(key, deque())
            buf.append(SeqItem(ts=e.ts, t_end=e.ts, ref=e.id, group=group))
            window_ns = int(rule.window * NS)
            # drain completed prefixes: the head window is closed once the
            # newest item falls outside it
            while buf and e.ts - buf[0].ts > window_ns:
                self._drain(rule, buf, window_ns)

    def _drain(self, rule: SequenceRule, buf: deque[SeqItem], window_ns: int) -> None:
        members = _take_window(buf, window_ns, rule.min_count, rule.max_count)
        if members is not None:
            self._emit(rule, members)

    def finish(self) -> None:
        """Flush remaining buffers and apply higher-layer rules."""
        for key in sorted(self._buffers):
            rule = next(r for r in self.layer1 if r.id == key[0])
            buf = self._buffers[key]
            window_ns = int(rule.window * NS)
            while buf:
                self._drain(rule, buf, window_ns)
        self._buffers.clear()

        for rule in self.higher:
            produced = self._emitted.get(rule.input_kind, [])
            items: dict[tuple[str, ...], list[SeqItem]] = {}
            for _src_rule, members, group in produced:
                sub = {}
                ok = True
                for f in rule.group_by:
                    if f not in group:
                        ok = False
                        break
                    sub[f] = group[f]
                if not ok:
                    self.skips += 1
                    continue
                if any(group.get(k) != v for k, v in rule.where.items()):
                    continue
                key = tuple(sub[f] for f in rule.group_by)
                items.setdefault(key, []).append(SeqItem(
                    ts=members[0].ts,
                    t_end=members[-1].t_end,
                    ref=("pending", rule.input_kind, id(members)),
                    group=sub,
                ))
            window_ns = int(rule.window * NS)
            for key in sorted(items):
                lst = sorted(items[key], key=lambda s: s.ts)
                for members in greedy_windows(
                    lst, window_ns, rule.min_count, rule.max_count
                ):
                    self._emit(rule, members)

    def _emit(self, rule: SequenceRule, members: list[SeqItem]) -> None:
        group = dict(members[0].group)
        self._emitted.setdefault(rule.emit, []).append((rule, members, group))

    def results(self) -> dict[str, list[tuple[SequenceRule, list[SeqItem], dict[str, str]]]]:
        return self._emitted


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


def apply_rules(
    graph: PropertyGraph,
    rules: list[SequenceRule],
    events: Iterable[LogEvent],
) -> PropertyGraph:
    """Apply sequence rules to a time-sorted stream in ascending layer
    order, adding sequence nodes to ``graph``; idempotent.

    Event nodes, where ``graph`` holds them, gain member_of edges.
    """
    pending = [r for r in rules if r.id not in graph.applied_rules]
    if not pending:
        return graph
    engine = RuleEngine(pending)
    for e in _in_order(events):
        engine.feed(e)
    engine.finish()
    graph.rule_skips += engine.skips

    # materialize sequence nodes deterministically
    seq_counter = 0
    node_of_members: dict[int, str] = {}
    all_seqs: list[tuple[SequenceRule, list[SeqItem], dict[str, str]]] = []
    for emit_type in sorted(engine.results()):
        all_seqs.extend(engine.results()[emit_type])
    all_seqs.sort(key=lambda t: (t[0].layer, t[0].id, t[1][0].ts,
                                 str(t[1][0].ref)))
    for rule, members, group in all_seqs:
        seq_counter += 1
        node_id = f"seq:{rule.id}:{seq_counter}"
        node_of_members[id(members)] = node_id
        member_refs = []
        for item in members:
            if isinstance(item.ref, tuple) and item.ref[0] == "pending":
                member_refs.append(node_of_members[item.ref[2]])
            else:
                member_refs.append(item.ref)
        graph.add_node(Node(node_id, "sequence", rule.emit, {
            "rule": rule.id,
            "layer": rule.layer,
            "type": rule.emit,
            "group": group,
            "members": member_refs,
            "t_start": members[0].ts,
            "t_end": max(m.t_end for m in members),
        }))
        for ref in member_refs:
            if isinstance(ref, int):
                ev_node = _event_id(ref)
                if ev_node in graph.nodes:
                    graph.add_edge(ev_node, node_id, "member_of")
            else:
                graph.add_edge(ref, node_id, "member_of")
    for r in pending:
        graph.applied_rules.add(r.id)
    return graph


# --- export / import ---

def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


_DOT_SHAPES = {
    "host": "box",
    "user": "ellipse",
    "event": "point",
    "sequence": "hexagon",
    "kc_element": "doubleoctagon",
    "adversary": "octagon",
}


def export_graph(graph: PropertyGraph, fmt: str) -> str:
    """Deterministic DOT or GraphML rendering (nodes sorted by id)."""
    if fmt == "dot":
        lines = ["digraph chaintrace {"]
        for nid in sorted(graph.nodes):
            n = graph.nodes[nid]
            shape = _DOT_SHAPES.get(n.kind, "box")
            lines.append(
                f'  "{_dot_escape(nid)}" [label="{_dot_escape(n.label)}" '
                f'shape={shape} class="{n.kind}"];'
            )
        for edge in sorted(graph._edge_set, key=lambda e: (e.src, e.dst, e.kind)):
            lines.append(
                f'  "{_dot_escape(edge.src)}" -> "{_dot_escape(edge.dst)}" '
                f'[label="{edge.kind}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "graphml":
        root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
        for key_id, attr in (("d0", "kind"), ("d1", "label")):
            ET.SubElement(root, "key", id=key_id, attrib={
                "for": "node", "attr.name": attr, "attr.type": "string",
            })
        ET.SubElement(root, "key", id="d2", attrib={
            "for": "edge", "attr.name": "kind", "attr.type": "string",
        })
        gel = ET.SubElement(root, "graph", id="G", edgedefault="directed")
        for nid in sorted(graph.nodes):
            n = graph.nodes[nid]
            nel = ET.SubElement(gel, "node", id=nid)
            ET.SubElement(nel, "data", key="d0").text = n.kind
            ET.SubElement(nel, "data", key="d1").text = n.label
        for edge in sorted(graph._edge_set, key=lambda e: (e.src, e.dst, e.kind)):
            eel = ET.SubElement(gel, "edge", source=edge.src, target=edge.dst)
            ET.SubElement(eel, "data", key="d2").text = edge.kind
        ET.indent(root)
        return ET.tostring(root, encoding="unicode") + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def import_graphml(text: str) -> PropertyGraph:
    """Re-import an exported GraphML document (kind/label/edges only)."""
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    root = ET.fromstring(text)
    g = PropertyGraph()
    gel = root.find("g:graph", ns)
    for nel in gel.findall("g:node", ns):
        data = {d.get("key"): d.text or "" for d in nel.findall("g:data", ns)}
        g.add_node(Node(nel.get("id"), data.get("d0", ""), data.get("d1", "")))
    for eel in gel.findall("g:edge", ns):
        data = {d.get("key"): d.text or "" for d in eel.findall("g:data", ns)}
        g.add_edge(eel.get("source"), eel.get("target"), data.get("d2", ""))
    return g
