"""Staged attack model with variants, per-victim matching, completeness
scoring, adversary identification and attack reconstruction. These read
the sequence nodes and write no graph: ``graph.build_graph`` does."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SchemaError, UnknownSequenceType
from .events import MAX_ID_TS, load_json
from .graph import Node, SequenceRule

DEFAULT_ALERT_THRESHOLD = 0.4

STATUS_NONE = "none"
STATUS_PARTIAL = "partial"
STATUS_FULL = "full"

EXIT_NO_ALERT = 0
EXIT_PARTIAL = 3
EXIT_FULL = 4


@dataclass
class Variant:
    id: str
    accepts: list[str]


@dataclass
class Element:
    id: str
    name: str
    required: bool
    variants: list[Variant]


@dataclass
class KillChainModel:
    elements: list[Element]
    alert_threshold: float = DEFAULT_ALERT_THRESHOLD

    def required_ids(self) -> list[str]:
        return [e.id for e in self.elements if e.required]

    def validate(self, rules: list[SequenceRule] | None = None) -> None:
        if not self.elements:
            raise SchemaError("model has no elements")
        if not any(e.required for e in self.elements):
            raise SchemaError("model needs at least one required element")
        if not (0 < self.alert_threshold <= 1):
            raise SchemaError("alert_threshold must be in (0, 1]")
        ids = [e.id for e in self.elements]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate element ids")
        for e in self.elements:
            if not e.variants:
                raise SchemaError(f"element {e.id} has no variants")
        if rules is not None:
            known = {r.emit for r in rules}
            for e in self.elements:
                for v in e.variants:
                    missing = set(v.accepts) - known
                    if missing:
                        raise UnknownSequenceType(
                            f"element {e.id} variant {v.id} accepts unknown "
                            f"sequence types {sorted(missing)}"
                        )


def load_killchain(path: str, rules: list[SequenceRule] | None = None) -> KillChainModel:
    return load_json(path, "kill chain", KillChainModel,
                     check=lambda model: model.validate(rules))


@dataclass
class Binding:
    sequence_id: str
    variant_id: str
    ts: int  # t_start of the bound sequence


@dataclass
class ChainMatch:
    victim_host: str
    matched: dict[str, Binding] = field(default_factory=dict)
    completeness: float = 0.0
    status: str = STATUS_NONE
    adversary: str | None = None

    def to_report(self) -> dict:
        return {
            "victim": self.victim_host,
            "status": self.status,
            "completeness": round(self.completeness, 6),
            "adversary": self.adversary,
            "elements": {
                eid: {
                    "sequence": b.sequence_id,
                    "variant": b.variant_id,
                    "ts": b.ts,
                }
                for eid, b in self.matched.items()
            },
        }


def match_killchain(sequences: list[Node], model: KillChainModel) -> list[ChainMatch]:
    """Bind event sequences to kill-chain elements, one match per victim.

    ``sequences`` come in (t_start, id) order, as ``PropertyGraph.sequences``
    gives them; each victim (a sequence's ``source_host``) keeps its unbound
    ones in that order. Required elements bind in attack order, each at or
    after the previous binding; then optional ones bind between their bound
    neighbours, so they never displace a required one. An element binds the
    earliest sequence in range that its first variant with any accepts.
    """
    waiting: dict[str, list[Node]] = {}
    for s in sequences:
        host = s.attributes["group"].get("source_host")
        if host:
            waiting.setdefault(host, []).append(s)
    required = model.required_ids()
    matches: list[ChainMatch] = []
    for host in sorted(waiting):
        seqs = waiting[host]
        match = ChainMatch(victim_host=host)

        def bind(element: Element, lo: int, hi: int) -> int | None:
            for variant in element.variants:
                for i, s in enumerate(seqs):
                    ts = s.attributes["t_start"]
                    if ts > hi:
                        break
                    if ts >= lo and s.attributes["type"] in variant.accepts:
                        del seqs[i]
                        match.matched[element.id] = Binding(s.id, variant.id, ts)
                        return ts
            return None

        last_ts = -1
        for element in model.elements:
            if element.required:
                ts = bind(element, last_ts, MAX_ID_TS)
                if ts is not None:
                    last_ts = ts
        for idx, element in enumerate(model.elements):
            if element.required or element.id in match.matched:
                continue
            lo = max((match.matched[e.id].ts for e in model.elements[:idx]
                      if e.id in match.matched), default=-1)
            hi = min((match.matched[e.id].ts for e in model.elements[idx + 1:]
                      if e.id in match.matched), default=MAX_ID_TS)
            bind(element, lo, hi)
        if not match.matched:
            continue
        hit_required = sum(1 for eid in required if eid in match.matched)
        match.completeness = hit_required / len(required)
        if match.completeness >= 1.0:
            match.status = STATUS_FULL
        elif match.completeness >= model.alert_threshold:
            match.status = STATUS_PARTIAL
        matches.append(match)
    return matches


def identify_adversary(match: ChainMatch, nodes: dict[str, Node],
                       model: KillChainModel) -> str | None:
    """Back-trace the external host behind the matched network elements,
    set as ``match.adversary``: the dst_ip of the matched element latest in
    chain order (exfiltration over command-and-control) whose sequence in
    ``nodes`` groups by one. None if the match does not alert or has none."""
    if match.status not in (STATUS_PARTIAL, STATUS_FULL):
        return None
    for element in reversed(model.elements):
        binding = match.matched.get(element.id)
        if binding is None:
            continue
        dst = nodes[binding.sequence_id].attributes["group"].get("dst_ip")
        if dst:
            match.adversary = dst
            return dst
    return None


def reconstruct_attack(match: ChainMatch, nodes: dict[str, Node],
                       model: KillChainModel) -> list[dict]:
    """Per matched element: its sequence node and member event ids in ts order."""
    report: list[dict] = []

    def event_ids(seq_node: Node) -> list[int]:
        out: list[int] = []
        for ref in seq_node.attributes["members"]:
            if isinstance(ref, int):
                out.append(ref)
            else:
                out.extend(event_ids(nodes[ref]))
        return sorted(out)

    for element in model.elements:
        binding = match.matched.get(element.id)
        if binding is None:
            continue
        report.append({
            "element": element.id,
            "sequence": binding.sequence_id,
            "variant": binding.variant_id,
            "event_ids": event_ids(nodes[binding.sequence_id]),
        })
    return report


def exit_code_for(matches: list[ChainMatch]) -> int:
    if any(m.status == STATUS_FULL for m in matches):
        return EXIT_FULL
    if any(m.status == STATUS_PARTIAL for m in matches):
        return EXIT_PARTIAL
    return EXIT_NO_ALERT
