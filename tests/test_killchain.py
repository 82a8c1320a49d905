import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from chaintrace.errors import SchemaError, UnknownSequenceType
from chaintrace.graph import Node, PropertyGraph, apply_rules, build_graph
from chaintrace.killchain import (
    EXIT_FULL,
    EXIT_NO_ALERT,
    EXIT_PARTIAL,
    STATUS_FULL,
    STATUS_NONE,
    STATUS_PARTIAL,
    Binding,
    ChainMatch,
    Element,
    KillChainModel,
    Variant,
    exit_code_for,
    identify_adversary,
    load_killchain,
    match_killchain,
    reconstruct_attack,
)
from chaintrace.simulate import SimConfig, simulate
from oracles import match_killchain_ref


def _detect(cfg, rules, model):
    events, truth = simulate(cfg)
    graph = apply_rules(PropertyGraph(), rules, events)
    matches = match_killchain(graph.sequences(), model)
    return events, truth, graph, matches


def test_full_chain_on_case_study(case_study, default_rules, default_model):
    _, events, truth = case_study
    graph = apply_rules(PropertyGraph(), default_rules, events)
    matches = match_killchain(graph.sequences(), default_model)
    alerting = [m for m in matches if m.status != STATUS_NONE]
    assert len(alerting) == 1
    m = alerting[0]
    assert m.victim_host == truth.victim_host
    assert m.status == STATUS_FULL
    assert m.completeness == 1.0
    assert set(m.matched) >= set(default_model.required_ids())
    assert m.matched["delivery"].variant_id == "2.1"
    assert exit_code_for(matches) == EXIT_FULL


def _victim_match(matches, truth):
    return next(m for m in matches if m.victim_host == truth.victim_host)


def test_bindings_are_temporally_ordered(case_study, default_rules, default_model):
    _, events, truth = case_study
    graph = apply_rules(PropertyGraph(), default_rules, events)
    m = _victim_match(match_killchain(graph.sequences(), default_model), truth)
    order = [e.id for e in default_model.elements]
    bound = [m.matched[eid].ts for eid in order if eid in m.matched]
    assert bound == sorted(bound)


def test_adversary_identified(case_study, default_rules, default_model):
    _, events, truth = case_study
    graph = apply_rules(PropertyGraph(), default_rules, events)
    m = _victim_match(match_killchain(graph.sequences(), default_model), truth)
    assert identify_adversary(m, graph.nodes, default_model) == truth.attacker_ip
    assert m.adversary == truth.attacker_ip


def test_reconstruction_covers_labels(case_study, default_rules, default_model):
    _, events, truth = case_study
    graph = apply_rules(PropertyGraph(), default_rules, events)
    m = _victim_match(match_killchain(graph.sequences(), default_model), truth)
    report = reconstruct_attack(m, graph.nodes, default_model)
    covered = set()
    for entry in report:
        assert entry["event_ids"] == sorted(entry["event_ids"])
        covered |= set(entry["event_ids"])
    assert truth.labeled_ids() <= covered


def test_report_stage_only_reads_and_drawing_adds_the_chain(case_study, default_rules,
                                                            default_model):
    _, events, truth = case_study
    graph = apply_rules(PropertyGraph(), default_rules, events)
    nodes = copy.deepcopy(graph.nodes)
    matches = match_killchain(graph.sequences(), default_model)
    for m in matches:
        identify_adversary(m, graph.nodes, default_model)
        reconstruct_attack(m, graph.nodes, default_model)
    assert graph.nodes == nodes and graph.edge_count() == 0

    names = {e.id: e.name for e in default_model.elements}
    assert build_graph(graph, default_rules, matches, names) is graph
    # the sequences stay as detection left them; around them, one member_of
    # edge per member and one matches edge per bound element
    assert all(graph.nodes[nid] == node for nid, node in nodes.items())
    bound = {(b.sequence_id, eid) for m in matches for eid, b in m.matched.items()}
    member_of = {(f"event:{ref}" if isinstance(ref, int) else ref, s.id)
                 for s in graph.sequences() for ref in s.attributes["members"]}
    drawn = {kind: {(e.src, e.dst) for e in graph.edges() if e.kind == kind}
             for kind in ("member_of", "matches")}
    assert drawn == {"member_of": member_of,
                     "matches": {(seq, f"kc:{eid}") for seq, eid in bound}}
    assert {nid: (n.kind, n.label) for nid, n in graph.nodes.items() if n.kind == "kc_element"} \
        == {f"kc:{eid}": ("kc_element", names[eid]) for _, eid in bound}
    assert [nid for nid, n in graph.nodes.items() if n.kind == "adversary"] \
        == [f"host:{truth.attacker_ip}"]


def test_truncated_chain_is_partial(default_rules, default_model):
    cfg = SimConfig(seed=42, truncate_after="installation")
    _, truth, _, matches = _detect(cfg, default_rules, default_model)
    alerting = [m for m in matches if m.status != STATUS_NONE]
    assert len(alerting) == 1
    m = alerting[0]
    assert m.victim_host == truth.victim_host
    assert m.status == STATUS_PARTIAL
    # delivery + exploitation of the five required elements
    assert m.completeness == pytest.approx(0.4)
    assert exit_code_for(matches) == EXIT_PARTIAL


def test_usb_variant_binds(default_rules, default_model):
    cfg = SimConfig(seed=42, scenario="usb_jpeg_exfil")
    _, truth, _, matches = _detect(cfg, default_rules, default_model)
    full = [m for m in matches if m.status == STATUS_FULL]
    assert len(full) == 1
    assert full[0].victim_host == truth.victim_host
    assert full[0].matched["delivery"].variant_id == "2.2"


def test_clean_stream_no_alert(default_rules, default_model):
    cfg = SimConfig(seed=13, attack=False)
    _, _, _, matches = _detect(cfg, default_rules, default_model)
    assert all(
        m.completeness < default_model.alert_threshold for m in matches
    )
    assert exit_code_for(matches) == EXIT_NO_ALERT


def test_two_victims_two_matches(default_rules, default_model):
    cfg = SimConfig(seed=6, duration=1200, victims=2)
    _, truth, graph, matches = _detect(cfg, default_rules, default_model)
    full = [m for m in matches if m.status == STATUS_FULL]
    assert sorted(m.victim_host for m in full) == truth.victim_hosts


def test_optional_binding_never_breaks_required(default_rules, default_model):
    # a benign archive write after the exfiltration must not bind as the
    # exfiltration-preparation step and push the chain out of order
    events, truth = simulate(SimConfig(seed=42))
    from chaintrace.events import LogEvent
    last = events[-1]
    events.append(LogEvent(
        last.id + 1, last.ts + 1, truth.victim_host, "file_write", "u000",
        {"path": "C:\\Users\\u000\\backup.zip", "ext": "zip"},
    ))
    graph = apply_rules(PropertyGraph(), default_rules, events)
    m = _victim_match(match_killchain(graph.sequences(), default_model), truth)
    assert m.status == STATUS_FULL
    if "prepare_exfiltration" in m.matched:
        assert m.matched["prepare_exfiltration"].ts \
            >= m.matched["actions_on_objectives"].ts


def test_adversary_requires_network_element(default_model):
    m = ChainMatch(victim_host="ws000", status=STATUS_NONE)
    assert identify_adversary(m, PropertyGraph().nodes, default_model) is None
    # an alerting match whose bound sequences group by no dst_ip
    seq = Node("seq:a:1", "sequence", "burst", {"group": {"source_host": "ws000"}})
    m = ChainMatch("ws000", {"e1": Binding(seq.id, "v", 1)}, 1.0, STATUS_FULL)
    assert identify_adversary(m, {seq.id: seq}, _tiny_model()) is None
    assert m.adversary is None


def test_exit_codes():
    assert exit_code_for([]) == EXIT_NO_ALERT
    part = ChainMatch("h", status=STATUS_PARTIAL)
    full = ChainMatch("h", status=STATUS_FULL)
    assert exit_code_for([part]) == EXIT_PARTIAL
    assert exit_code_for([part, full]) == EXIT_FULL


# --- model validation ---

def _tiny_model(**kw):
    el = Element("e1", "E1", True, [Variant("v", ["burst"])])
    base = dict(elements=[el])
    base.update(kw)
    return KillChainModel(**base)


def test_model_validation():
    with pytest.raises(SchemaError):
        KillChainModel(elements=[]).validate()
    with pytest.raises(SchemaError):
        KillChainModel(
            elements=[Element("e", "E", False, [Variant("v", ["x"])])]
        ).validate()
    with pytest.raises(SchemaError):
        _tiny_model(alert_threshold=0.0).validate()
    dup = _tiny_model()
    dup.elements.append(Element("e1", "E1b", True, [Variant("v", ["burst"])]))
    with pytest.raises(SchemaError):
        dup.validate()
    empty_variants = KillChainModel(elements=[Element("e", "E", True, [])])
    with pytest.raises(SchemaError):
        empty_variants.validate()


def test_model_rejects_unknown_sequence_type(default_rules):
    model = _tiny_model()
    model.elements[0].variants[0].accepts = ["no_such_sequence"]
    with pytest.raises(UnknownSequenceType):
        model.validate(default_rules)


def test_load_killchain_errors(tmp_path):
    path = tmp_path / "kc.json"
    path.write_text(json.dumps({"elements": [{"id": "x"}]}))
    with pytest.raises(SchemaError) as err:
        load_killchain(str(path))
    assert str(err.value) == f"kill chain {path}: malformed: elements[0].name: missing"


def test_default_model_consistent(default_rules, default_model):
    default_model.validate(default_rules)
    assert len(default_model.required_ids()) == 5


# --- binding vs the brute-force reference ---

_TYPES = ("a", "b", "c", "d")


@st.composite
def _binding_cases(draw):
    hosts = draw(st.lists(st.sampled_from(["ws000", "ws001", "ws002"]),
                          min_size=2, max_size=3, unique=True))
    # one counter over all sequences, as apply_rules numbers them, so
    # seq:a:10 sorts before seq:a:9 as a string
    numbers = draw(st.lists(st.integers(1, 40), max_size=14, unique=True))
    sequences = [
        (f"seq:{draw(st.sampled_from('ab'))}:{n}",
         draw(st.sampled_from([*hosts, "", None])),  # "" and None: no victim
         draw(st.sampled_from(_TYPES)),
         draw(st.integers(0, 6)))  # few values, many ties
        for n in numbers
    ]
    accepts = st.lists(st.sampled_from(_TYPES), min_size=1, max_size=3, unique=True)
    elements = [
        (f"e{i}", draw(st.booleans()),
         [(f"{i}.{j}", draw(accepts)) for j in range(draw(st.integers(1, 3)))])
        for i in range(draw(st.integers(1, 5)))
    ]
    if not any(required for _, required, _ in elements):
        elements[0] = (elements[0][0], True, elements[0][2])
    return sequences, elements, draw(st.sampled_from([0.2, 0.4, 0.5, 1.0]))


@given(case=_binding_cases())
@example(case=(  # the string order of ids breaks the tie on t_start
    [("seq:a:9", "ws000", "a", 3), ("seq:a:10", "ws000", "a", 3),
     ("seq:b:11", "ws001", "b", 1)],
    [("e0", True, [("0.1", ["a"])]), ("e1", False, [("1.1", ["b"]), ("1.2", ["a"])])],
    0.4,
))
@example(case=(  # an optional element binds only between its neighbours
    [("seq:a:1", "ws000", "b", 1), ("seq:a:2", "ws000", "a", 2),
     ("seq:a:3", "ws000", "b", 3), ("seq:a:4", "ws000", "c", 4)],
    [("e0", True, [("0.1", ["a"])]), ("e1", False, [("1.1", ["b"])]),
     ("e2", True, [("2.1", ["c"])])],
    0.5,
))
@settings(max_examples=300, deadline=None)
def test_match_killchain_matches_reference(case):
    sequences, elements, threshold = case
    graph = PropertyGraph()
    for sid, host, stype, t in sequences:
        group = {"dst_ip": "10.0.0.1"} if host is None else {"source_host": host}
        graph.add_node(Node(sid, "sequence", stype,
                            {"type": stype, "t_start": t, "group": group}))
    model = KillChainModel(
        elements=[Element(eid, f"E {eid}", required,
                          [Variant(vid, list(acc)) for vid, acc in variants])
                  for eid, required, variants in elements],
        alert_threshold=threshold,
    )
    matches = match_killchain(graph.sequences(), model)
    got = [(m.victim_host,
            {eid: (b.sequence_id, b.variant_id, b.ts) for eid, b in m.matched.items()},
            m.completeness, m.status)
           for m in matches]
    assert got == match_killchain_ref(sequences, elements, threshold)
