import os
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings, strategies as st

from chaintrace.errors import RuleCycle, SchemaError, UnknownInputKind, UnsortedInput
from chaintrace.events import NS, LogEvent
from chaintrace.graph import (
    PropertyGraph,
    SequenceRule,
    apply_rules,
    build_graph,
    export_graph,
    validate_rules,
)
from oracles import window_scan_ref


def _ev(i, ts_s, etype="file_read", host="ws000", actor="u000", **attrs):
    return LogEvent(i, int(ts_s * NS), host, etype, actor, {
        k: str(v) for k, v in attrs.items()
    })


def _rule(**kw):
    base = dict(
        id="r", layer=1, input_kind="file_read", where={},
        group_by=["source_host"], window=60.0, min_count=2, emit="burst",
    )
    base.update(kw)
    return SequenceRule(**base)


# --- graph construction ---

def _drawn():
    """A drawn export of two layer-1 rules and a layer-2 rule over five
    events, one of which (the logon) no rule reads."""
    events = [
        _ev(1, 0, "fw_conn", actor="alice", dst_ip="1.2.3.4"),
        _ev(2, 1, "fw_conn", actor="alice", dst_ip="1.2.3.4"),
        _ev(3, 2, actor="alice"),
        _ev(4, 3, "logon", actor="alice", session_id="S1"),
        _ev(5, 4, actor="alice"),
    ]
    rules = [
        _rule(id="beacon", input_kind="fw_conn", group_by=["source_host", "dst_ip"],
              emit="beacon"),
        _rule(id="burst", group_by=["source_host", "actor"]),
        _rule(id="chan", layer=2, input_kind="beacon", group_by=["dst_ip"], min_count=1,
              emit="chan"),
    ]
    g = apply_rules(PropertyGraph(), rules, events)
    assert build_graph(g, rules, [], {}) is g
    return g


def test_build_graph_nodes_and_edges():
    g = _drawn()
    assert {nid: (n.kind, n.label) for nid, n in g.nodes.items()} == {
        "seq:beacon:1": ("sequence", "beacon"),
        "seq:burst:2": ("sequence", "burst"),
        "seq:chan:3": ("sequence", "chan"),
        "event:1": ("event", "fw_conn"),
        "event:2": ("event", "fw_conn"),
        "event:3": ("event", "file_read"),
        "event:5": ("event", "file_read"),
        "host:ws000": ("host", "ws000"),
        "host:1.2.3.4": ("host", "1.2.3.4"),
        "user:alice": ("user", "alice"),
    }
    assert {(e.src, e.dst, e.kind) for e in g.edges()} == {
        ("event:1", "seq:beacon:1", "member_of"),
        ("event:2", "seq:beacon:1", "member_of"),
        ("event:3", "seq:burst:2", "member_of"),
        ("event:5", "seq:burst:2", "member_of"),
        ("seq:beacon:1", "seq:chan:3", "member_of"),
        ("seq:beacon:1", "host:ws000", "caused_by"),
        ("seq:beacon:1", "host:1.2.3.4", "connects_to"),
        ("seq:burst:2", "host:ws000", "caused_by"),
        ("seq:burst:2", "user:alice", "caused_by"),
        ("seq:chan:3", "host:1.2.3.4", "connects_to"),
    }


def test_apply_rules_rejects_unsorted():
    events = [_ev(2, 5), _ev(1, 1)]
    with pytest.raises(UnsortedInput):
        apply_rules(PropertyGraph(), [_rule()], events)


def test_membership_partition(case_study, default_rules):
    # within one rule, no event belongs to two sequence nodes
    _, events, _ = case_study
    g = apply_rules(PropertyGraph(), default_rules, events)
    seen: dict[str, set] = {}
    for node in g.sequences():
        rule = node.attributes["rule"]
        members = set(node.attributes["members"])
        prior = seen.setdefault(rule, set())
        assert not (prior & members)
        prior |= members


def test_apply_rules_idempotent(case_study, default_rules):
    _, events, _ = case_study
    g = apply_rules(PropertyGraph(), default_rules, events)
    before = sorted(g.nodes)
    edge_count = g.edge_count()
    apply_rules(g, default_rules, events)
    assert sorted(g.nodes) == before
    assert g.edge_count() == edge_count


def test_sequence_node_shape(case_study, default_rules):
    _, events, truth = case_study
    by_id = {e.id: e for e in events}
    g = apply_rules(PropertyGraph(), default_rules, events)
    seqs = g.sequences()
    assert seqs
    for node in seqs:
        a = node.attributes
        assert a["t_start"] <= a["t_end"]
        assert len(a["members"]) >= 1
        if a["layer"] == 1:
            for ref in a["members"]:
                assert isinstance(ref, int)
                e = by_id[ref]
                assert a["t_start"] <= e.ts <= a["t_end"]


def test_layer2_sequences_reference_layer1(case_study, default_rules):
    _, events, _ = case_study
    g = apply_rules(PropertyGraph(), default_rules, events)
    layer2 = [n for n in g.sequences() if n.attributes["layer"] == 2]
    assert layer2, "case study should produce a repeated-beacon channel"
    for node in layer2:
        for ref in node.attributes["members"]:
            assert isinstance(ref, str)
            assert g.nodes[ref].kind == "sequence"
            assert g.nodes[ref].attributes["layer"] == 1


# --- windowed aggregation vs oracle ---

def _windows(ts_ns, window_s, min_count, max_count):
    """The member ids of one rule's windows over one group's events at
    ``ts_ns`` (event i at ts_ns[i]), in member order."""
    rule = _rule(window=float(window_s), min_count=min_count, max_count=max_count)
    events = [LogEvent(i, t, "ws000", "file_read", "u000") for i, t in enumerate(ts_ns)]
    g = apply_rules(PropertyGraph(), [rule], events)
    return sorted(n.attributes["members"] for n in g.sequences())


def test_seven_in_window_single_node():
    ts = [i * NS for i in range(7)]
    assert _windows(ts, 60, 3, None) == [list(range(7))]


def test_window_boundary_inclusive():
    ts = [0, 60 * NS, 60 * NS + 1]
    assert _windows(ts, 60, 2, None) == [[0, 1]]


def test_loop_cap_splits_groups():
    ts = [i * NS for i in range(10)]
    assert _windows(ts, 60, 2, 4) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


@given(
    gaps=st.lists(st.integers(min_value=0, max_value=120), min_size=0, max_size=40),
    window=st.integers(min_value=1, max_value=90),
    min_count=st.integers(min_value=1, max_value=6),
    max_count=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
)
@example(gaps=[0, 60, 0], window=60, min_count=1, max_count=None)  # tie at the window edge
@example(gaps=[0] * 10, window=1, min_count=1, max_count=1)  # ten windows tied on t_start
@settings(max_examples=300, deadline=None)
def test_greedy_windows_matches_scan_oracle(gaps, window, min_count, max_count):
    if max_count is not None and max_count < min_count:
        max_count = min_count
    ts = []
    t = 0
    for gap in gaps:
        t += gap
        ts.append(t)
    want = window_scan_ref(ts, window, min_count, max_count)
    assert _windows([x * NS for x in ts], window, min_count, max_count) == want


# --- rule engine semantics ---

def test_where_filter_and_grouping():
    rule = _rule(where={"ext": "jpg"}, group_by=["source_host", "actor"])
    events = [
        _ev(1, 0, actor="a", path="x.jpg", ext="jpg"),
        _ev(2, 1, actor="b", path="x.jpg", ext="jpg"),
        _ev(3, 2, actor="a", path="x.txt", ext="txt"),
        _ev(4, 3, actor="a", path="y.jpg", ext="jpg"),
    ]
    g = apply_rules(PropertyGraph(), [rule], events)
    seqs = g.sequences()
    assert len(seqs) == 1
    assert seqs[0].attributes["members"] == [1, 4]
    assert seqs[0].attributes["group"] == {"source_host": "ws000", "actor": "a"}


def test_missing_group_field_skips_and_counts():
    rule = _rule(input_kind="fw_conn", group_by=["dst_ip"], min_count=1)
    events = [
        _ev(1, 0, "fw_conn", verdict="deny", dst_port=1, bytes_out=0),  # no dst_ip
        _ev(2, 1, "fw_conn", dst_ip="9.9.9.9", dst_port=1,
            verdict="deny", bytes_out=0),
    ]
    g = apply_rules(PropertyGraph(), [rule], events)
    assert len(g.sequences()) == 1
    assert g.rule_skips == 1


def test_ts_and_ids_up_to_the_bound_are_windowed():
    rule = _rule(group_by=[])
    top = (1 << 63) - 1
    events = [LogEvent(i, ts, "ws000", "file_read", "u000", {})
              for i, ts in [(1, 1), (2, 2), (3, top - 1), (top, top)]]
    seqs = apply_rules(PropertyGraph(), [rule], events).sequences()
    assert [(n.attributes["t_start"], n.attributes["members"]) for n in seqs] \
        == [(1, [1, 2]), (top - 1, [3, top])]


@pytest.mark.parametrize("member", ["id", "ts"])
def test_ids_and_ts_past_the_bound_are_a_schema_error(default_rules, member):
    past = 1 << 63
    event = LogEvent(1, 5, "ws000", "file_read", "u000", {"path": "a.txt", "ext": "txt"})
    setattr(event, member, past)
    with pytest.raises(SchemaError, match=r"^event: id and ts must be integers from 1 to "
                                          r"2\*\*63 - 1$"):
        apply_rules(PropertyGraph(), default_rules, [event])


def test_window_members_cost_bounded_memory():
    # 200k file_reads on 50 hosts, 0.01 s apart, fill dense 60 s windows;
    # a closed window keeps its members' refs, not one item object each,
    # so the traced peak of the rule pass stays near the refs and the
    # part's columns (about 75 B a member; 175 B with items kept)
    import tracemalloc

    rule = _rule(id="file_sweep", min_count=15)
    t0 = 1_600_000_000 * NS
    events = [LogEvent(i + 1, t0 + i * NS // 100, f"ws{i % 50:03d}", "file_read", "u000", {})
              for i in range(200_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        seqs = apply_rules(PropertyGraph(), [rule], events).sequences()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    members = sum(len(n.attributes["members"]) for n in seqs)
    assert members > 199_000
    assert peak / members < 110


def test_a_step_back_where_parts_meet_reaps_the_workers(tmp_path, monkeypatch):
    from chaintrace import store as store_module
    from chaintrace.store import EventStore

    store = EventStore(str(tmp_path / "s"))
    store.append(_ev(i, i) for i in range(1, 41))
    store.close()
    seg = tmp_path / "s" / "000000.seg"
    lines = seg.read_text().splitlines(keepends=True)
    lines[20] = lines[20].replace(f'"ts":{21 * NS},', f'"ts":{NS},')  # part 2's first
    seg.write_text("".join(lines))
    monkeypatch.setattr(store_module, "MIN_PART_LINES", 1)
    monkeypatch.setattr(store_module, "_usable_cpus", lambda: 4)
    with pytest.raises(UnsortedInput, match=f"^event id=21 ts={NS} out of order$") as raised:
        apply_rules(PropertyGraph(), [_rule()], store)
    # its traceback, and with it the parts being read, is still alive
    assert raised.tb is not None
    with pytest.raises(ChildProcessError):  # no worker is left behind
        os.waitpid(-1, os.WNOHANG)


def test_streaming_equals_offline(case_study, default_rules):
    # a stream read once, as it arrives, gains the same sequence nodes as
    # the list of its events
    _, events, _ = case_study
    g_full = apply_rules(PropertyGraph(), default_rules, events)
    g_seq = apply_rules(PropertyGraph(), default_rules, (e for e in events))
    assert [(n.id, n.attributes) for n in g_full.sequences()] \
        == [(n.id, n.attributes) for n in g_seq.sequences()]


def _number(node_id):
    return int(node_id.rsplit(":", 1)[1])


def test_sequence_numbering_is_deterministic():
    # 20 hosts burst at the same seconds, so every layer-1 node ties on
    # t_start, and so does every layer-2 node above them
    events, eid = [], 0
    for t in range(3):
        for h in range(20):
            eid += 1
            events.append(_ev(eid, t, host=f"ws{h:03d}"))
    rules = [
        _rule(id="burst", emit="burst"),
        _rule(id="per_host", layer=2, input_kind="burst", min_count=1, emit="host_run"),
        _rule(id="all", layer=2, input_kind="burst", group_by=[], min_count=1,
              max_count=3, emit="run"),
    ]

    def run():
        g = apply_rules(PropertyGraph(), rules, events)
        return [(n.id, n.attributes) for n in g.sequences()]

    first = run()
    # differently sized allocations held between the runs move later objects
    ballast = [bytearray(size) for size in (16, 4096, 1 << 20)]
    ballast += [[None] * k for k in range(300)]
    assert run() == first
    del ballast

    # the documented order: n counts (layer, rule id, t_start, first member
    # as a string) ...
    nodes = sorted(first, key=lambda item: _number(item[0]))
    keys = [(a["layer"], a["rule"], a["t_start"], str(a["members"][0])) for _, a in nodes]
    assert keys == sorted(keys) and len(set(keys)) == len(keys) == 20 + 20 + 7
    assert [_number(nid) for nid, _ in nodes] == list(range(1, 48))
    # ... and a higher layer reads the lower nodes in (t_start, n) order
    runs = [a["members"] for _, a in first if a["rule"] == "all"]
    assert sorted(sum(runs, []), key=_number) == [f"seq:burst:{n}" for n in range(1, 21)]
    assert sorted(runs, key=lambda m: _number(m[0])) == [
        [f"seq:burst:{n}" for n in range(k, min(k + 3, 21))] for k in range(1, 21, 3)
    ]


_KINDS = ("file_read", "file_write", "usb_insert")


@given(
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),  # gap in seconds
            st.integers(min_value=0, max_value=2),  # host
            st.integers(min_value=0, max_value=1),  # actor
            st.integers(min_value=0, max_value=2),  # index into _KINDS
        ),
        max_size=40,
    ),
    window=st.integers(min_value=1, max_value=90),
    min_count=st.integers(min_value=1, max_value=4),
    max_count=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
)
@example(steps=[(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)],
         window=10, min_count=1, max_count=2)  # ties inside one layer-2 key
@example(steps=[(0, 0, 0, 1), (5, 0, 0, 0)],
         window=10, min_count=1, max_count=1)  # two lower rules, one key
@settings(max_examples=200, deadline=None)
def test_layer2_windows_match_scan_oracle(steps, window, min_count, max_count):
    if max_count is not None and max_count < min_count:
        max_count = min_count
    events, t = [], 0
    for i, (gap, host, actor, kind) in enumerate(steps, 1):
        t += gap
        events.append(_ev(i, t, _KINDS[kind], host=f"ws{host}", actor=f"u{actor}"))
    # every event is its own layer-1 node of type "step"; rule s's nodes
    # lack source_host, so the layer-2 rule skips them
    one = dict(min_count=1, max_count=1, emit="step")
    rules = [
        _rule(id="a", group_by=["source_host", "actor"], **one),
        _rule(id="b", input_kind="file_write", **one),
        _rule(id="s", input_kind="usb_insert", group_by=["actor"], **one),
        _rule(id="c", layer=2, input_kind="step", window=float(window),
              min_count=min_count, max_count=max_count, emit="chain"),
    ]
    g = apply_rules(PropertyGraph(), rules, events)
    node_of = {n.attributes["members"][0]: n.id
               for n in g.sequences() if n.attributes["layer"] == 1}
    got: dict[str, list] = {}
    for n in g.sequences():
        if n.attributes["rule"] == "c":
            got.setdefault(n.attributes["group"]["source_host"], []).append(
                n.attributes["members"])
    want: dict[str, list] = {}
    for host in {e.source_host for e in events}:
        # the lower nodes in (t_start, n) order: n counts rule a's nodes
        # before rule b's, and ties within a rule by the event id as a string
        lower = sorted((e for e in events if e.source_host == host
                        and e.event_type != "usb_insert"),
                       key=lambda e: (e.ts, e.event_type, str(e.id)))
        groups = window_scan_ref([e.ts for e in lower], window * NS,
                                 min_count, max_count)
        if groups:
            want[host] = [[node_of[lower[i].id] for i in grp] for grp in groups]
    assert {h: sorted(m) for h, m in got.items()} == {h: sorted(m) for h, m in want.items()}
    assert g.rule_skips == sum(e.event_type == "usb_insert" for e in events)


def test_higher_layer_t_end_spans_members():
    # u0's burst starts first and ends last, so the layer-2 run ends with
    # it, not with its last-started member; the layer-3 node spans the run
    events = [_ev(1, 0, actor="u0"), _ev(2, 10, actor="u1"),
              _ev(3, 20, actor="u1"), _ev(4, 50, actor="u0")]
    rules = [
        _rule(id="burst", group_by=["source_host", "actor"], emit="burst"),
        _rule(id="run", layer=2, input_kind="burst", min_count=2, emit="run"),
        _rule(id="campaign", layer=3, input_kind="run", min_count=1, emit="campaign"),
    ]
    g = apply_rules(PropertyGraph(), rules, events)
    ts_of = {e.id: e.ts for e in events}
    for n in g.sequences():
        a = n.attributes
        ends = [ts_of[m] if a["layer"] == 1 else g.nodes[m].attributes["t_end"]
                for m in a["members"]]
        assert a["t_end"] == max(ends), n.id
    campaign = [n for n in g.sequences() if n.attributes["layer"] == 3]
    assert [n.attributes["t_end"] for n in campaign] == [50 * NS]


# --- rule validation ---

def test_validate_rules_rejects_duplicates():
    with pytest.raises(RuleCycle):
        validate_rules([_rule(), _rule()])


def test_validate_rules_rejects_unknown_input():
    bad = _rule(id="up", layer=2, input_kind="no_such_type", emit="x")
    with pytest.raises(UnknownInputKind):
        validate_rules([bad])


def test_validate_rules_rejects_same_layer_feed():
    a = _rule(id="a", layer=2, input_kind="burst", emit="thing")
    b = _rule(id="b", layer=2, input_kind="thing", emit="other")
    with pytest.raises(RuleCycle):
        validate_rules([_rule(id="base"), a, b])


def test_rule_field_validation():
    with pytest.raises(UnknownInputKind):
        _rule(min_count=0).validate()
    with pytest.raises(UnknownInputKind):
        _rule(min_count=3, max_count=2).validate()
    with pytest.raises(UnknownInputKind):
        _rule(group_by=["hostname"]).validate()
    with pytest.raises(UnknownInputKind):
        _rule(input_kind="not_an_event_type").validate()


# --- export / import ---

def test_export_dot_deterministic(case_study, default_rules):
    _, events, _ = case_study
    g = apply_rules(PropertyGraph(), default_rules, events)
    build_graph(g, default_rules, [], {})
    a = export_graph(g, "dot")
    b = export_graph(g, "dot")
    assert a == b
    assert a.startswith("digraph")
    assert '"host:ws000"' in a


def test_export_graphml_roundtrip():
    g = _drawn()
    text = export_graph(g, "graphml")
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    graph = ET.fromstring(text).find("g:graph", ns)

    def data(el):
        return {d.get("key"): d.text for d in el.findall("g:data", ns)}

    nodes = {n.get("id"): data(n) for n in graph.findall("g:node", ns)}
    assert nodes == {nid: {"d0": n.kind, "d1": n.label} for nid, n in g.nodes.items()}
    edges = {(e.get("source"), e.get("target"), data(e)["d2"])
             for e in graph.findall("g:edge", ns)}
    assert edges == {(e.src, e.dst, e.kind) for e in g.edges()}
    assert len(graph.findall("g:edge", ns)) == g.edge_count()
    assert export_graph(g, "graphml") == text


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_graph(PropertyGraph(), "gexf")
