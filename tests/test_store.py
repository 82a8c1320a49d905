import json
import math
import os
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from chaintrace import store as store_module
from chaintrace.errors import DecodeError, IoFailure, OutOfOrder, SchemaError
from chaintrace.events import LogEvent, encode_event
from chaintrace.graph import SequenceRule, line_prefilter
from chaintrace.simulate import SimConfig, simulate
from chaintrace.store import EventStore


def _mk(i, ts, etype="logon", host="h0", actor="a0"):
    return LogEvent(i, ts, host, etype, actor, {"session_id": f"S{i}"})


@pytest.fixture
def sample_events():
    events, _ = simulate(SimConfig(seed=3, users=10, duration=600, attack=False))
    return events


def test_append_empty(tmp_path):
    store = EventStore(str(tmp_path / "s"))
    assert store.append([]) == 0
    assert store.count() == 0


def test_append_query_identity(tmp_path, sample_events):
    store = EventStore(str(tmp_path / "s"))
    assert store.append(sample_events) == len(sample_events)
    out = list(store.query_all())
    assert out == sample_events


def test_append_out_of_order_ts(tmp_path):
    store = EventStore(str(tmp_path / "s"))
    store.append([_mk(1, 100), _mk(2, 200)])
    with pytest.raises(OutOfOrder):
        store.append([_mk(3, 150)])


def test_append_id_regression(tmp_path):
    store = EventStore(str(tmp_path / "s"))
    store.append([_mk(5, 100)])
    with pytest.raises(OutOfOrder):
        store.append([_mk(4, 200)])


def test_query_empty_store(tmp_path):
    store = EventStore(str(tmp_path / "s"))
    assert list(store.query(1, 10)) == []


def test_query_point_window(tmp_path):
    store = EventStore(str(tmp_path / "s"))
    store.append([_mk(1, 100), _mk(2, 200), _mk(3, 300)])
    out = list(store.query(200, 201))
    assert [e.id for e in out] == [2]


def test_query_requires_valid_range(tmp_path):
    store = EventStore(str(tmp_path / "s"))
    with pytest.raises(ValueError):
        list(store.query(10, 10))


def test_segment_rollover(tmp_path, sample_events):
    store = EventStore(str(tmp_path / "s"), segment_events=100)
    store.append(sample_events)
    assert len(store.segments) > 1
    assert all(seg.sealed for seg in store.segments[:-1])
    assert list(store.query_all()) == sample_events


def test_split_point_concatenation(tmp_path, sample_events):
    store = EventStore(str(tmp_path / "s"))
    store.append(sample_events)
    t0 = sample_events[0].ts
    t2 = sample_events[-1].ts + 1
    whole = list(store.query(t0, t2))
    for frac in (0.25, 0.5, 0.9):
        t1 = t0 + int((t2 - t0) * frac)
        left = list(store.query(t0, t1))
        right = list(store.query(t1, t2))
        assert left + right == whole


def test_reopen_durability(tmp_path, sample_events):
    root = str(tmp_path / "s")
    store = EventStore(root, segment_events=200)
    store.append(sample_events)
    store.close()
    again = EventStore(root, segment_events=200)
    assert list(again.query_all()) == sample_events
    # appending continues after reopen
    last = sample_events[-1]
    again.append([_mk(last.id + 1, last.ts + 10)])
    assert again.count() == len(sample_events) + 1


def test_reopen_without_close(tmp_path, sample_events):
    # index is rewritten on every append, so a plain process exit is safe
    root = str(tmp_path / "s")
    store = EventStore(root)
    store.append(sample_events)
    del store
    again = EventStore(root)
    assert again.count() == len(sample_events)


def _ids(store):
    return [e.id for e in store.query_all()]


def test_reopen_drops_torn_batch(tmp_path):
    root = str(tmp_path / "s")
    store = EventStore(root)
    store.append([_mk(1, 10), _mk(2, 20)])
    store.close()
    seg = os.path.join(root, "000000.seg")
    committed = os.path.getsize(seg)
    with open(seg, "a", encoding="utf-8") as fh:  # a batch the index never saw
        fh.write(encode_event(_mk(3, 30)) + "\n")
    torn = os.path.getsize(seg)
    assert _ids(EventStore(root, create=False)) == [1, 2]
    assert os.path.getsize(seg) == torn  # readers never truncate
    again = EventStore(root)
    again.append([_mk(3, 30), _mk(4, 40)])
    assert _ids(again) == [1, 2, 3, 4]
    assert os.path.getsize(seg) > committed


def test_index_without_byte_lengths_loads(tmp_path):
    root = str(tmp_path / "s")
    store = EventStore(root)
    store.append([_mk(1, 10), _mk(2, 20)])
    store.close()
    index = os.path.join(root, "index.json")
    with open(index, encoding="utf-8") as fh:
        payload = json.load(fh)
    for seg in payload["segments"]:
        del seg["bytes"]
    with open(index, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    again = EventStore(root)
    again.append([_mk(3, 30)])
    assert _ids(again) == [1, 2, 3]


@pytest.mark.parametrize("content", [b"not json", b"\xff", b"[]", b'{"segments": 5}',
                                     b'{"segments": [{"x": 1}]}', "count", "path"])
def test_damaged_index_is_schema_error(tmp_path, content):
    root = tmp_path / "s"
    store = EventStore(str(root))
    store.append([_mk(1, 10), _mk(2, 20)])
    store.close()
    index = root / "index.json"
    if isinstance(content, str):  # one segment member of the wrong type
        payload = json.loads(index.read_text())
        payload["segments"][0][content] = {"count": -2, "path": 7}[content]
        content = json.dumps(payload).encode()
    index.write_bytes(content)
    for create in (True, False):
        with pytest.raises(SchemaError, match="store index"):
            EventStore(str(root), create=create)


@pytest.mark.parametrize("member,value", [("count", -2), ("count", "2"), ("path", 7),
                                          ("sealed", 0), ("bytes", True)])
def test_damaged_index_error_names_the_member(tmp_path, member, value):
    root = tmp_path / "s"
    store = EventStore(str(root))
    store.append([_mk(1, 10), _mk(2, 20)])
    store._seal_active()
    store.append([_mk(3, 30)])
    store.close()
    index = root / "index.json"
    payload = json.loads(index.read_text())
    payload["segments"][1][member] = value
    index.write_text(json.dumps(payload))
    with pytest.raises(SchemaError) as exc:
        EventStore(str(root))
    assert f"segments[1].{member}:" in str(exc.value)
    assert "StoreSegment" not in str(exc.value)


class _Crash(Exception):
    pass


@given(
    committed=st.integers(min_value=1, max_value=5),
    torn=st.integers(min_value=1, max_value=5),
    more=st.integers(min_value=1, max_value=5),
    segment_events=st.sampled_from([2, 3, 100]),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_append_after_torn_batch(tmp_path_factory, committed, torn, more,
                                 segment_events, cut):
    root = str(tmp_path_factory.mktemp("s"))
    store = EventStore(root, segment_events=segment_events)
    store.append(_mk(i, 10 * i) for i in range(1, committed + 1))

    def segments():
        return sorted(f for f in os.listdir(root) if f.endswith(".seg"))

    sizes = {f: os.path.getsize(os.path.join(root, f)) for f in segments()}

    def crashing_batch():
        yield from (_mk(i, 10 * i) for i in range(committed + 1, committed + torn + 1))
        raise _Crash

    with pytest.raises(_Crash):
        store.append(crashing_batch())
    store._fh.close()  # the process dies: its rows reach the disk, the index does not
    # keep a prefix of the uncommitted bytes, cut at any offset
    extra = {f: os.path.getsize(os.path.join(root, f)) - sizes.get(f, 0)
             for f in segments()}
    keep = int(cut * sum(extra.values()))
    for f in segments():
        kept = min(extra[f], keep)
        keep -= kept
        os.truncate(os.path.join(root, f), sizes.get(f, 0) + kept)

    assert _ids(EventStore(root, create=False)) == list(range(1, committed + 1))
    again = EventStore(root, segment_events=segment_events)
    last = committed + more
    again.append(_mk(i, 10 * i) for i in range(committed + 1, last + 1))
    assert _ids(again) == list(range(1, last + 1))
    assert _ids(EventStore(root, create=False)) == list(range(1, last + 1))


def test_open_existing_refuses_missing_store(tmp_path):
    root = tmp_path / "nosuch"
    with pytest.raises(IoFailure):
        EventStore(str(root), create=False)
    assert not root.exists()
    tmp_path.joinpath("empty").mkdir()
    with pytest.raises(IoFailure):
        EventStore(str(tmp_path / "empty"), create=False)


# Fragments that collide with the canonical framing: quotes, backslashes,
# the type member, a rule's where pair, non-ASCII text and the empty string.
_TRICKY = ['"', "\\", '"type":"', '"via":"direct"', "via", "direct", ":", ",",
           "}}", "\u00e9", "\u2603", "logon", "http_request", ""]
_text = st.one_of(
    st.lists(st.sampled_from(_TRICKY), max_size=4).map("".join),
    st.text(max_size=4),
)
_keys = st.one_of(st.sampled_from(["via", "type", 'x"via', ""]), _text)
_types = st.sampled_from(["http_request", "logon", "file_read"])
_where_values = st.one_of(_text, st.sampled_from(["direct", 443, None]))


@given(
    rules=st.lists(st.tuples(_types, st.dictionaries(_keys, _where_values, max_size=2)),
                   max_size=4),
    events=st.lists(st.tuples(_types, _text, _text,
                              st.dictionaries(_keys, _text, max_size=3)),
                    max_size=8),
)
@example(
    rules=[("http_request", {"via": "direct"})],
    events=[
        ("http_request", '"type":"logon"', "a",
         {"note": '"type":"logon"', "type": "logon", "via": "direct"}),
        ("logon", "h", "a", {"note": '"type":"http_request","via":"direct"'}),
        ("logon", "h", "a", {"via": "direct"}),
    ],
)
@example(
    rules=[("logon", {"note": "\u00e9\u2603"})],
    events=[("logon", "h", "a", {"note": "\u00e9\u2603"})],
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_prefilter_equals_postfilter(tmp_path_factory, rules, events):
    seq_rules = [
        SequenceRule(id=f"r{i}", layer=1, input_kind=kind, where=where,
                     group_by=[], window=60.0, min_count=1, emit=f"s{i}")
        for i, (kind, where) in enumerate(rules)
    ]

    def accepted(e):
        return any(
            r.input_kind == e.event_type
            and all(e.attributes.get(k) == v for k, v in r.where.items())
            for r in seq_rules
        )

    store = EventStore(str(tmp_path_factory.mktemp("s")))
    store.append(LogEvent(i, 1000 + i, host, etype, actor, attrs)
                 for i, (etype, host, actor, attrs) in enumerate(events, 1))
    expected = [e for e in store.query_all() if accepted(e)]
    scanned = store.rows_scanned
    got = [e for e in store.query_all(prefilter=line_prefilter(seq_rules))
           if accepted(e)]
    assert got == expected
    assert store.rows_scanned == 2 * scanned == 2 * len(events)


def test_query_counts_a_consumer_that_stops_early(tmp_path):
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 8))
    rows = store.query_all(prefilter=lambda line: '"id":2,' not in line)
    assert [next(rows).id, next(rows).id, next(rows).id, next(rows).id] == [1, 3, 4, 5]
    rows.close()
    assert (store.rows_scanned, store.rows_skipped) == (5, 1)
    assert [e.id for e in store.query(200, 500)] == [2, 3, 4]
    # the query stops at the first row past t1, in the second segment
    assert (store.rows_scanned, store.rows_skipped) == (5 + 5, 1)


@pytest.mark.parametrize("cuts", [[], [3], [3, 7], [1, 2, 9], [0, 10], [6, 6]])
def test_line_ranges_concatenate_to_one_query(tmp_path, cuts):
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 11))
    store.close()
    bounds = [0, *cuts, 10]
    got = [e.id for a, b in zip(bounds, bounds[1:])
           for e in store.query(-math.inf, math.inf, lines=range(a, b))]
    assert got == [e.id for e in store.query_all()] == list(range(1, 11))
    assert store.rows_scanned == 2 * 10


def test_line_range_stops_past_t1(tmp_path):
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 11))
    store.close()
    # rows 4-9 hold ts 400-900: the range stops at the row of ts 600
    assert [e.id for e in store.query(1, 600, lines=range(3, 9))] == [4, 5]
    assert store.rows_scanned == 3


@pytest.fixture
def parts(monkeypatch):
    """Force ``n`` parts of at least one line onto ``map_parts``."""
    def force(n):
        monkeypatch.setattr(store_module, "MIN_PART_LINES", 1)
        monkeypatch.setattr(store_module, "_usable_cpus", lambda: n)
    return force


@pytest.mark.parametrize("n", range(1, 11))
def test_map_parts_concatenate_to_query_all(tmp_path, parts, n):
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 11))
    store.close()
    parts(n)
    got = store.map_parts(list)
    assert len(got) == n and all(got)
    assert store.rows_scanned == 10
    assert [e for part in got for e in part] == list(store.query_all())
    with pytest.raises(ChildProcessError):  # no worker is left behind
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("ts", [1 << 62, 350], ids=["past the store", "before its segment"])
@pytest.mark.parametrize("n", [1, 4])
def test_full_read_refuses_a_ts_outside_its_segment(tmp_path, parts, ts, n):
    # segments of 3 rows; row 5, the second of 000001.seg, is indexed in
    # [400, 600]; with 4 parts it is read by part 1, in a worker
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 11))
    store.close()
    seg = tmp_path / "s" / "000001.seg"
    lines = seg.read_text().splitlines(keepends=True)
    lines[1] = encode_event(_mk(5, ts)) + "\n"
    seg.write_text("".join(lines))
    expected = f"{seg}: line 2: ts {ts} lies outside the segment's indexed range [400, 600]"
    with pytest.raises(DecodeError, match=re.escape(expected)):
        list(store.query_all())
    parts(n)
    with pytest.raises(DecodeError, match=re.escape(expected)):
        store.map_parts(list)
    # a range query that ends before the row never reads it
    assert [e.id for e in store.query(1, 400)] == [1, 2, 3]
