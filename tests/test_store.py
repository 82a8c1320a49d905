import io
import json
import os
import pickle
import re
import signal
import weakref

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
    out = list(store.query())
    assert out == sample_events


def test_append_out_of_order_ts(tmp_path):
    store = EventStore(str(tmp_path / "s"))
    store.append([_mk(1, 100), _mk(2, 200)])
    with pytest.raises(OutOfOrder):
        store.append([_mk(3, 150)])
    with pytest.raises(OutOfOrder, match="id=<16610-bit int> ts=150 regresses"):
        store.append([LogEvent(10 ** 5000, 150, "h0", "logon", "a0", {})])


def test_append_id_regression(tmp_path):
    store = EventStore(str(tmp_path / "s"))
    store.append([_mk(5, 100)])
    with pytest.raises(OutOfOrder):
        store.append([_mk(4, 200)])


def test_query_empty_store(tmp_path):
    store = EventStore(str(tmp_path / "s"))
    assert list(store.query()) == []


def test_segment_rollover(tmp_path, sample_events):
    store = EventStore(str(tmp_path / "s"), segment_events=100)
    store.append(sample_events)
    assert len(store.segments) > 1
    assert all(seg.sealed for seg in store.segments[:-1])
    assert list(store.query()) == sample_events


def test_reopen_durability(tmp_path, sample_events):
    root = str(tmp_path / "s")
    store = EventStore(root, segment_events=200)
    store.append(sample_events)
    store.close()
    again = EventStore(root, segment_events=200)
    assert list(again.query()) == sample_events
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
    return [e.id for e in store.query()]


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


def test_an_empty_last_segment_keeps_the_order_check(tmp_path):
    # the rollover opens 000001.seg, then the encoder refuses the event:
    # close() indexes that segment with no rows
    root = str(tmp_path / "s")
    store = EventStore(root, segment_events=2)
    store.append([_mk(1, 10), _mk(2, 20)])
    with pytest.raises(SchemaError):
        store.append([LogEvent(3, 30, "h0", "logon", "a0", {"x": object()})])
    store.close()
    again = EventStore(root, segment_events=2)
    assert [seg.count for seg in again.segments] == [2, 0]
    assert again.last_ts == 20
    with pytest.raises(OutOfOrder):
        again.append([_mk(3, 5)])
    assert [e.ts for e in again.query()] == [10, 20]


@pytest.mark.parametrize("bad", [
    LogEvent(4, 40, "h0", "logon", "a0", {"k": 5}),
    LogEvent(4, 0, "h0", "logon", "a0", {}),
    LogEvent(4, 40, "h0", "bogus", "a0", {}),
    LogEvent(10 ** 5000, 40, "h0", "logon", "a0", {}),
    LogEvent(4, 10 ** 5000, "h0", "logon", "a0", {}),
    LogEvent(10 ** 5000, -10 ** 5000, "h0", "logon", "a0", {}),
    LogEvent(10 ** 5000, 40, "h0", "bogus", "a0", {}),
], ids=["non-string attr", "ts 0", "unknown type", "id past the digit limit",
        "ts past the digit limit", "ts 0, both past the digit limit",
        "unknown type, id past the digit limit"])
def test_append_refuses_what_query_would_refuse(tmp_path, bad):
    root = str(tmp_path / "s")
    store = EventStore(root)
    store.append([_mk(1, 10), _mk(2, 20)])
    with pytest.raises(SchemaError):
        store.append([bad])
    assert [e.id for e in store.query()] == [1, 2]
    assert store.append([_mk(3, 30)]) == 1
    store.close()
    assert [e.id for e in EventStore(root, create=False).query()] == [1, 2, 3]
    # nor does a new store take it as its first event
    new = EventStore(str(tmp_path / "new"))
    with pytest.raises(SchemaError):
        new.append([bad])
    assert list(new.query()) == []


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


def test_store_directory_is_made_by_its_first_write(tmp_path):
    root = tmp_path / "s"
    store = EventStore(str(root))
    assert not root.exists()
    store.close()  # an empty store is a store
    assert EventStore(str(root), create=False).count() == 0


@pytest.mark.parametrize("premade", [False, True])
def test_failed_first_append_leaves_no_store(tmp_path, sample_events, premade):
    # a first batch that fails midway, over three segments, takes its
    # files and the directories it made with it; a rerun then succeeds
    root = tmp_path / "a" / "b" / "s"
    if premade:
        root.mkdir(parents=True)

    def batch():
        yield from sample_events[:5]
        raise DecodeError("line 6: invalid JSON")
    store = EventStore(str(root), segment_events=2)
    with pytest.raises(DecodeError):
        store.append(batch())
    if premade:
        assert os.listdir(root) == []
    else:
        assert os.listdir(tmp_path) == []
    assert store.count() == 0
    assert store.append(sample_events[:5]) == 5
    store.close()
    assert _ids(EventStore(str(root), create=False)) == [e.id for e in sample_events[:5]]


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
    expected = [e for e in store.query() if accepted(e)]
    scanned = store.rows_scanned
    got = [e for e in store.query(prefilter=line_prefilter(seq_rules))
           if accepted(e)]
    assert got == expected
    assert store.rows_scanned == 2 * scanned == 2 * len(events)


def test_query_counts_a_consumer_that_stops_early(tmp_path):
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 8))
    rows = store.query(prefilter=lambda line: '"id":2,' not in line)
    assert [next(rows).id, next(rows).id, next(rows).id, next(rows).id] == [1, 3, 4, 5]
    rows.close()
    assert (store.rows_scanned, store.rows_skipped) == (5, 1)


@pytest.mark.parametrize("cuts", [[], [3], [3, 7], [1, 2, 9], [0, 10], [6, 6]])
def test_line_ranges_concatenate_to_one_query(tmp_path, cuts):
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 11))
    store.close()
    bounds = [0, *cuts, 10]
    got = [e.id for a, b in zip(bounds, bounds[1:])
           for e in store.query(lines=range(a, b))]
    assert got == [e.id for e in store.query()] == list(range(1, 11))
    assert store.rows_scanned == 2 * 10


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
    got = list(store.map_parts(list))
    assert len(got) == n and all(got)
    assert store.rows_scanned == 10
    assert [e for part in got for e in part] == list(store.query())
    with pytest.raises(ChildProcessError):  # no worker is left behind
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_map_parts_prefilter_counts_as_one_query(tmp_path, parts, n):
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 11))
    store.close()
    odd = re.compile(r'^\{"id":\d*[13579],')
    parts(n)
    got = [e.id for part in store.map_parts(list, odd.match) for e in part]
    assert got == [1, 3, 5, 7, 9]
    assert (store.rows_scanned, store.rows_skipped) == (10, 5)


def test_map_parts_closed_early_reaps_its_workers(tmp_path, parts):
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 11))
    store.close()
    parts(4)
    results = store.map_parts(list)
    assert [e.id for e in next(results)] == [1, 2]
    results.close()
    with pytest.raises(ChildProcessError):  # every worker was stopped and reaped
        os.waitpid(-1, os.WNOHANG)
    assert store.rows_scanned == 2


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
        list(store.query())
    parts(n)
    with pytest.raises(DecodeError, match=re.escape(expected)):
        list(store.map_parts(list))


class _Box:
    """A part's result. Loaded in the parent, from a worker, it records how
    many of the boxes in ``alive`` (weakrefs the consumer appends) are still
    alive."""

    alive: list = []
    held: list = []

    def __init__(self, ids):
        self.ids = ids

    def __setstate__(self, state):
        _Box.held.append(sum(ref() is not None for ref in _Box.alive))
        self.__dict__.update(state)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_map_parts_drops_a_result_before_the_next_is_loaded(tmp_path, monkeypatch,
                                                            parts, n):
    # the parent never holds two parts' results at once: detect's and
    # train's peak RSS rest on it
    monkeypatch.setattr(_Box, "alive", [])
    monkeypatch.setattr(_Box, "held", [])
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    store.append(_mk(i, 100 * i) for i in range(1, 11))
    store.close()
    parts(n)
    ids = []
    for box in store.map_parts(lambda events: _Box([e.id for e in events])):
        ids += box.ids
        _Box.alive.append(weakref.ref(box))
        del box
        if ids[-1] == 10:  # the last worker was reaped before its result is used
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    assert ids == list(range(1, 11))
    assert _Box.held == [0] * (n - 1)


def test_in_parts_drops_an_item_before_the_next_is_loaded(monkeypatch):
    # a write's worker sends many batches
    monkeypatch.setattr(_Box, "alive", [])
    monkeypatch.setattr(_Box, "held", [])
    monkeypatch.setattr(store_module, "_usable_cpus", lambda: 3)
    for box in store_module._in_parts(range(5), lambda p: (_Box([p, j]) for j in range(3))):
        _Box.alive.append(weakref.ref(box))
        del box
    assert _Box.held == [0] * 9  # three items from each of the workers of parts 1, 2 and 4


def _one_pass(n):
    """The items of parts ``0 .. n - 1`` in the ``_in_parts`` tests."""
    return [(p, j) for p in range(n) for j in range(3)]


def _run_in_parts(n):
    """``_in_parts`` over ``n`` parts of three items each, and the parts
    whose ``work`` ran in the parent."""
    parent, here = os.getpid(), []

    def work(part):
        if os.getpid() == parent:
            here.append(part)
        return ((part, j) for j in range(3))
    return list(store_module._in_parts(range(n), work)), here


class _NoEndFrame(io.BufferedWriter):
    """A worker's pipe whose child dies by SIGKILL where it would write the
    end frame, after its last item."""

    def write(self, data):
        if bytes(data) == bytes(8):
            os.kill(os.getpid(), signal.SIGKILL)
        return super().write(data)


@pytest.mark.parametrize("end_frame", ["sent", "lost"])
@pytest.mark.parametrize("cpus", range(1, 5))
@pytest.mark.parametrize("n", range(1, 8))
def test_in_parts_yields_one_pass(monkeypatch, n, cpus, end_frame):
    monkeypatch.setattr(store_module, "_usable_cpus", lambda: cpus)
    if end_frame == "lost":
        parent = os.getpid()

        def open_pipe(file, mode="r", *args, **kwargs):
            if os.getpid() != parent and mode == "wb":
                return _NoEndFrame(io.FileIO(file, "w"))
            return open(file, mode, *args, **kwargs)
        monkeypatch.setattr(store_module, "open", open_pipe, raising=False)
    got, here = _run_in_parts(n)
    assert got == _one_pass(n)
    # a worker's part runs here only when its end frame did not arrive:
    # every item arrived, so none is yielded twice
    assert here == list(range(0, n, cpus) if end_frame == "sent" else range(n))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("n,cpus", [(2, 2), (5, 2), (7, 4)])
def test_in_parts_runs_a_killed_workers_part_here_once(monkeypatch, n, cpus, k):
    # the worker of the last part that has one dies by SIGKILL once it has
    # sent k of its three items; the parent yields only the items past them
    victim = max(p for p in range(n) if p % cpus)
    parent, dumps = os.getpid(), pickle.dumps

    def dumps_or_die(item, *args):
        if os.getpid() != parent and item == (victim, k):
            os.kill(os.getpid(), signal.SIGKILL)
        return dumps(item, *args)
    monkeypatch.setattr(pickle, "dumps", dumps_or_die)
    monkeypatch.setattr(store_module, "_usable_cpus", lambda: cpus)
    got, here = _run_in_parts(n)
    assert got == _one_pass(n)
    assert here == sorted([*range(0, n, cpus), victim])


B = store_module.WRITE_BATCH_LINES


def _write_reference(root, events, segment_events):
    """The files a store of ``events`` holds, written line by line."""
    os.makedirs(root)
    segments = []
    for lo in range(0, len(events), segment_events):
        part = events[lo:lo + segment_events]
        name = f"{len(segments):06d}.seg"
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            for e in part:
                fh.write(encode_event(e) + "\n")
        segments.append({"path": name, "min_ts": part[0].ts, "max_ts": part[-1].ts,
                         "min_id": part[0].id, "max_id": part[-1].id, "count": len(part),
                         "sealed": True, "bytes": os.path.getsize(os.path.join(root, name))})
    segments[-1]["sealed"] = False
    with open(os.path.join(root, "index.json"), "w", encoding="utf-8") as fh:
        json.dump({"segments": segments}, fh)


def _files(root):
    return {name: (root / name).read_bytes() for name in sorted(os.listdir(root))}


@pytest.mark.parametrize("segment_events", [3, B - 1, B, B + 1])
@pytest.mark.parametrize("k", [1, B - 1, B, B + 1, 2 * B])
def test_append_fault_at_event_k_keeps_the_valid_prefix(tmp_path, monkeypatch,
                                                        segment_events, k):
    # the bytes, not their durability, are under test: segments of 3 rows
    # would cost thousands of fsyncs
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    # two committed events, then a batch whose k-th event regresses in ts
    committed = [_mk(1, 10), _mk(2, 20)]
    prefix = [_mk(i, 10 * i) for i in range(3, k + 2)]
    batch = prefix + [_mk(k + 2, 5)]
    _write_reference(str(tmp_path / "ref"), committed + prefix, segment_events)
    expected = _files(tmp_path / "ref")

    def faulted(name):
        store = EventStore(str(tmp_path / name), segment_events=segment_events)
        store.append(committed)
        with pytest.raises(OutOfOrder):
            store.append(iter(batch))
        return store

    # close() commits exactly the valid prefix
    store = faulted("closed")
    store.close()
    assert _files(tmp_path / "closed") == expected

    # a process that dies instead leaves the prefix's rows on disk, but a
    # reopen drops them: appending the prefix again must not regress
    store = faulted("died")
    store._fh.close()
    assert _ids(EventStore(str(tmp_path / "died"), create=False)) == [1, 2]
    again = EventStore(str(tmp_path / "died"), segment_events=segment_events)
    assert again.append(prefix) == k - 1
    again.close()
    assert _files(tmp_path / "died") == expected


def _closed_store(path, events, segment_events, committed=()):
    """The files of a store of ``committed`` then ``events``, appended as
    given, and the exception the second append raised, if any."""
    store = EventStore(str(path), segment_events=segment_events)
    store.append(list(committed))
    try:
        store.append(events)
        raised = None
    except Exception as exc:
        raised = (type(exc), str(exc))
    store.close()
    return _files(path), raised


@pytest.mark.parametrize("segment_events", [3, B - 1, B, B + 1])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("max_part", [store_module.MAX_WRITE_PART_LINES, 5],
                         ids=["one group", "many groups"])
@pytest.mark.parametrize("n_committed", [0, 2])
def test_split_write_equals_one_pass(tmp_path, monkeypatch, parts, segment_events, n,
                                     max_part, n_committed):
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # see the fault-at-event-k test
    monkeypatch.setattr(store_module, "MAX_WRITE_PART_LINES", max_part)
    committed = [_mk(i, 10 * i) for i in range(1, n_committed + 1)]
    # three segments or batches and a short one; 4,000 segments of 3 rows
    # would cost seconds
    events = [_mk(i, 10 * i) for i in range(n_committed + 1, 3 * min(segment_events, B) + 50)]
    _write_reference(str(tmp_path / "ref"), committed + events, segment_events)
    # the rows of each write call, in order
    writes, write = [], EventStore._write
    monkeypatch.setattr(EventStore, "_write",
                        lambda self, *batch: writes.append(batch[1:]) or write(self, *batch))
    _closed_store(tmp_path / "one", iter(events), segment_events, committed)
    one_pass, writes[:] = writes[:], []
    parts(n)
    assert len(EventStore(str(tmp_path / "x"), segment_events)._write_parts(events)) > 1
    got, raised = _closed_store(tmp_path / "split", events, segment_events, committed)
    assert raised is None
    assert got == _files(tmp_path / "ref")
    assert writes == one_pass
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


_FAULTS = {  # an event that one pass refuses, at id i and ts 10 * i
    "regresses": lambda i: _mk(i, 5),
    "encoder refuses": lambda i: LogEvent(i, 10 * i, "h0", "logon", "a0", {"k": 5}),
    "too many digits": lambda i: LogEvent(10 ** 5000, 10 * i, "h0", "logon", "a0", {}),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("segment_events", [3, B])
@pytest.mark.parametrize("where", ["part 0", "middle part", "first of a worker part",
                                   "last part", "last event"])
def test_split_write_fault_equals_one_pass(tmp_path, monkeypatch, parts, fault,
                                           segment_events, where):
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    committed = [_mk(1, 10), _mk(2, 20)]
    batch = [_mk(i, 10 * i) for i in range(3, 8 * min(10 * segment_events, B) + 3)]
    parts(4)
    store = EventStore(str(tmp_path / "x"), segment_events=segment_events)
    store.append(committed)
    rows = [rows for rows, _ in store._write_parts(batch)]
    assert len(rows) == 4
    at = {"part 0": 1, "middle part": (rows[1].start + rows[1].stop) // 2,
          "first of a worker part": rows[2].start,
          "last part": (rows[3].start + rows[3].stop) // 2, "last event": len(batch) - 1}[where]
    batch[at] = _FAULTS[fault](at + 3)
    parts(1)
    one_pass = _closed_store(tmp_path / "one", iter(batch), segment_events, committed)
    assert one_pass[1] is not None
    parts(4)
    assert _closed_store(tmp_path / "split", batch, segment_events, committed) == one_pass


@pytest.mark.parametrize("k", [1, 2, 5])
def test_split_write_survives_a_killed_worker(tmp_path, monkeypatch, parts, k):
    # the worker's part holds 5 batches; it dies by SIGKILL once it has
    # sent k - 1 of them, and the parent encodes the rest itself
    import pickle
    import signal

    monkeypatch.setattr(os, "fsync", lambda fd: None)
    parent, dumps, dumped, killed = os.getpid(), pickle.dumps, [], tmp_path / "killed"

    def dumps_or_die(*args):
        if os.getpid() != parent:
            dumped.append(1)
            if len(dumped) == k:
                killed.touch()
                os.kill(os.getpid(), signal.SIGKILL)
        return dumps(*args)
    monkeypatch.setattr(pickle, "dumps", dumps_or_die)
    events = [_mk(i, 10 * i) for i in range(1, 4 * B)]
    _write_reference(str(tmp_path / "ref"), events, B + 1)
    parts(2)
    assert _closed_store(tmp_path / "split", events, B + 1) == (_files(tmp_path / "ref"), None)
    assert killed.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forks", [0, 1], ids=["no fork", "fork fails after one worker"])
@pytest.mark.parametrize("fault", [None, 3 * B + 5])
def test_split_write_without_workers(tmp_path, monkeypatch, parts, forks, fault):
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    events = [_mk(i, 10 * i) for i in range(1, 4 * B)]
    if fault is not None:
        events[fault] = _mk(fault + 1, 5)
    one_pass = _closed_store(tmp_path / "one", iter(events), B - 1)
    if forks:
        fork, calls = os.fork, []

        def fork_once():
            calls.append(1)
            if len(calls) > forks:
                raise OSError("no process to spare")
            return fork()
        monkeypatch.setattr(os, "fork", fork_once)
    else:
        monkeypatch.delattr(os, "fork")
    parts(4)
    assert _closed_store(tmp_path / "split", events, B - 1) == one_pass


def test_split_write_reaps_its_workers_when_a_write_fails(tmp_path, monkeypatch, parts):
    # a write call raises, as on a full disk, before the workers' batches
    # are collected; the error's traceback keeps the append's frame alive
    calls, write = [], EventStore._write

    def write_or_fail(self, *batch):
        calls.append(1)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return write(self, *batch)
    monkeypatch.setattr(EventStore, "_write", write_or_fail)
    parts(4)
    store = EventStore(str(tmp_path / "s"), segment_events=3)
    with pytest.raises(OSError, match="No space left") as raised:
        store.append([_mk(i, 10 * i) for i in range(1, 20)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert raised.traceback  # still held
    assert not (tmp_path / "s").exists()


_ILL_TYPED = {  # events whose ts, id or type the writer's checks cannot compare
    "str ts": lambda i: LogEvent(i, "5", "h0", "logon", "a0", {}),
    "None ts": lambda i: LogEvent(i, None, "h0", "logon", "a0", {}),
    "str id": lambda i: LogEvent("1", 10 * i, "h0", "logon", "a0", {}),
    "list type": lambda i: LogEvent(i, 10 * i, "h0", ["logon"], "a0", {}),
}


@pytest.mark.parametrize("bad", sorted(_ILL_TYPED))
@pytest.mark.parametrize("cpus", [1, 4], ids=["one part", "split"])
def test_append_refuses_ill_typed_events(tmp_path, monkeypatch, parts, bad, cpus):
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    root = str(tmp_path / "s")
    store = EventStore(root)
    store.append([_mk(1, 10), _mk(2, 20)])
    batch = [_mk(i, 10 * i) for i in range(3, 4 * B)]
    parts(4)
    at = store._write_parts(batch)[2][0].start  # the first event of a worker's part
    batch[at] = _ILL_TYPED[bad](at + 3)
    parts(cpus)
    with pytest.raises(SchemaError):
        store.append(batch)
    store.close()
    # the store holds the committed events and the valid prefix, and takes more
    again = EventStore(root, create=False)
    assert [e.id for e in again.query()] == list(range(1, at + 3))
    assert again.append(batch[at + 1:]) == len(batch) - at - 1
    again.close()
    assert [e.ts for e in EventStore(root, create=False).query()] == \
        [10 * i for i in range(1, len(batch) + 3) if i != at + 3]


def _noise_expansion(factor):
    from chaintrace.simulate import expand_with_noise

    base, _ = simulate(SimConfig(seed=3, users=10))
    return expand_with_noise(base, factor, 5)


@pytest.mark.parametrize("segment_events", [999, B + 1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_append_of_an_expansion_writes_what_its_events_write(tmp_path, monkeypatch, parts,
                                                              segment_events, n):
    # an expansion is appended through its canonical lines, a list of its
    # events through encode_event; both are split into n parts
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    x = _noise_expansion(200)
    committed, rest = list(x[:100]), x[100:]
    parts(n)
    probe = EventStore(str(tmp_path / "x"), segment_events)
    probe.append(committed)
    assert len(probe._write_parts(rest)) == n
    got = _closed_store(tmp_path / "lines", rest, segment_events, committed)
    assert got == _closed_store(tmp_path / "events", list(rest), segment_events, committed)
    assert got[1] is None
    assert len(EventStore(str(tmp_path / "lines"), create=False).segments) > n


_KILL_POINTS = {  # where the writer dies: (owner, name, call)
    "1st _write": (EventStore, "_write", 1),
    "2nd _write": (EventStore, "_write", 2),
    "3rd _write": (EventStore, "_write", 3),
    "_sync_active": (EventStore, "_sync_active", 1),
    "_seal_active": (EventStore, "_seal_active", 1),
    "index os.replace": (os, "replace", 1),
}


@pytest.mark.parametrize("at", list(_KILL_POINTS))
@pytest.mark.parametrize("path", ["lines", "events"])
def test_a_writer_killed_in_an_append_leaves_its_last_committed_append(tmp_path, path, at):
    x = _noise_expansion(3)
    first, second = x[:40], x[40:80]
    feed = (lambda view: view) if path == "lines" else list
    root = str(tmp_path / "s")
    pid = os.fork()
    if pid == 0:  # the writer: one append, then SIGKILL inside the next
        try:
            store = EventStore(root, segment_events=7)
            store.append(feed(first))
            owner, name, k = _KILL_POINTS[at]
            calls, orig = [], getattr(owner, name)

            def die_at_call_k(*args, **kwargs):
                calls.append(1)
                if len(calls) == k:
                    os.kill(os.getpid(), signal.SIGKILL)
                return orig(*args, **kwargs)
            setattr(owner, name, die_at_call_k)
            store.append(feed(second))
        finally:
            os._exit(1)  # not killed: the probe missed its point
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    store = EventStore(root, segment_events=7)
    assert list(EventStore(root, create=False).query()) == list(first)
    assert store.append(feed(second)) == len(second)
    store.close()
    assert list(EventStore(root, create=False).query()) == list(x[:80])
