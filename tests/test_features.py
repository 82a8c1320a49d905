import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaintrace.errors import EmptyInput, EmptyTrainingSet, LengthMismatch
from chaintrace import features
from chaintrace.events import LogEvent
from chaintrace.features import (
    FEATURE_NAMES,
    SOURCE_SETS,
    ExtractionStats,
    accumulate_part,
    evaluate,
    extract_features,
    label_windows,
    matrix_of,
    merge_parts,
    standardize,
)
from oracles import extract_features_ref

NS = 1_000_000_000


def _ev(i, ts_s, etype, actor="alice", host="ws000", **attrs):
    return LogEvent(i, int(ts_s * NS), host, etype, actor,
                    {k: str(v) for k, v in attrs.items()})


def test_feature_names_fixed():
    assert len(FEATURE_NAMES) == 10
    assert FEATURE_NAMES[0] == "logon_count"
    assert SOURCE_SETS["combined"] == tuple(range(10))
    assert SOURCE_SETS["windows"] == (0, 1, 2, 3)
    assert SOURCE_SETS["firewall"] == (4, 5, 6, 7)
    assert SOURCE_SETS["fileaudit"] == (8, 9)


def test_counts_single_window():
    events = [
        _ev(1, 0, "logon", session_id="S1"),
        _ev(2, 10, "logon_failed"),
        _ev(3, 20, "fw_conn", dst_ip="1.1.1.1", dst_port=443,
            verdict="allow", bytes_out=100),
        _ev(4, 30, "fw_conn", dst_ip="2.2.2.2", dst_port=443,
            verdict="deny", bytes_out=0),
        _ev(5, 40, "http_request", dst_ip="1.1.1.1", dst_port=443,
            method="GET", via="proxy", bytes_out=250),
        _ev(6, 50, "file_read", path="a.docx", ext="docx"),
        _ev(7, 60, "file_write", path="b.txt", ext="txt"),
        _ev(8, 100, "logoff", session_id="S1"),
    ]
    vectors = extract_features(events)
    assert len(vectors) == 1
    v = vectors[0].values
    expected = {
        "logon_count": 1, "logon_failed_count": 1, "logoff_count": 1,
        "mean_session_seconds": 100.0, "fw_allow_count": 1,
        "fw_deny_count": 1, "bytes_out": 350, "distinct_dst_count": 2,
        "file_read_count": 1, "file_write_count": 1,
    }
    for name, want in expected.items():
        assert v[FEATURE_NAMES.index(name)] == want


def test_session_attributed_to_logoff_window():
    events = [
        _ev(1, 100, "logon", session_id="S1"),
        _ev(2, 4000, "logoff", session_id="S1"),  # next hour window
    ]
    vectors = extract_features(events, window=3600)
    assert len(vectors) == 2
    first, second = vectors
    assert first.values[3] == 0.0
    assert second.values[3] == pytest.approx(3900.0)


def test_unmatched_logoff_counted():
    stats = ExtractionStats()
    extract_features([_ev(1, 0, "logoff", session_id="S9")], stats=stats)
    assert stats.unmatched_logoffs == 1


def test_bad_numeric_attr_counted():
    stats = ExtractionStats()
    vectors = extract_features(
        [_ev(1, 0, "fw_conn", dst_ip="1.1.1.1", dst_port=443,
             verdict="allow", bytes_out="oops")],
        stats=stats,
    )
    assert stats.bad_numeric_attrs == 1
    assert vectors[0].values[6] == 0


@pytest.mark.parametrize("values,total,bad", [
    # each addend rounded to float would lose both 1s
    ([2**53, 1, 1], float(2**53 + 2), 0),
    ([2**63 - 1, -(2**63)], -1.0, 0),
    ([2**63, 5], 5.0, 1),
    ([-(2**63) - 1, 5], 5.0, 1),
    (["9" * 401, 7], 7.0, 1),  # once an OverflowError out of the sum
    (["9" * 5000, 7], 7.0, 1),  # past the int-string digit limit
    (["12x", "", 3], 3.0, 2),
])
def test_bytes_out_summed_exactly(values, total, bad):
    stats = ExtractionStats()
    events = [_ev(i, i, "http_request", dst_ip="1.1.1.1", bytes_out=v)
              for i, v in enumerate(values)]
    (vector,) = extract_features(events, stats=stats)
    assert vector.values[6] == total
    assert stats.bad_numeric_attrs == bad


def test_irrelevant_events_emit_nothing():
    events = [_ev(1, 0, "email_received", email_from="a@b.example")]
    assert extract_features(events) == []


def test_vectors_sorted_by_user_then_window():
    events = [
        _ev(1, 0, "logon", actor="zed", session_id="S1"),
        _ev(2, 1, "logon", actor="amy", session_id="S2"),
        _ev(3, 4000, "logon", actor="amy", session_id="S3"),
    ]
    vectors = extract_features(events, window=3600)
    keys = [(v.user, v.window_start) for v in vectors]
    assert keys == sorted(keys)


def test_matrix_of_shape(case_study):
    _, events, _ = case_study
    vectors = extract_features(events)
    X = matrix_of(vectors)
    assert X.shape == (len(vectors), 10)
    assert X.dtype == np.float64


def test_standardize_roundtrip():
    rng = np.random.default_rng(0)
    X = rng.normal(5.0, 3.0, size=(40, 10))
    Z, _ = standardize(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_standardize_zero_variance_dimension():
    X = np.ones((5, 3))
    Z, (means, stds) = standardize(X)
    assert np.all(stds == 1.0)
    assert np.all(Z == 0.0)


def test_standardize_reuses_stats():
    X = np.arange(20, dtype=np.float64).reshape(10, 2)
    _, stats = standardize(X)
    Znew, _ = standardize(X + 1.0, stats=stats)
    assert np.allclose(Znew, standardize(X, stats=stats)[0] + 1.0 / stats[1])


def test_standardize_empty_raises():
    with pytest.raises(EmptyTrainingSet):
        standardize(np.empty((0, 10)))


def test_evaluate_known_confusion():
    # tp=2 fp=1 fn=1 tn=6
    preds = [True, True, True, False, False, False, False, False, False, False]
    labels = [True, True, False, True, False, False, False, False, False, False]
    m = evaluate(preds, labels)
    assert m["confusion"] == {"tp": 2, "fp": 1, "fn": 1, "tn": 6}
    assert m["accuracy"] == pytest.approx(0.8)
    assert m["precision"] == pytest.approx(2 / 3)
    assert m["recall"] == pytest.approx(2 / 3)
    assert m["f1"] == pytest.approx(2 / 3)


def test_evaluate_degenerate():
    m = evaluate([False, False], [False, False])
    assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0
    assert m["accuracy"] == 1.0


def test_evaluate_errors():
    with pytest.raises(LengthMismatch):
        evaluate([True], [True, False])
    with pytest.raises(EmptyInput):
        evaluate([], [])


def test_label_windows():
    vectors = extract_features([
        _ev(1, 0, "logon", actor="alice", session_id="S1"),
        _ev(2, 10, "logon", actor="bob", session_id="S2"),
    ])
    hot = [_ev(3, 20, "http_request", actor="alice", dst_ip="9.9.9.9",
               dst_port=8080, method="POST", via="direct", bytes_out=1)]
    labels = label_windows(vectors, hot)
    by_user = dict(zip((v.user for v in vectors), labels))
    assert by_user == {"alice": True, "bob": False}


# --- parts: any cut of a stream merges to the vectors of one pass ---

_BYTES = st.one_of(st.integers(-5, 10**6).map(str),
                   st.sampled_from(["oops", "", str(2**53), str(2**63), "9" * 401]))


def _stream(steps):
    """Events of (ns after the previous one, type, user, session id, dst_ip,
    bytes_out, deny) steps."""
    events, ts = [], NS
    for i, (gap, kind, user, sid, dst, nbytes, deny) in enumerate(steps):
        ts += gap
        attrs = {}
        if kind in ("logon", "logoff", "logon_failed") and sid:
            attrs["session_id"] = sid
        if kind in ("fw_conn", "http_request"):
            attrs["bytes_out"] = nbytes
            if dst:
                attrs["dst_ip"] = dst
            if kind == "fw_conn":
                attrs["verdict"] = "deny" if deny else "allow"
        events.append(LogEvent(i + 1, ts, "ws000", kind, user, attrs))
    return events


def _sessions(*steps):
    """A stream of (ns after the previous one, type, session id) for one user."""
    return _stream([(gap, kind, "amy", sid, None, "0", False) for gap, kind, sid in steps])


@st.composite
def _streams(draw):
    """Time-ordered events of two users over a few windows: sessions that
    repeat a logon or end twice, logoffs with no logon, net events with
    and without ``dst_ip``, bad and huge ``bytes_out``."""
    kinds = st.sampled_from(["logon", "logoff", "fw_conn", "http_request"] * 2 + [
        "logon_failed", "file_read", "file_write", "email_received"])
    return _stream(draw(st.lists(st.tuples(
        st.integers(0, 40 * NS), kinds, st.sampled_from(["amy", "amy", "bob"]),
        st.sampled_from(["S1", "S2"] * 2 + [""]), st.sampled_from(["1.1.1.1", "2.2.2.2", None]),
        _BYTES, st.booleans()), min_size=5, max_size=80)))


@st.composite
def _session_streams(draw):
    """Logons and logoffs of one user's two sessions."""
    return _sessions(*draw(st.lists(st.tuples(
        st.integers(0, 100 * NS), st.sampled_from(["logon", "logoff"]),
        st.sampled_from(["S1", "S2"])), max_size=30)))


def _bits(vectors):
    return [(v.user, v.window_start, v.values.tobytes()) for v in vectors]


@given(events=st.one_of(_streams(), _session_streams()),
       cuts=st.lists(st.integers(0, 1000), max_size=3))
# a session the first part opens, the second reopens and ends, and the third
# ends again: that logoff finds no logon
@example(events=_sessions((0, "logon", "S1"), (NS, "logon", "S1"), (NS, "logoff", "S1"),
                          (NS, "logoff", "S1")), cuts=[250, 750])
@example(events=_sessions((0, "logon", "S1"), (NS, "logon", "S1"), (NS, "logoff", "S1"),
                          (NS, "logoff", "S1")), cuts=[250])
# a session the first of four parts opens and the last ends, the middle two
# not touching it; its second logoff finds no logon
@example(events=_sessions((0, "logon", "S1"), (NS, "logon", "S2"), (NS, "logoff", "S2"),
                          (NS, "logoff", "S1"), (NS, "logoff", "S1")), cuts=[200, 400, 600])
# the durations of a window, mean taken in stream order: one ended in the
# first part falls between two the second part ends
@example(events=_sessions((0, "logon", "S1"), (30725892447, "logon", "S2"),
                          (48940995156, "logoff", "S2"), (42094582642, "logoff", "S1"),
                          (12607248969, "logon", "S2"), (25249540062, "logoff", "S2")),
         cuts=[200])
# a window whose destinations two parts share out
@example(events=_stream([(0, "fw_conn", "amy", "", "1.1.1.1", "1", False),
                          (NS, "http_request", "amy", "", "2.2.2.2", "2", False)]),
         cuts=[500])
@settings(max_examples=300, deadline=None)
def test_parts_merge_to_one_pass(events, cuts):
    window = 600
    cuts = [0, *sorted(c * len(events) // 1000 for c in cuts), len(events)]
    one, parts = ExtractionStats(), ExtractionStats()
    whole = merge_parts([accumulate_part(events, window)], one)
    split = merge_parts([accumulate_part(events[a:b], window)
                         for a, b in zip(cuts, cuts[1:])], parts)
    # compared first, so that a failing example is not diffed while it shrinks
    same_bits = _bits(split) == _bits(whole)
    assert same_bits and parts == one
    cells, unmatched, bad = extract_features_ref(events, window * NS)
    same_values = [(v.user, v.window_start, list(v.values)) for v in whole] == \
        [(user, w, cells[(user, w)]) for user, w in sorted(cells)]
    assert same_values and (one.unmatched_logoffs, one.bad_numeric_attrs) == (unmatched, bad)


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(min_value=-1e12, max_value=1e12)),
                min_size=1, max_size=40))
# whole seconds, as a logon-logoff pair yields them
@example([0.0, 3600.0, 1.0])
@settings(max_examples=500, deadline=None)
def test_window_mean_is_np_mean_bit_for_bit(durations):
    assert np.float64(features._mean(durations)).tobytes() == \
        np.float64(np.mean(durations)).tobytes()
