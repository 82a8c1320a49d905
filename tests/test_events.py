import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import RefDecodeError, decode_event_ref

from chaintrace.cli import EXIT_ERROR, main
from chaintrace.errors import DecodeError, MalformedLine, SchemaError
from chaintrace.events import (
    EVENT_TYPES,
    LogEvent,
    RawLine,
    decode_event,
    encode_event,
    parse_raw_line,
    render_raw_line,
)
from chaintrace.simulate import SimConfig, simulate


def test_parse_windows_logon():
    line = RawLine("windows", "1700000000000000000\tWS01\t4624\talice\tS1")
    e = parse_raw_line(line)
    assert e.event_type == "logon"
    assert e.source_host == "WS01"
    assert e.actor == "alice"
    assert e.attributes["session_id"] == "S1"


def test_parse_fileaudit_extension():
    line = RawLine("fileaudit", "1700000000000000000\tWS01\talice\tREAD\tC:\\pics\\a.jpg")
    e = parse_raw_line(line)
    assert e.event_type == "file_read"
    assert e.attributes["ext"] == "jpg"
    assert e.attributes["path"] == "C:\\pics\\a.jpg"


def test_parse_firewall_deny():
    line = RawLine("firewall", "1700000000000000000\tfw\tbob\tDENY\t10.0.0.9\t445\t0")
    e = parse_raw_line(line)
    assert e.event_type == "fw_conn"
    assert e.attributes["verdict"] == "deny"


def test_parse_extra_columns_preserved():
    line = RawLine("windows", "1700000000000000000\tWS01\t4624\talice\tS1\tfoo\tbar")
    e = parse_raw_line(line)
    assert e.attributes["x0"] == "foo"
    assert e.attributes["x1"] == "bar"


@pytest.mark.parametrize("text", [
    "",
    "notanumber\tWS01\t4624\talice\tS1",
    "1700000000000000000\tWS01",
    "1700000000000000000\tWS01\t9999\talice\tS1",
])
def test_parse_malformed(text):
    with pytest.raises(MalformedLine):
        parse_raw_line(RawLine("windows", text))


def test_parse_unknown_source_kind():
    with pytest.raises(MalformedLine):
        parse_raw_line(RawLine("syslog", "x"))


def test_codec_roundtrip_simple():
    e = LogEvent(1, 1700000000000000000, "WS01", "logon", "alice",
                 {"session_id": "S1"})
    assert decode_event(encode_event(e)) == e


def test_codec_empty_attributes():
    e = LogEvent(2, 5, "h", "logoff", "bob", {})
    text = encode_event(e)
    assert '"attrs":{}' in text
    assert decode_event(text) == e


def test_decode_truncated_record():
    e = LogEvent(1, 5, "h", "logon", "a", {"session_id": "S"})
    text = encode_event(e)
    with pytest.raises(DecodeError):
        decode_event(text[: len(text) // 2])


def test_decode_error_reports_offset():
    with pytest.raises(DecodeError) as exc:
        decode_event('{"id":1,"ts":2,}')
    assert exc.value.offset > 0


@pytest.mark.parametrize("ts,etype", [(-5, "nope"), (-5, "logon"), (0, "logon"),
                                      (5, "nope"), (5, 7)])
def test_decode_rejects_what_validate_rejects(ts, etype):
    text = json.dumps({"id": 1, "ts": ts, "host": "h", "type": etype,
                       "actor": "a", "attrs": {}})
    with pytest.raises(DecodeError):
        decode_event(text)


def test_detect_names_the_bad_line(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text('{"id":1,"ts":-5,"host":"h","type":"nope","actor":"a","attrs":{}}\n')
    rc = main(["detect", "--events", str(path), "--out", str(tmp_path / "r.jsonl")])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "ts must be > 0" in err and "out of order" not in err


_attr_key = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8
)
_attr_val = st.text(min_size=0, max_size=20)


@given(
    eid=st.integers(min_value=1, max_value=2**63 - 1),
    ts=st.integers(min_value=1, max_value=2**62),
    host=st.text(min_size=1, max_size=12),
    etype=st.sampled_from(sorted(EVENT_TYPES)),
    actor=st.text(min_size=1, max_size=12),
    attrs=st.dictionaries(_attr_key, _attr_val, max_size=6),
)
@settings(max_examples=300)
def test_codec_roundtrip_property(eid, ts, host, etype, actor, attrs):
    e = LogEvent(eid, ts, host, etype, actor, attrs)
    again = decode_event(encode_event(e))
    assert again == e
    assert encode_event(again) == encode_event(e)


def test_codec_roundtrip_simulated_corpus():
    # >= 10^4 seeded events through the codec
    events, _ = simulate(SimConfig(seed=9, users=100, duration=7200, attack=True))
    assert len(events) >= 10_000
    for e in events:
        line = encode_event(e)
        assert encode_event(decode_event(line)) == line


def test_raw_render_parse_identity(case_study):
    _, events, _ = case_study
    for e in events:
        raw = render_raw_line(e)
        back = parse_raw_line(raw, event_id=e.id)
        assert back == e


# each event type's attributes in event order, as the simulator writes them
_RAW_SCHEMA = {
    "logon": ("session_id",),
    "logoff": ("session_id",),
    "logon_failed": ("session_id",),
    "process_start": ("image", "parent"),
    "usb_insert": ("device",),
    "exploit_signature": ("signature",),
    "fw_conn": ("dst_ip", "dst_port", "verdict", "bytes_out"),
    "http_request": ("dst_ip", "dst_port", "method", "via", "bytes_out"),
    "file_read": ("path", "ext"),
    "file_write": ("path", "ext"),
    "email_received": ("email_from", "attachment_ext"),
}
# a raw column holds no tab or newline, and "-" would mean an absent attribute
_raw_value = st.text(st.characters(blacklist_characters="\t\n"), max_size=10).filter(
    lambda v: v != "-")


@st.composite
def _raw_events(draw):
    etype = draw(st.sampled_from(sorted(EVENT_TYPES)))
    attrs = {}
    for name in _RAW_SCHEMA[etype]:
        if name == "verdict":  # upper-case in the raw line
            attrs[name] = draw(st.text("abcdefghijklmnopqrstuvwxyz", max_size=6))
        elif name == "ext":
            _, dot, ext = attrs["path"].replace("\\", "/").rsplit("/", 1)[-1].rpartition(".")
            attrs[name] = ext.lower() if dot else ""
        else:
            attrs[name] = draw(_raw_value)
    for i, value in enumerate(draw(st.lists(_raw_value, max_size=3))):
        attrs[f"x{i}"] = value
    return LogEvent(draw(st.integers(1, 2**63 - 1)), draw(st.integers(1, 2**63 - 1)),
                    draw(_raw_value), etype, draw(_raw_value), attrs)


_TOP = 2**63 - 1  # the largest id and ts


@pytest.mark.parametrize("eid, ts", [(1, 1), (_TOP, _TOP), (1, _TOP), (_TOP, 1)])
def test_codec_takes_ids_and_ts_at_the_bound(eid, ts):
    e = LogEvent(eid, ts, "h", "logon", "a", {})
    assert decode_event(encode_event(e)) == e
    assert parse_raw_line(render_raw_line(e), eid) == e


@pytest.mark.parametrize("member", ["id", "ts"])
@pytest.mark.parametrize("value", [0, -1, 2**63, 10**5000],
                         ids=["0", "-1", "2**63", "10**5000"])
def test_codec_refuses_ids_and_ts_past_the_bound(member, value):
    e = LogEvent(7, 7, "h", "logon", "a", {})
    setattr(e, member, value)
    with pytest.raises(SchemaError, match="^event: id and ts must be integers from 1 to "):
        encode_event(e)
    digits = "1" + "0" * 5000 if value == 10**5000 else f"{value}"  # str() has a digit limit
    line = f'{{"id":7,"ts":7,"host":"h","type":"logon","actor":"a","attrs":{{}}}}'
    with pytest.raises(DecodeError):
        decode_event(line.replace(f'"{member}":7', f'"{member}":{digits}'))
    if member == "ts":
        with pytest.raises(MalformedLine, match="timestamp"):
            parse_raw_line(RawLine("windows", f"{digits}\th\t4624\ta\t-"), 7)


@given(e=_raw_events())
@settings(max_examples=500)
def test_raw_render_parse_roundtrip_property(e):
    # bytes, not dicts: the attribute order must survive too
    assert encode_event(parse_raw_line(render_raw_line(e), e.id)) == encode_event(e)


def test_normalization_order_preserving(case_study):
    _, events, _ = case_study
    pairs = [(e.ts, e.id) for e in events]
    assert pairs == sorted(pairs)


# --- the codec against json ---

_MEMBERS = ("id", "ts", "host", "type", "actor", "attrs")

# quotes, backslashes, control and non-ASCII characters, among any others
_tricky = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\u00e9\u20ac\u2028\U0001f600'),
                       st.characters()),
    max_size=12,
)
_events = st.builds(
    LogEvent,
    id=st.integers(min_value=1, max_value=2**63 - 1),
    ts=st.integers(min_value=1, max_value=2**62),
    source_host=_tricky,
    event_type=st.sampled_from(sorted(EVENT_TYPES)),
    actor=_tricky,
    attributes=st.dictionaries(_tricky, _tricky, max_size=4),
)
_not_strings = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=2), st.just({}),
)
_json_ws = st.text(alphabet=" \t\n\r", min_size=1, max_size=3)
_other_ws = st.text(alphabet=" \t\n\r\x0b\x0c\x85\u00a0\u2028", min_size=1, max_size=3)


def _as_dict(e: LogEvent) -> dict:
    return {"id": e.id, "ts": e.ts, "host": e.source_host, "type": e.event_type,
            "actor": e.actor, "attrs": e.attributes}


def _compact(obj, ensure_ascii=True) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=ensure_ascii)


@st.composite
def _lines(draw):
    """An encoded event, or one of the ways a line can differ from one."""
    e = draw(_events)
    line, obj = encode_event(e), _as_dict(e)
    variant = draw(st.sampled_from((
        "plain", "newline", "leading_ws", "trailing_ws", "second_object",
        "truncated", "not_object", "unescaped", "bad_member", "bad_attr",
        "missing_member",
    )))
    if variant == "newline":
        return line + "\n"
    if variant == "leading_ws":
        return draw(_json_ws) + line
    if variant == "trailing_ws":
        return line + draw(_other_ws)
    if variant == "second_object":
        return line + draw(st.sampled_from(("", " ", "\n"))) + encode_event(draw(_events))
    if variant == "truncated":
        return line[:draw(st.integers(0, len(line) - 1))]
    if variant == "not_object":
        return draw(st.sampled_from((
            "[" + line + "]", _compact(e.actor), _compact([obj]), "null", "5",
        )))
    if variant == "unescaped":
        return _compact(obj, ensure_ascii=False)
    if variant == "bad_member":  # bool or float id/ts, non-string host/actor/type
        obj[draw(st.sampled_from(_MEMBERS[:5]))] = draw(_not_strings)
        return _compact(obj)
    if variant == "bad_attr":
        obj["attrs"] = dict(obj["attrs"], **{draw(_tricky): draw(_not_strings)})
        return _compact(obj)
    if variant == "missing_member":
        del obj[draw(st.sampled_from(_MEMBERS))]
        return _compact(obj)
    return line


_LINE = '{"id":1,"ts":5,"host":"h","type":"logon","actor":"a","attrs":{"k":"v"}}'


@given(line=_lines())
# the scanner rejects these; json.loads parses the first and names the rest
@example(line=" \t" + _LINE)
@example(line=_LINE + "\x0b")
@example(line=_LINE + _LINE)
@example(line=_LINE + "\n" + _LINE)
@example(line=_LINE[:-3])
@example(line="")
@example(line="\n")
@example(line="\ufeff" + _LINE)
@example(line='{"id":1,"ts":2,}')
# the scanner reads these, then a member check rejects them
@example(line=_LINE + " \r\n")
@example(line=_LINE.replace('"id":1', '"id":true'))
@example(line=_LINE.replace('"ts":5', '"ts":5.0'))
@example(line=_LINE.replace('"actor":"a"', '"actor":5'))
@example(line=_LINE.replace('"host":"h"', '"host":["x"]'))
@example(line=_LINE.replace('"v"', 'null'))
@settings(max_examples=500)
def test_decode_matches_reference(line):
    try:
        want = decode_event_ref(line, EVENT_TYPES)
    except RefDecodeError as ref:
        with pytest.raises(DecodeError) as got:
            decode_event(line)
        assert got.value.offset == ref.offset
        return
    e = decode_event(line)
    assert (e.id, e.ts, e.source_host, e.event_type, e.actor, e.attributes) == want


@given(e=_events)
@settings(max_examples=300)
def test_encode_equals_json_dumps(e):
    assert encode_event(e) == _compact(_as_dict(e))


class _Str(str):
    pass


_JSON = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True)


@pytest.mark.parametrize("member, value", [
    ("id", True), ("ts", False), ("id", 7.0),
    ("id", np.int64(7)), ("ts", np.int32(5)),
    ("attrs", {1: "v"}), ("attrs", {None: "v"}), ("attrs", {1.5: "v", True: "w"}),
    ("attrs", {"k": 5}), ("attrs", {"k": None}), ("attrs", {"k": ["v"]}),
    ("attrs", {"k": np.str_("v")}), ("attrs", {"k": b"v"}),
    ("attrs", OrderedDict(k="v")), ("attrs", [("k", "v")]),
    ("host", _Str("h\u00e9")), ("actor", _Str('"a"')), ("type", 5),
    ("attrs", {_Str("k\n"): _Str("v\ud800")}),
    ("host", None), ("actor", b"a"),
])
def test_encode_off_fast_path_matches_json(member, value):
    """An event whose id or ts is not an int, whose attrs are not a dict or
    that holds a non-string is refused; strings of a str subclass encode
    as json encodes them."""
    obj = {"id": 1, "ts": 5, "host": "h", "type": "logon", "actor": "a",
           "attrs": {"k": "v"}} | {member: value}
    e = LogEvent(*obj.values())
    attrs = obj["attrs"]
    strings = (obj["host"], obj["type"], obj["actor"], *attrs, *attrs.values()) \
        if type(attrs) is dict else ()
    if type(obj["id"]) is int and type(obj["ts"]) is int and type(attrs) is dict \
            and all(isinstance(s, str) for s in strings):
        assert encode_event(e) == _JSON.encode(obj)
    else:
        with pytest.raises(SchemaError):
            encode_event(e)

