"""Normalized log-event schema, raw-source parsers and the canonical codec.

The canonical on-disk form is one JSON object per line with exactly the
members ``id, ts, host, type, actor, attrs`` (attrs keeps insertion order,
all values are strings, no floating-point members anywhere).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DecodeError, MalformedLine, SchemaError

EVENT_TYPES = frozenset({
    "logon",
    "logoff",
    "logon_failed",
    "email_received",
    "process_start",
    "exploit_signature",
    "fw_conn",
    "http_request",
    "file_read",
    "file_write",
    "usb_insert",
})

RAW_SOURCE_KINDS = frozenset({"windows", "firewall", "proxy", "fileaudit", "email"})


@dataclass
class LogEvent:
    """One normalized, timestamped log record; the atom of all analysis."""

    id: int
    ts: int  # nanoseconds since Unix epoch
    source_host: str
    event_type: str
    actor: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class RawLine:
    """One raw line from a simulated log source, tagged with its grammar."""

    source_kind: str
    text: str


# --- canonical codec ---

# One encoder and one decoder for every line: json.dumps and json.loads
# would build or wrap them again on each call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True)
_scan_once = json.JSONDecoder().scan_once  # the C scanner where available
_JSON_WS = " \t\n\r"


def encode_event(e: LogEvent) -> str:
    """Serialize one event to its canonical single-line JSON form."""
    return _ENCODER.encode({
        "id": e.id,
        "ts": e.ts,
        "host": e.source_host,
        "type": e.event_type,
        "actor": e.actor,
        "attrs": e.attributes,
    })


def _parse(text: str):
    """The JSON value of ``text``, as json.loads gives it.

    The scanner reads a value that starts at offset 0 and is followed by
    JSON whitespace only; anything else (leading whitespace, extra data,
    bad JSON) goes to json.loads, which parses it or names the fault. An
    integer past Python's digit limit or nesting past its recursion limit
    is a DecodeError too.
    """
    try:
        obj, end = _scan_once(text, 0)
        if end == len(text) or not text[end:].strip(_JSON_WS):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    except (ValueError, RecursionError) as exc:  # too many digits, too deep
        raise DecodeError(f"unreadable JSON: {exc}", 0) from exc


def decode_event(text: str) -> LogEvent:
    """Inverse of :func:`encode_event`; raises DecodeError with byte offset.

    Its checks are what makes an event valid: integer id, ts > 0, a known
    type, string host and actor, and string attribute values.
    """
    obj = _parse(text)
    if type(obj) is not dict:
        raise DecodeError("record is not an object", 0)
    try:  # read in member order, so the first one missing is named
        eid, ts, host, etype, actor, attrs = (obj["id"], obj["ts"], obj["host"],
                                              obj["type"], obj["actor"], obj["attrs"])
    except KeyError as exc:
        raise DecodeError(f"missing member {exc.args[0]!r}", 0) from None
    if type(eid) is not int or type(ts) is not int:  # bool is not an integer here
        raise DecodeError("id and ts must be integers", 0)
    if ts <= 0:
        raise DecodeError(f"ts must be > 0, got {ts}", 0)
    if type(etype) is not str or etype not in EVENT_TYPES:
        raise DecodeError(f"unknown type {etype!r}", 0)
    if type(host) is not str or type(actor) is not str:
        raise DecodeError("host and actor must be strings", 0)
    if type(attrs) is not dict:
        raise DecodeError("attrs must map strings to strings", 0)
    for value in attrs.values():  # JSON object keys are always strings
        if type(value) is not str:
            raise DecodeError("attrs must map strings to strings", 0)
    return LogEvent(eid, ts, host, etype, actor, attrs)


def utf8_fault(path: str) -> DecodeError:
    """The DecodeError naming the first line of ``path`` that is not UTF-8;
    readers call it once their text decoder has failed."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DecodeError(f"{path}: line {lineno} is not UTF-8", exc.start)
    return DecodeError(f"{path}: not UTF-8")


def load_json(path: str, what: str):
    """The JSON document in the file ``path``. A file that is not UTF-8 or
    not JSON is a SchemaError naming ``what`` and ``path``; a file that
    cannot be opened stays an OSError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaError(f"{what} {path}: not a UTF-8 JSON document: {exc}") from None


# --- raw source grammars ---
#
# All raw lines are tab-separated with the epoch-ns timestamp first.
# Grammars (extra trailing columns are preserved as x0, x1, ...):
#   windows:   ts  host  code  user  <code-specific columns>
#   firewall:  ts  host  user  verdict  dst_ip  dst_port  bytes_out
#   proxy:     ts  host  user  method  dst_ip  dst_port  via  bytes_out
#   fileaudit: ts  host  user  op  path
#   email:     ts  host  user  from  attachment_ext
#
# A "-" in an optional column means the attribute is absent.

_WIN_CODES: dict[str, tuple[str, tuple[str, ...]]] = {
    "4624": ("logon", ("session_id",)),
    "4634": ("logoff", ("session_id",)),
    "4625": ("logon_failed", ("session_id",)),
    "4688": ("process_start", ("image", "parent")),
    "6416": ("usb_insert", ("device",)),
    "1116": ("exploit_signature", ("signature",)),
}


def _split(line: RawLine, minimum: int) -> list[str]:
    cols = line.text.rstrip("\n").split("\t")
    if len(cols) < minimum:
        raise MalformedLine(
            f"{line.source_kind}: expected >= {minimum} columns, got {len(cols)}"
        )
    return cols


def _parse_ts(raw: str, line: RawLine) -> int:
    try:
        ts = int(raw, 10)
    except ValueError as exc:
        raise MalformedLine(f"{line.source_kind}: bad timestamp {raw!r}") from exc
    if ts <= 0:
        raise MalformedLine(f"{line.source_kind}: non-positive timestamp {ts}")
    return ts


def _extension(path: str) -> str:
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    if "." not in name:
        return ""
    return name.rsplit(".", 1)[-1].lower()


def parse_raw_line(line: RawLine, event_id: int = 0) -> LogEvent:
    """Normalize one raw source line; the id is assigned by the caller."""
    if line.source_kind not in RAW_SOURCE_KINDS:
        raise MalformedLine(f"unknown source_kind {line.source_kind!r}")
    if not line.text.strip():
        raise MalformedLine(f"{line.source_kind}: empty line")

    attrs: dict[str, str] = {}

    if line.source_kind == "windows":
        cols = _split(line, 4)
        ts = _parse_ts(cols[0], line)
        host, code, user = cols[1], cols[2], cols[3]
        if code not in _WIN_CODES:
            raise MalformedLine(f"windows: unknown event code {code!r}")
        event_type, names = _WIN_CODES[code]
        rest = cols[4:]
        if len(rest) < len(names):
            raise MalformedLine(f"windows: code {code} needs {len(names)} extra columns")
        for name, value in zip(names, rest):
            if value != "-":
                attrs[name] = value
        extra = rest[len(names):]
    elif line.source_kind == "firewall":
        cols = _split(line, 7)
        ts = _parse_ts(cols[0], line)
        host, user = cols[1], cols[2]
        event_type = "fw_conn"
        attrs["dst_ip"] = cols[4]
        attrs["dst_port"] = cols[5]
        attrs["verdict"] = cols[3].lower()
        attrs["bytes_out"] = cols[6]
        extra = cols[7:]
    elif line.source_kind == "proxy":
        cols = _split(line, 8)
        ts = _parse_ts(cols[0], line)
        host, user = cols[1], cols[2]
        event_type = "http_request"
        attrs["dst_ip"] = cols[4]
        attrs["dst_port"] = cols[5]
        attrs["method"] = cols[3]
        attrs["via"] = cols[6]
        attrs["bytes_out"] = cols[7]
        extra = cols[8:]
    elif line.source_kind == "fileaudit":
        cols = _split(line, 5)
        ts = _parse_ts(cols[0], line)
        host, user, op, path = cols[1], cols[2], cols[3], cols[4]
        if op == "READ":
            event_type = "file_read"
        elif op == "WRITE":
            event_type = "file_write"
        else:
            raise MalformedLine(f"fileaudit: unknown op {op!r}")
        attrs["path"] = path
        attrs["ext"] = _extension(path)
        extra = cols[5:]
    else:  # email
        cols = _split(line, 5)
        ts = _parse_ts(cols[0], line)
        host, user = cols[1], cols[2]
        event_type = "email_received"
        attrs["email_from"] = cols[3]
        if cols[4] != "-":
            attrs["attachment_ext"] = cols[4]
        extra = cols[5:]

    for i, value in enumerate(extra):
        attrs[f"x{i}"] = value

    return LogEvent(
        id=event_id,
        ts=ts,
        source_host=host,
        event_type=event_type,
        actor=user,
        attributes=attrs,
    )


def render_raw_line(e: LogEvent) -> RawLine:
    """Render a normalized event back to its raw source line.

    Inverse of :func:`parse_raw_line` for events using the canonical
    per-type attribute schema (simulator output); x0.. spill columns are
    appended last.
    """
    a = e.attributes
    extras = [a[k] for k in a if k.startswith("x") and k[1:].isdigit()]
    if e.event_type in ("logon", "logoff", "logon_failed"):
        code = {"logon": "4624", "logoff": "4634", "logon_failed": "4625"}[e.event_type]
        cols = [str(e.ts), e.source_host, code, e.actor, a.get("session_id", "-")]
        kind = "windows"
    elif e.event_type == "process_start":
        cols = [str(e.ts), e.source_host, "4688", e.actor,
                a.get("image", "-"), a.get("parent", "-")]
        kind = "windows"
    elif e.event_type == "usb_insert":
        cols = [str(e.ts), e.source_host, "6416", e.actor, a.get("device", "-")]
        kind = "windows"
    elif e.event_type == "exploit_signature":
        cols = [str(e.ts), e.source_host, "1116", e.actor, a.get("signature", "-")]
        kind = "windows"
    elif e.event_type == "fw_conn":
        cols = [str(e.ts), e.source_host, e.actor, a.get("verdict", "allow").upper(),
                a.get("dst_ip", "-"), a.get("dst_port", "0"), a.get("bytes_out", "0")]
        kind = "firewall"
    elif e.event_type == "http_request":
        cols = [str(e.ts), e.source_host, e.actor, a.get("method", "GET"),
                a.get("dst_ip", "-"), a.get("dst_port", "0"),
                a.get("via", "proxy"), a.get("bytes_out", "0")]
        kind = "proxy"
    elif e.event_type in ("file_read", "file_write"):
        op = "READ" if e.event_type == "file_read" else "WRITE"
        cols = [str(e.ts), e.source_host, e.actor, op, a.get("path", "-")]
        kind = "fileaudit"
    elif e.event_type == "email_received":
        cols = [str(e.ts), e.source_host, e.actor, a.get("email_from", "-"),
                a.get("attachment_ext", "-")]
        kind = "email"
    else:
        raise ValueError(f"unknown event_type {e.event_type!r}")
    cols.extend(extras)
    return RawLine(source_kind=kind, text="\t".join(cols))
