"""Normalized log-event schema, raw-source parsers and the canonical codec.

The canonical on-disk form is one JSON object per line with exactly the
members ``id, ts, host, type, actor, attrs`` (attrs keeps insertion order,
all values are strings, no floating-point members anywhere).
"""

from __future__ import annotations

import json
import os
import stat
import sys
from bisect import bisect_left
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from itertools import islice
from types import UnionType
from typing import Callable, Iterator, TypeVar, get_args, get_origin, get_type_hints

from .errors import ChaintraceError, DecodeError, IoFailure, MalformedLine, SchemaError

# The raw source grammars, one row per event type: its source kind, its
# Windows code or file-audit op, and its attribute columns in line order.
# Every raw line is tab-separated and starts with the epoch-ns timestamp
# and the host; then come the user and the code or op (a Windows code
# before the user, a file-audit op after it), the attribute columns, and
# extra columns, which are kept as the attributes x0, x1, ...
#   windows:   ts  host  code  user  <columns>
#   fileaudit: ts  host  user  op  <columns>
#   firewall, proxy, email:  ts  host  user  <columns>
_GRAMMARS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "logon": ("windows", "4624", ("session_id",)),
    "logoff": ("windows", "4634", ("session_id",)),
    "logon_failed": ("windows", "4625", ("session_id",)),
    "process_start": ("windows", "4688", ("image", "parent")),
    "usb_insert": ("windows", "6416", ("device",)),
    "exploit_signature": ("windows", "1116", ("signature",)),
    "fw_conn": ("firewall", "", ("verdict", "dst_ip", "dst_port", "bytes_out")),
    "http_request": ("proxy", "", ("method", "dst_ip", "dst_port", "via", "bytes_out")),
    "file_read": ("fileaudit", "READ", ("path",)),
    "file_write": ("fileaudit", "WRITE", ("path",)),
    "email_received": ("email", "", ("email_from", "attachment_ext")),
}

EVENT_TYPES = frozenset(_GRAMMARS)

NS = 1_000_000_000  # LogEvent.ts ticks per second
# Every id and ts lies in 1 .. MAX_ID_TS, so each fits a signed 64-bit
# integer; a ts of 2**63 ns would fall in the year 2262.
MAX_ID_TS = (1 << 63) - 1

_T = TypeVar("_T")


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

# One quoter and one decoder for every line: json.dumps and json.loads
# would build or wrap them again on each call.
_quote = json.encoder.encode_basestring_ascii  # the C quoter where available
_scan_once = json.JSONDecoder().scan_once  # the C scanner where available
_JSON_WS = " \t\n\r"


def encode_event(e: LogEvent) -> str:
    """Serialize one event to its canonical single-line JSON form.

    An id or ts that is not an int in 1 .. MAX_ID_TS, attributes that are
    not a dict, or any other member that is not a string (``_quote``
    raises TypeError on it) is a SchemaError, whose message shows neither
    id nor ts: an int past Python's digit limit cannot be printed."""
    eid, ts, attrs = e.id, e.ts, e.attributes
    if (type(eid) is int and type(ts) is int and type(attrs) is dict
            and 0 < ts <= MAX_ID_TS >= eid > 0):
        try:
            members = ",".join([f"{_quote(k)}:{_quote(v)}" for k, v in attrs.items()])
            return (f'{{"id":{eid},"ts":{ts},"host":{_quote(e.source_host)},'
                    f'"type":{_quote(e.event_type)},"actor":{_quote(e.actor)},'
                    f'"attrs":{{{members}}}}}')
        except TypeError:
            pass
    raise SchemaError("event: id and ts must be integers from 1 to 2**63 - 1, host, "
                      "type and actor strings, attrs a dict of strings")


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
        raise DecodeError(f"unreadable JSON: {exc}") from exc


def decode_event(text: str) -> LogEvent:
    """Inverse of :func:`encode_event`; raises DecodeError.

    Its checks are what makes an event valid: integer id and ts, each in
    1 .. MAX_ID_TS, a known type, string host and actor, and string
    attribute values.
    """
    obj = _parse(text)
    if type(obj) is not dict:
        raise DecodeError("record is not an object")
    try:  # read in member order, so the first one missing is named
        eid, ts, host, etype, actor, attrs = (obj["id"], obj["ts"], obj["host"],
                                              obj["type"], obj["actor"], obj["attrs"])
    except KeyError as exc:
        raise DecodeError(f"missing member {exc.args[0]!r}") from None
    if type(eid) is not int or type(ts) is not int:  # bool is not an integer here
        raise DecodeError("id and ts must be integers")
    if not 0 < ts <= MAX_ID_TS >= eid > 0:
        raise DecodeError(f"ts must be > 0, got {ts}" if ts <= 0
                          else "id and ts must lie in 1 .. 2**63 - 1")
    if type(etype) is not str or etype not in EVENT_TYPES:
        raise DecodeError(f"unknown type {etype!r}")
    if type(host) is not str or type(actor) is not str:
        raise DecodeError("host and actor must be strings")
    if type(attrs) is not dict:
        raise DecodeError("attrs must map strings to strings")
    for value in attrs.values():  # JSON object keys are always strings
        if type(value) is not str:
            raise DecodeError("attrs must map strings to strings")
    return LogEvent(eid, ts, host, etype, actor, attrs)


_BLOCK = 1 << 16  # bytes per read of TextLines' newline count


class TextLines(Sequence):
    """``parse`` of each line of the UTF-8 text file ``path``, lines
    ``first`` up to ``stop`` (numbered from 0; ``stop=None``: to the end).

    A line that ``keep`` rejects is counted as skipped and not parsed.
    With ``numbered``, ``parse`` takes the line's number as well.
    ``rows_scanned`` and ``rows_skipped`` grow by the lines each pass read
    and skipped when the pass ends, also when its consumer stops early. A
    ``DecodeError`` or ``MalformedLine`` from ``parse`` is raised again as
    ``<path>: line N: <message>``; a line that is not UTF-8 is a
    ``DecodeError`` naming its number. A file that cannot be opened stays
    an OSError.

    The lines of a ``cuttable`` file are a sequence. One count of its
    newlines, at C speed, gives ``len`` and the byte offset of each line:
    ``lines[a:b]`` reads from line ``a``'s offset, and ``lines[i]`` is the
    parse of line ``i``.
    """

    def __init__(self, path: str, parse: Callable[..., _T],
                 keep: Callable[[str], bool] | None = None,
                 first: int = 0, stop: int | None = None, *, numbered: bool = False):
        self.path, self.parse, self.keep = path, parse, keep
        self.first, self.stop, self.numbered = first, stop, numbered
        self.rows_scanned = 0
        self.rows_skipped = 0
        self._newlines: list[int] | None = None  # see _count
        self._at: int | None = None  # the byte offset of line first, where known

    def __iter__(self) -> Iterator[_T]:
        path, parse, keep, numbered = self.path, self.parse, self.keep, self.numbered
        start = self.first if self._at else 0  # the number of the line the read starts at
        lineno = self.first  # the number, from 1, of the last line read
        skipped = 0
        try:
            with open(path, "r", encoding="utf-8") as fh:
                if self._at:
                    fh.seek(self._at)  # a line start: the decoder holds nothing there
                stop = None if self.stop is None else self.stop - start
                for line in islice(fh, self.first - start, stop):
                    lineno += 1
                    if keep is not None and not keep(line):
                        skipped += 1
                        continue
                    yield parse(line, lineno - 1) if numbered else parse(line)
        except UnicodeDecodeError:
            raise _utf8_fault(path) from None
        except (DecodeError, MalformedLine) as exc:
            raise type(exc)(f"{path}: line {lineno}: {exc}") from None
        finally:
            self.rows_scanned += lineno - self.first
            self.rows_skipped += skipped

    @property
    def cuttable(self) -> bool:
        """Whether the lines are a sequence: those of a regular file whose
        line breaks are all "\\n". A pipe can be read only once, and text
        mode also breaks a line at a "\\r"."""
        return self._count() is not None

    def _count(self) -> list[int] | None:
        """``_newline_counts`` of the file, taken on the first call."""
        if self._newlines is None:
            self._newlines = _newline_counts(self.path) or []
        return self._newlines or None

    def _offset(self, k: int) -> int:
        """The byte offset of line ``k`` (the file's end if there is none)."""
        if k == 0:
            return 0
        counts = self._count()[:-1]
        b = bisect_left(counts, k) - 1  # the block that holds the k-th newline
        if b == len(counts) - 1:  # there is none
            return os.path.getsize(self.path)
        with open(self.path, "rb") as fh:
            fh.seek(b * _BLOCK)
            block = fh.read(_BLOCK)
        at = -1
        for _ in range(k - counts[b]):
            at = block.index(b"\n", at + 1)
        return b * _BLOCK + at + 1

    def __len__(self) -> int:
        n = self._count()[-1]
        return max(0, (n if self.stop is None else min(n, self.stop)) - self.first)

    def __getitem__(self, i):
        lines = range(self.first, self.first + len(self))[i]
        if not isinstance(i, slice):
            return next(iter(self[lines - self.first:lines - self.first + 1]))
        if lines.step != 1:
            raise ValueError("a slice of lines has step 1")
        part = TextLines(self.path, self.parse, self.keep, lines.start,
                         max(lines.start, lines.stop), numbered=self.numbered)
        part._newlines, part._at = self._newlines, self._offset(lines.start)
        return part


def _newline_counts(path: str) -> list[int] | None:
    """The number of newlines before each ``_BLOCK`` bytes of the file
    ``path``, then its number of lines; None if its lines are not cuttable
    (see ``TextLines``)."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    counts, last = [0], b"\n"
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK):
            if b"\r" in block:
                return None
            counts.append(counts[-1] + block.count(b"\n"))
            last = block[-1:]
    return [*counts, counts[-1] + (last != b"\n")]


def _utf8_fault(path: str) -> DecodeError:
    """The DecodeError naming the first line of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DecodeError(f"{path}: line {lineno} is not UTF-8", exc.start)
    return DecodeError(f"{path}: not UTF-8")


@contextmanager
def committing(*paths: str | None) -> Iterator[list[str | None]]:
    """A temporary path beside each output path (None stays None) for the
    block to write. When the block ends, each is renamed to its output; if
    it raises, all are removed. An output named twice is an IoFailure
    before the block runs."""
    real = [os.path.realpath(path) for path in paths if path is not None]
    for path in paths:
        if path is not None and real.count(os.path.realpath(path)) > 1:
            raise IoFailure(f"{path}: named as two outputs")
    tmps = [None if path is None else path + ".tmp" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            if tmp is not None:
                os.replace(tmp, path)
    except OSError as exc:  # name the output, not its temporary file
        exc.filename = dict(zip(tmps, paths)).get(exc.filename, exc.filename)
        raise
    finally:
        for tmp in tmps:
            if tmp is not None and os.path.exists(tmp):
                os.remove(tmp)


def load_json(path: str, what: str, tp, error: type[Exception] = SchemaError,
              check: Callable | None = None):
    """The JSON document in the file ``path``, read as the annotation ``tp``
    (see from_json) and passed to ``check``. A file that is not UTF-8 JSON
    or a document that does not fit ``tp`` is an ``error``, and an error of
    ``check`` keeps its type; each names ``what`` and ``path``. A file that
    cannot be opened stays an OSError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise error(f"{what} {path}: not a UTF-8 JSON document: {exc}") from None
    try:
        value = from_json(tp, doc)
    except ValueError as exc:
        raise error(f"{what} {path}: malformed: {exc}") from None
    if check is not None:
        try:
            check(value)
        except ChaintraceError as exc:
            raise type(exc)(f"{what} {path}: {exc}") from None
    return value


@cache
def _fields(cls) -> dict:
    """Field name -> (annotation, required) of the dataclass ``cls``."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def from_json(tp, value, at: str = ""):
    """``value``, a parsed JSON value, as the annotation ``tp`` reads it.

    ``tp`` is str, int (not bool), float (finite; a JSON integer reads as
    that number), bool, ``X | None``, ``list[T]``, ``dict[str, T]`` or a
    dataclass, built from an object whose members name its fields; only a
    field with a default may be omitted. Nothing else is converted. A value
    that does not fit is a ValueError naming its path ``at``, as in
    ``elements[1].required: expected bool, got 'false'``.
    """
    if is_dataclass(tp) and type(value) is dict:
        members, prefix = _fields(tp), f"{at}." if at else ""
        unknown = value.keys() - members.keys()
        if unknown:
            raise ValueError(f"{prefix}{min(unknown)}: unknown member")
        for name, (_, required) in members.items():
            if required and name not in value:
                raise ValueError(f"{prefix}{name}: missing")
        return tp(**{k: from_json(members[k][0], v, prefix + k) for k, v in value.items()})
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        return None if value is None else from_json(args[0], value, at)
    if origin is list and type(value) is list:
        return [from_json(args[0], v, f"{at}[{i}]") for i, v in enumerate(value)]
    if origin is dict and type(value) is dict:  # JSON object keys are strings
        return {k: from_json(args[1], v, f"{at}.{k}") for k, v in value.items()}
    if tp is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is tp:  # a bool is not an int
        return value
    want = ("object" if is_dataclass(tp) else "finite float" if tp is float
            else getattr(tp, "__name__", tp))
    raise ValueError(f"{at + ': ' if at else ''}expected {want}, got {value!r:.40}")


# --- raw source lines ---

def _parse_table() -> dict:
    """The parser's view of the grammar table: source kind -> (user column,
    code or op column (0: none), what the code or op is called, {code or
    op: (event type, column count, required columns, optional columns)}).
    Attribute columns are (attribute, column) pairs in event order."""
    table: dict = {}
    for etype, (kind, key, names) in _GRAMMARS.items():
        first = 4 if key else 3
        pairs = [(name, first + i) for i, name in enumerate(names)]
        if kind in ("firewall", "proxy"):  # events hold these first, as simulated
            pairs.sort(key=lambda p: p[0] not in ("dst_ip", "dst_port"))
        # "-" means absent in a Windows column and in the mail attachment column
        optional = tuple(p for p in pairs if kind == "windows" or p[0] == "attachment_ext")
        user_at, key_at = (3, 2) if kind == "windows" else (2, 3 if key else 0)
        what = "event code" if kind == "windows" else "op"
        rows = table.setdefault(kind, (user_at, key_at, what, {}))[3]
        rows[key] = (etype, first + len(names),
                     tuple(p for p in pairs if p not in optional), optional)
    return table


_PARSE = _parse_table()


def _extension(path: str) -> str:
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    if "." not in name:
        return ""
    return name.rsplit(".", 1)[-1].lower()


def parse_raw_line(line: RawLine, event_id: int = 0) -> LogEvent:
    """Normalize one raw source line; the id is assigned by the caller."""
    kind = line.source_kind
    grammar = _PARSE.get(kind)
    if grammar is None:
        raise MalformedLine(f"unknown source_kind {kind!r}")
    text = line.text
    if not text.strip():
        raise MalformedLine(f"{kind}: empty line")
    cols = text.rstrip("\n").split("\t")
    try:
        ts = int(cols[0], 10)
        if str(ts) != cols[0]:  # a space, _, + or leading 0, or a digit past ASCII
            raise ValueError
    except ValueError:
        raise MalformedLine(f"{kind}: bad timestamp {cols[0]!r}") from None
    if not 0 < ts <= MAX_ID_TS:
        raise MalformedLine(f"{kind}: timestamp {cols[0]!r} outside 1 .. 2**63 - 1")
    user_at, key_at, what, rows = grammar
    try:
        etype, width, pairs, optional = rows[cols[key_at]] if key_at else rows[""]
    except IndexError:
        raise MalformedLine(f"{kind}: no {what} column") from None
    except KeyError:
        raise MalformedLine(f"{kind}: unknown {what} {cols[key_at]!r}") from None
    if len(cols) < width:
        raise MalformedLine(f"{kind}: expected >= {width} columns, got {len(cols)}")

    attrs = {name: cols[i] for name, i in pairs}
    for name, i in optional:
        if cols[i] != "-":
            attrs[name] = cols[i]
    if kind == "firewall":
        attrs["verdict"] = attrs["verdict"].lower()
    elif kind == "fileaudit":
        attrs["ext"] = _extension(attrs["path"])
    for i, value in enumerate(cols[width:]):
        attrs[f"x{i}"] = value
    return LogEvent(event_id, ts, cols[1], etype, cols[user_at], attrs)


def render_raw_line(e: LogEvent) -> RawLine:
    """Render a normalized event back to its raw source line.

    Inverse of :func:`parse_raw_line` for an event that holds its type's
    attribute columns in event order (simulator output); a column whose
    attribute the event lacks is written as "-", and x0.. spill columns
    are appended last.
    """
    try:
        kind, key, names = _GRAMMARS[e.event_type]
    except KeyError:
        raise ValueError(f"unknown event_type {e.event_type!r}") from None
    a = e.attributes
    cols = [str(e.ts), e.source_host, e.actor]
    if kind == "windows":
        cols.insert(2, key)
    elif key:
        cols.append(key)
    cols += [a.get(name, "-") for name in names]
    if kind == "firewall":
        cols[3] = cols[3].upper()  # the verdict column
    cols += [a[k] for k in a if k.startswith("x") and k[1:].isdigit()]
    return RawLine(kind, "\t".join(cols))
