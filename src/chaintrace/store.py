"""Append-only, file-backed event store.

Directory layout: ``NNNNNN.seg`` files in canonical event format (one
JSON record per line) plus ``index.json`` describing every segment.
Single writer, any number of readers; a reader sees everything flushed
before its query began. The index records each segment's committed byte
length; a writer that reopens the store cuts the active segment back to
it, dropping whatever a torn append left behind.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import signal
from collections.abc import Sequence
from dataclasses import dataclass, asdict
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import DecodeError, IoFailure, OutOfOrder, SchemaError
from .events import (EVENT_TYPES, MAX_ID_TS, LogEvent, TextLines, decode_event, encode_event,
                     load_json)

DEFAULT_SEGMENT_EVENTS = 1 << 20
WRITE_BATCH_LINES = 4096  # rows per write call: under 1 MiB of this store's lines

_INDEX_FILE = "index.json"

# A full read, and a write of a sequence, is split into parts, one per
# usable CPU, each of at least this many lines: a smaller part gains little
# or loses, since a worker's fork, the lines it reads past and its pickled
# result cost about what its core saves. Feature extraction and detect's
# rule pass break even near it (benchmarks/BENCH_features.json,
# benchmarks/BENCH_rules.json), and so does a write: on 2 CPUs, two parts
# of 10k listed events lost in both rounds of benchmarks/BENCH_codec.json's
# write_crossover (0.041 s against 0.027 s in one part, 0.050 s against
# 0.047 s), and two parts of 20k won or tied (0.061 s against 0.081 s,
# 0.083 s against 0.085 s).
MIN_PART_LINES = 10_000
# A worker writes its whole part of a write to text before it sends a batch
# (see _Worker); this caps that text at about 45 MB.
MAX_WRITE_PART_LINES = 1 << 18

_T = TypeVar("_T")
_A = TypeVar("_A")


@dataclass
class StoreSegment:
    path: str
    min_ts: int
    max_ts: int
    min_id: int
    max_id: int
    count: int
    sealed: bool
    bytes: int | None = None  # committed length; None in older indexes


@dataclass
class _Index:
    """The members of ``index.json``."""

    segments: list[StoreSegment]


class EventStore:
    """Segmented append-only store with (min_ts, max_ts) segment index."""

    def __init__(self, root: str, segment_events: int = DEFAULT_SEGMENT_EVENTS,
                 create: bool = True):
        """Open the store at ``root``, made by its first write; with
        ``create=False`` a directory without ``index.json`` is refused."""
        self.root = root
        self.segment_events = segment_events
        self.segments: list[StoreSegment] = []
        self._active: StoreSegment | None = None
        self._fh = None
        self.rows_scanned = 0  # lines read by queries
        self.rows_skipped = 0  # of those, lines a prefilter left undecoded
        if not create and not os.path.isfile(self._index_path()):
            raise IoFailure(f"{root}: not an event store (no {_INDEX_FILE})")
        self._load_index()

    # --- index handling ---

    def _index_path(self) -> str:
        return os.path.join(self.root, _INDEX_FILE)

    def _load_index(self) -> None:
        path = self._index_path()
        if not os.path.exists(path):
            return
        self.segments = load_json(path, "store index", _Index).segments
        for i, seg in enumerate(self.segments):
            # segment i is the file _open_segment names, so no index can
            # make a reader or the writer open a file outside the store
            if seg.path != f"{i:06d}.seg":
                fault = f"path: must be {i:06d}.seg, got {seg.path!r}"
            elif seg.count < 0:
                fault = f"count: must be >= 0, got {seg.count}"
            else:
                continue
            raise SchemaError(f"store index {path}: malformed: segments[{i}].{fault}")
        if self.segments and not self.segments[-1].sealed:
            self._active = self.segments[-1]

    def _write_index(self) -> None:
        payload = asdict(_Index(self.segments))
        os.makedirs(self.root, exist_ok=True)
        tmp = self._index_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._index_path())

    # --- writer side ---

    @property
    def last_ts(self) -> int:
        # a failed append may have left the last segment empty
        return next((seg.max_ts for seg in reversed(self.segments) if seg.count), 0)

    @property
    def last_id(self) -> int:
        return max((seg.max_id for seg in self.segments), default=0)

    def count(self) -> int:
        return sum(seg.count for seg in self.segments)

    def _open_segment(self) -> None:
        name = f"{len(self.segments):06d}.seg"
        seg = StoreSegment(
            path=name, min_ts=0, max_ts=0, min_id=0, max_id=0, count=0, sealed=False
        )
        self.segments.append(seg)
        self._active = seg
        if self._fh is not None:
            self._fh.close()
        os.makedirs(self.root, exist_ok=True)
        # "w": a file of this name holds only a torn batch's rows
        self._fh = open(os.path.join(self.root, name), "w", encoding="utf-8")

    def append(self, events: Iterable[LogEvent]) -> int:
        """Append a (ts, id)-sorted batch; durable once this returns.

        An input with a ``rows()`` method, such as ``expand_with_noise``'s
        stream, is written from the canonical rows it gives (see
        ``_encode_part``); any other is written event by event. A long
        enough sequence is written in parts, by forked workers too
        (``_write_parts``); the files are those of one pass. A batch that
        raises before it is indexed is dropped at the next reopen; if it was
        the store's first, it is dropped here, with the segment files and
        the directories it made, so that no half-made store is left behind.
        """
        if self.segments:
            return self._append(events)
        made = []  # the directories the first write may make, deepest first
        path = os.path.abspath(self.root)
        while not os.path.exists(path):
            made.append(path)
            path = os.path.dirname(path)
        try:
            return self._append(events)
        except BaseException:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            for seg in self.segments:
                with contextlib.suppress(FileNotFoundError):  # its open failed
                    os.remove(os.path.join(self.root, seg.path))
            self.segments, self._active = [], None
            for path in made:
                with contextlib.suppress(OSError):  # not empty: keep it
                    os.rmdir(path)
            raise

    def _append(self, events: Iterable[LogEvent]) -> int:
        first = self.last_ts, self.last_id

        def encode(part: tuple[range, int]) -> Iterator[tuple]:
            rows, room = part
            # the order check starts at the row before the part
            last = ((e := events[rows.start - 1]).ts, e.id) if rows.start else first
            return _encode_part(_rows(events[rows.start:rows.stop]), *last, room,
                                self.segment_events)

        parts = self._write_parts(events) if isinstance(events, Sequence) else []
        if len(parts) > 1:
            batches = _in_parts(parts, encode)
        else:
            batches = _encode_part(_rows(events), *first, self._room(), self.segment_events)
        appended = 0
        with contextlib.closing(batches):  # its workers are reaped if a write raises
            for batch in batches:
                appended += self._write(*batch)
        if appended:
            self._sync_active()
            self._write_index()
        return appended

    def _room(self) -> int:
        """Rows the next batch's segment has room for: a full or missing
        active segment gives way to a new one."""
        seg = self._active
        if seg is None or seg.count >= self.segment_events:
            return self.segment_events
        return self.segment_events - seg.count

    def _write_parts(self, events: Sequence[LogEvent]) -> list[tuple[range, int]]:
        """The contiguous parts that a write of ``events`` is split into,
        each with the room its segment has at its first row.

        A sequence of fewer than ``2 * MIN_PART_LINES`` events is one
        part, and so is any sequence on one usable CPU. Otherwise the parts
        are about equal, each holds at most ``MAX_WRITE_PART_LINES`` rows,
        and each starts where one pass starts a batch, so that it cuts its
        batches where one pass does.
        """
        n_lines = len(events)
        group = min(_usable_cpus(), n_lines // MIN_PART_LINES)
        n = group * -(-n_lines // (group * MAX_WRITE_PART_LINES)) if group > 1 else 1
        first_room, seg_rows = self._room(), self.segment_events
        cuts = {0, n_lines}
        for i in range(1, n):
            cut = n_lines * i // n
            # rows since the append or the cut's segment began
            into = cut if cut < first_room else (cut - first_room) % seg_rows
            cuts.add(cut - into % WRITE_BATCH_LINES)
        cuts = sorted(cuts)
        return [(range(a, b), first_room - a if a < first_room
                 else seg_rows - (a - first_room) % seg_rows)
                for a, b in zip(cuts, cuts[1:])]

    def _write(self, text: str, count: int, first_ts: int, first_id: int,
               last_ts: int, last_id: int) -> int:
        """Write one batch of ``count`` rows into the segment it belongs to,
        opening that segment first if need be, and index them."""
        seg = self._active
        if seg is None or seg.count >= self.segment_events:
            if seg is not None:
                self._seal_active()
            self._open_segment()
            seg = self._active
        elif self._fh is None:
            self._reopen_active()
        if count:
            self._fh.write(text)
            if seg.count == 0:
                seg.min_ts, seg.min_id = first_ts, first_id
            seg.max_ts, seg.max_id = last_ts, last_id
            seg.count += count
        return count

    def _sync_active(self) -> None:
        """Make the active segment durable and record its length."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._active.bytes = os.fstat(self._fh.fileno()).st_size

    def _reopen_active(self) -> None:
        path = os.path.join(self.root, self._active.path)
        committed = self._active.bytes
        if committed is not None and os.path.getsize(path) > committed:
            os.truncate(path, committed)  # rows of a batch never indexed
        self._fh = open(path, "a", encoding="utf-8")

    def _seal_active(self) -> None:
        if self._fh is not None:
            self._sync_active()
            self._fh.close()
            self._fh = None
        self._active.sealed = True
        self._active = None

    def close(self) -> None:
        if self._fh is not None:
            self._sync_active()
            self._fh.close()
            self._fh = None
        self._write_index()

    # --- reader side ---

    def query(self, prefilter: Callable[[str], bool] | None = None,
              lines: range | None = None) -> Iterator[LogEvent]:
        """Stream the stored events: every line of every non-empty segment.

        ``prefilter`` sees each raw line first; a line it rejects is
        counted and skipped without being decoded. ``lines`` keeps to
        that range of the lines, numbered from 0 across the segments;
        lines outside it are neither decoded nor counted. A line that
        does not decode, or whose ts lies outside its segment's indexed
        ``[min_ts, max_ts]``, raises a ``DecodeError`` naming the segment
        file and the line.
        """
        lo, hi = (0, math.inf) if lines is None else (lines.start, lines.stop)
        end = 0  # number of the line after the segment
        for seg in self.segments:
            if not seg.count:
                continue
            start, end = end, end + seg.count
            if end <= lo:
                continue
            if start >= hi:
                break
            # rows flushed after this query began are not read
            reader = TextLines(os.path.join(self.root, seg.path), _in_segment(seg),
                               prefilter, max(lo - start, 0), min(hi, end) - start)
            try:
                yield from reader
            finally:  # also when the consumer stops early
                self.rows_scanned += reader.rows_scanned
                self.rows_skipped += reader.rows_skipped

    def map_parts(self, fn: Callable[[Iterator[LogEvent]], _T],
                  prefilter: Callable[[str], bool] | None = None) -> Iterator[_T]:
        """``fn`` of each contiguous part of ``query(prefilter)``, yielded
        in stream order.

        There is one part per usable CPU, each of at least
        ``MIN_PART_LINES`` lines, read as ``_in_parts`` runs parts: the
        first here, the others in forked workers. A part's result is
        collected only when it is asked for, so the consumer may use and
        drop each part before the next arrives. ``rows_scanned`` and
        ``rows_skipped`` count the lines of every part, as one pass does.
        ``fn`` also runs in the forked children, so it must run Python code
        only, as ``features.accumulate_part`` does, and return a picklable
        result.
        """
        n_lines = self.count()
        n = max(1, min(_usable_cpus(), n_lines // MIN_PART_LINES))
        cuts = [n_lines * i // n for i in range(n + 1)]
        parts = [range(a, b) for a, b in zip(cuts, cuts[1:])]

        def read(part: range) -> Iterator[tuple[_T, int, int]]:
            before = self.rows_scanned, self.rows_skipped
            result = fn(self.query(prefilter, lines=part))
            counts = self.rows_scanned - before[0], self.rows_skipped - before[1]
            self.rows_scanned, self.rows_skipped = before  # added below, as a worker's are
            yield result, *counts

        for result, scanned, skipped in _in_parts(parts, read):
            self.rows_scanned += scanned
            self.rows_skipped += skipped
            yield result
            del result  # dropped before the next part is collected


def _rows(events: Iterable[LogEvent]) -> Iterator[tuple]:
    """The rows that ``_encode_part`` and ``simulate --out`` write:
    ``events.rows()`` where ``events`` offers canonical rows, as a noise
    expansion does, else one ``(ts, id, type, event)`` row for each event,
    which is encoded."""
    rows = getattr(events, "rows", None)
    if rows is not None:
        return rows()
    return ((e.ts, e.id, e.event_type, e) for e in events)


def _encode_part(rows: Iterable[tuple], last_ts: int, last_id: int, room: int,
                 segment_events: int) -> Iterator[tuple[str, int, int, int, int, int]]:
    """The batches of one pass's writer over ``rows``, which follow a row
    at (``last_ts``, ``last_id``) in a segment with ``room`` rows left.

    A row is ``(ts, id, type, payload)``, whose payload is either the
    row's canonical line, written as it is, or the ``LogEvent`` that
    ``encode_event`` writes. Each batch is ``(text, count, first ts, first
    id, last ts, last id)``: up to ``WRITE_BATCH_LINES`` rows, none past
    the end of its segment. A row's id and ts must be ints in 1 ..
    ``MAX_ID_TS``; a message refusing them names the id of the row before,
    not a value refused. A row that is out of order or refused raises
    after the batch of the valid rows before it; a batch of no rows,
    yielded when the first event of a batch is refused only by the
    encoder, still opens its segment, as one pass has done by then.
    """
    lines: list[str] = []
    first = None  # the (ts, id) of the first row of the batch being written
    try:
        for ts, eid, etype, payload in rows:
            # here, not in encode_event alone: a line payload is written as
            # it is, and the checks below compare and print id and ts
            if type(ts) is not int or type(eid) is not int:
                raise SchemaError(f"event after id={last_id}: id and ts must be integers, "
                                  f"got {type(eid).__name__} and {type(ts).__name__}")
            if not 0 < ts <= MAX_ID_TS >= eid > 0:
                raise SchemaError(f"event after id={last_id}: id and ts must lie "
                                  "in 1 .. 2**63 - 1")
            if type(etype) is not str or etype not in EVENT_TYPES:
                raise SchemaError(f"event id={eid}: unknown type {etype!r}")
            if ts < last_ts or eid <= last_id:
                raise OutOfOrder(
                    f"event id={eid} ts={ts} regresses behind ts={last_ts} id={last_id}"
                )
            if first is None:
                first = ts, eid
                size = min(WRITE_BATCH_LINES, room)
            lines.append(payload if type(payload) is str else encode_event(payload))
            last_ts, last_id = ts, eid
            if len(lines) >= size:
                batch = _batch(lines, first, last_ts, last_id)
                lines, first = [], None
                room = room - size or segment_events
                yield batch
    except BaseException:  # also when a row raises: its valid prefix is written
        if first is not None:
            yield _batch(lines, first, last_ts, last_id)
        raise
    if lines:
        yield _batch(lines, first, last_ts, last_id)


def _batch(lines: list[str], first: tuple[int, int], last_ts: int,
           last_id: int) -> tuple[str, int, int, int, int, int]:
    return ("\n".join(lines) + "\n" if lines else "", len(lines), *first, last_ts, last_id)


def _in_segment(seg: StoreSegment) -> Callable[[str], LogEvent]:
    """The decoder of ``seg``'s lines: a ts outside the segment's indexed
    range is a DecodeError."""
    min_ts, max_ts = seg.min_ts, seg.max_ts

    def parse(line: str) -> LogEvent:
        e = decode_event(line)
        if not min_ts <= e.ts <= max_ts:
            raise DecodeError(f"ts {e.ts} lies outside the segment's "
                              f"indexed range [{min_ts}, {max_ts}]")
        return e
    return parse


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_parts(parts: Sequence[_A], work: Callable[[_A], Iterable[_T]]) -> Iterator[_T]:
    """The items of ``work(part)`` for each of ``parts``, in their order.

    The parts run in groups of one per usable CPU: the group's first part
    runs here, and forked workers run the others, each of which builds all
    its items before it sends the first. A part whose worker failed or
    died, and so sent no end frame, or could not be forked runs here in
    its turn, and only its items past those that arrived are yielded, so
    its error, if any, is raised where one pass raises it. Each item is
    dropped here before the next is loaded. Closing the generator, or
    reading it to its end, stops and reaps every worker.
    """
    group = _usable_cpus()
    for g in range(0, len(parts), group):
        workers: list[_Worker] = []
        try:
            for part in parts[g + 1:g + group] if hasattr(os, "fork") else ():
                try:
                    workers.append(_Worker(work, part))
                except OSError:  # no process to spare: the rest run here
                    break
            # the group's first part, and any not forked, has no worker
            for part, worker in itertools.zip_longest(parts[g:g + group], [None, *workers]):
                if worker:
                    yield from worker.items()
                    if worker.finished:
                        continue
                yield from itertools.islice(work(part), worker.sent if worker else 0, None)
        finally:
            for w in workers:
                w.close()


class _Worker:
    """Each item of ``fn(arg)``, run in a forked child, pickled back one at
    a time through a pipe, each after its length, and then an end frame, a
    length of 0; the child always ends in ``os._exit`` and prints nothing.
    The child builds all its items before it sends the first, since a pipe
    holds 64 KiB and the parent reads none of it until it has run its own
    part.

    Forked, not spawned: a spawned child would start an interpreter and
    import chaintrace and numpy again, about 0.3 s, most of what a second
    part saves on a 150k-line store. The children read a part of a store
    (decode, count, pickle) or write the rows of a part of a write; a part
    of ``expand_with_noise``'s stream also slices, searches and indexes
    numpy arrays, but makes no BLAS call. So a child runs no code that
    takes a lock another thread of the parent, such as a BLAS thread, may
    have held at the fork.
    """

    def __init__(self, fn: Callable[[_A], Iterable], arg: _A):
        import pickle  # here, so that a command that makes no worker skips it

        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(rfd)
            os.close(wfd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(rfd)
                with open(wfd, "wb") as fh:
                    for item in list(fn(arg)):
                        data = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
                        fh.write(len(data).to_bytes(8, "little"))
                        fh.write(data)
                        fh.flush()  # in the pipe whole before the next is made
                    fh.write(bytes(8))
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        self.pid, self.fh = pid, open(rfd, "rb")
        self.sent, self.finished = 0, False

    def items(self) -> Iterator:
        """The child's items, each loaded when it is asked for and counted in
        ``sent``; ``finished`` says whether the end frame followed them. An
        item is yielded once the frame after it is read, so that the child
        is reaped before its last item is used. A child that failed or died
        sends a prefix of them, the items it wrote whole, and no end frame."""
        import pickle

        head = self.fh.read(8)
        while len(head) == 8 and head != bytes(8):
            size = int.from_bytes(head, "little")
            data = self.fh.read(size)
            if len(data) < size:  # cut short by the child's death
                break
            item, data = pickle.loads(data), None  # its bytes go before it is used
            self.sent += 1
            head = self.fh.read(8)
            if head == bytes(8):
                self.close()
            yield item
            del item  # dropped before the next is loaded
        self.finished = head == bytes(8)
        self.close()

    def close(self) -> None:
        """Stop and reap the child if it is still there."""
        if self.fh is not None:
            self.fh.close()
            self.fh = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
