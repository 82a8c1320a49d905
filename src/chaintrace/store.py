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
import json
import math
import os
import signal
from dataclasses import dataclass, asdict
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import DecodeError, IoFailure, OutOfOrder, SchemaError
from .events import EVENT_TYPES, LogEvent, TextLines, decode_event, encode_event, load_json

DEFAULT_SEGMENT_EVENTS = 1 << 20
WRITE_BATCH_LINES = 4096  # rows per write call: under 1 MiB of this store's lines

_INDEX_FILE = "index.json"

# A full read is split into parts, one per usable CPU, each of at least
# this many lines: a smaller part gains little or loses, since a worker's
# fork, the lines it reads past and its pickled result cost about what
# its core saves. Feature extraction and detect's rule pass break even
# near it (benchmarks/BENCH_features.json, benchmarks/BENCH_rules.json).
MIN_PART_LINES = 10_000

_T = TypeVar("_T")


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
            if seg.count < 0:
                raise SchemaError(f"store index {path}: malformed: "
                                  f"segments[{i}].count: must be >= 0, got {seg.count}")
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

        A batch that raises before it is indexed is dropped at the next
        reopen; if it was the store's first, it is dropped here, with the
        segment files and the directories it made, so that no half-made
        store is left behind.
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
        last_ts = self.last_ts
        last_id = self.last_id
        appended = 0
        lines: list[str] = []  # encoded rows of the active segment, not yet written
        try:
            for e in events:
                # what decode_event refuses and encode_event lets through
                if e.ts <= 0:
                    raise SchemaError(f"event id={e.id}: ts must be > 0, got {e.ts}")
                if e.event_type not in EVENT_TYPES:
                    raise SchemaError(f"event id={e.id}: unknown type {e.event_type!r}")
                if e.ts < last_ts or e.id <= last_id:
                    raise OutOfOrder(
                        f"event id={e.id} ts={e.ts} regresses behind "
                        f"ts={last_ts} id={last_id}"
                    )
                if not lines:
                    if self._active is None or self._active.count >= self.segment_events:
                        if self._active is not None:
                            self._seal_active()
                        self._open_segment()
                    elif self._fh is None:
                        self._reopen_active()
                    first = e
                    room = min(WRITE_BATCH_LINES, self.segment_events - self._active.count)
                lines.append(encode_event(e))
                last_ts, last_id = e.ts, e.id
                if len(lines) >= room:
                    batch, lines = lines, []
                    appended += self._write(batch, first, last_ts, last_id)
        finally:  # also when an event raises: its valid prefix is written
            if lines:
                appended += self._write(lines, first, last_ts, last_id)
        if appended:
            self._sync_active()
            self._write_index()
        return appended

    def _write(self, lines: list[str], first: LogEvent, last_ts: int, last_id: int) -> int:
        """Write the rows of ``first`` through (``last_ts``, ``last_id``) and index them."""
        self._fh.write("\n".join(lines) + "\n")
        seg = self._active
        if seg.count == 0:
            seg.min_ts, seg.min_id = first.ts, first.id
        seg.max_ts, seg.max_id = last_ts, last_id
        seg.count += len(lines)
        return len(lines)

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
        ``MIN_PART_LINES`` lines. Forked workers read every part but the
        first, which is read here when the first result is asked for. A
        part's result is collected only when it is asked for, so the
        consumer may use and drop each part before the next arrives. A
        part whose worker failed, died or could not be forked is read here
        in its turn, so its error, if any, is raised where one pass raises
        it. ``rows_scanned`` and ``rows_skipped`` count the lines of every
        part, as one pass does. ``fn`` also runs in the forked children, so
        it must run Python code only, as ``features.accumulate_part`` does,
        and return a picklable result. Closing the generator, or reading it
        to its end, stops and reaps every worker.
        """
        n_lines = self.count()
        n = max(1, min(_usable_cpus(), n_lines // MIN_PART_LINES))
        cuts = [n_lines * i // n for i in range(n + 1)]
        parts = [range(a, b) for a, b in zip(cuts, cuts[1:])]

        def read(part: range) -> tuple[_T, int, int]:
            scanned, skipped = self.rows_scanned, self.rows_skipped
            result = fn(self.query(prefilter, lines=part))
            return result, self.rows_scanned - scanned, self.rows_skipped - skipped

        workers: list[_Worker] = []
        try:
            for part in parts[1:] if hasattr(os, "fork") else ():
                try:
                    workers.append(_Worker(read, part))
                except OSError:  # no process to spare: the rest are read here
                    break
            for i, part in enumerate(parts):
                sent = workers[i - 1].result() if 0 < i <= len(workers) else None
                if sent is None:
                    yield fn(self.query(prefilter, lines=part))
                    continue
                result, scanned, skipped = sent
                del sent
                self.rows_scanned += scanned
                self.rows_skipped += skipped
                yield result
                del result  # dropped before the next part is collected
        finally:
            for w in workers:
                w.close()


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


class _Worker:
    """``fn(arg)`` run in a forked child, its result pickled back through
    a pipe; the child always ends in ``os._exit`` and prints nothing.

    Forked, not spawned: a spawned child would start an interpreter and
    import chaintrace and numpy again, about 0.3 s, most of what a second
    part saves on a 150k-line store. The child runs Python code only
    (decode, count, pickle), so it takes no lock that another thread of
    the parent, such as a BLAS thread, may have held at the fork.
    """

    def __init__(self, fn, arg):
        import pickle  # here, so that a command that reads no store in parts skips it

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
                    pickle.dump(fn(arg), fh, pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        self.pid, self.fd = pid, rfd

    def result(self):
        """The child's result, or None if it failed or died first."""
        import pickle

        with open(self.fd, "rb") as fh:
            self.fd = None
            data = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        # a child exits 0 only once it has written its whole result
        return pickle.loads(data) if status == 0 else None

    def close(self) -> None:
        """Stop and reap the child if it is still there."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
