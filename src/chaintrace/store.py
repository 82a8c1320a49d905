"""Append-only, time-indexed, file-backed event store.

Directory layout: ``NNNNNN.seg`` files in canonical event format (one
JSON record per line) plus ``index.json`` describing every segment.
Single writer, any number of readers; a reader sees everything flushed
before its query began. The index records each segment's committed byte
length; a writer that reopens the store cuts the active segment back to
it, dropping whatever a torn append left behind.
"""

from __future__ import annotations

import json
import math
import os
import signal
from dataclasses import dataclass, asdict
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import DecodeError, IoFailure, OutOfOrder, SchemaError
from .events import LogEvent, decode_event, encode_event, load_json, utf8_fault

DEFAULT_SEGMENT_EVENTS = 1 << 20

_INDEX_FILE = "index.json"

# A full read is split into parts, one per usable CPU, each of at least
# this many lines: a smaller part gains little or loses, since a worker's
# fork, the lines it reads past and its pickled result cost about what
# its core saves (benchmarks/BENCH_features.json).
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
        """Open the store at ``root``; with ``create=False`` a directory
        without ``index.json`` is refused and nothing is created."""
        self.root = root
        self.segment_events = segment_events
        self.segments: list[StoreSegment] = []
        self._active: StoreSegment | None = None
        self._fh = None
        self.rows_scanned = 0  # lines read by queries
        self.rows_skipped = 0  # of those, lines a prefilter left undecoded
        try:
            if create:
                os.makedirs(root, exist_ok=True)
            elif not os.path.isfile(self._index_path()):
                raise IoFailure(f"{root}: not an event store (no {_INDEX_FILE})")
            self._load_index()
        except OSError as exc:
            raise IoFailure(str(exc)) from exc

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
        tmp = self._index_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._index_path())

    # --- writer side ---

    @property
    def last_ts(self) -> int:
        return self.segments[-1].max_ts if self.segments else 0

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
        # "w": a file of this name holds only a torn batch's rows
        self._fh = open(os.path.join(self.root, name), "w", encoding="utf-8")

    def append(self, events: Iterable[LogEvent]) -> int:
        """Append a (ts, id)-sorted batch; durable once this returns."""
        last_ts = self.last_ts
        last_id = self.last_id
        appended = 0
        try:
            for e in events:
                if e.ts < last_ts or e.id <= last_id:
                    raise OutOfOrder(
                        f"event id={e.id} ts={e.ts} regresses behind "
                        f"ts={last_ts} id={last_id}"
                    )
                if self._active is None or self._active.count >= self.segment_events:
                    if self._active is not None:
                        self._seal_active()
                    self._open_segment()
                elif self._fh is None:
                    self._reopen_active()
                self._fh.write(encode_event(e))
                self._fh.write("\n")
                seg = self._active
                if seg.count == 0:
                    seg.min_ts = e.ts
                    seg.min_id = e.id
                seg.max_ts = e.ts
                seg.max_id = e.id
                seg.count += 1
                last_ts, last_id = e.ts, e.id
                appended += 1
            if appended:
                self._sync_active()
                self._write_index()
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        return appended

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

    def _selected(self, t0: float, t1: float) -> list[StoreSegment]:
        """The segments a query of [t0, t1) reads, in order."""
        return [seg for seg in self.segments
                if seg.count and seg.max_ts >= t0 and seg.min_ts < t1]

    def query(
        self,
        t0: float,
        t1: float,
        prefilter: Callable[[str], bool] | None = None,
        lines: range | None = None,
    ) -> Iterator[LogEvent]:
        """Stream stored events with t0 <= ts < t1, up to the first line
        with ``ts >= t1``.

        ``prefilter`` sees each raw line first; a line it rejects is
        counted and skipped without being decoded. ``lines`` keeps to
        that range of the lines the query reads, numbered from 0 across
        its segments; lines outside it are neither decoded nor counted.
        A decoded line whose ts lies outside its segment's indexed
        ``[min_ts, max_ts]`` raises a ``DecodeError`` naming the segment
        file and the line.
        """
        if t0 >= t1:
            raise ValueError(f"require t0 < t1, got [{t0}, {t1})")
        lo, hi = (0, math.inf) if lines is None else (lines.start, lines.stop)
        scanned = skipped = 0
        path = self.root
        end = 0  # number of the line after the segment
        try:
            for seg in self._selected(t0, t1):
                start, end = end, end + seg.count
                if end <= lo:
                    continue
                if start >= hi:
                    break
                path = os.path.join(self.root, seg.path)
                try:
                    fh = open(path, "r", encoding="utf-8")
                except OSError as exc:
                    raise IoFailure(str(exc)) from exc
                first = max(lo - start, 0)
                base = scanned - first  # scanned - base: the line's number
                min_ts, max_ts = seg.min_ts, seg.max_ts
                with fh:
                    # rows flushed after this query began are not read
                    for line in islice(fh, first, min(hi, end) - start):
                        scanned += 1
                        if prefilter is not None and not prefilter(line):
                            skipped += 1
                            continue
                        e = decode_event(line)
                        ts = e.ts
                        if not min_ts <= ts <= max_ts:
                            raise DecodeError(
                                f"{path}: line {scanned - base}: ts {ts} lies outside "
                                f"the segment's indexed range [{min_ts}, {max_ts}]")
                        if ts < t0:
                            continue
                        if ts >= t1:
                            return
                        yield e
        except UnicodeDecodeError:
            raise utf8_fault(path) from None
        finally:  # also when the consumer stops early
            self.rows_scanned += scanned
            self.rows_skipped += skipped

    def query_all(self, prefilter: Callable[[str], bool] | None = None
                  ) -> Iterator[LogEvent]:
        """Every stored event: every line of every non-empty segment."""
        return self.query(-math.inf, math.inf, prefilter)

    def map_parts(self, fn: Callable[[Iterator[LogEvent]], _T]) -> list[_T]:
        """``fn`` of each contiguous part of ``query_all()``, in stream order.

        There is one part per usable CPU, each of at least
        ``MIN_PART_LINES`` lines. Part 0 is read here while forked
        workers read the others. A part whose worker failed, died or
        could not be forked is read here in its turn, so its error, if
        any, is raised where one pass raises it. ``rows_scanned`` counts
        the lines of every part, as one pass does. ``fn`` also runs in the
        forked children, so it must run Python code only, as
        ``features.accumulate_part`` does, and return a picklable result.
        """
        n_lines = self.count()
        n = max(1, min(_usable_cpus(), n_lines // MIN_PART_LINES))
        cuts = [n_lines * i // n for i in range(n + 1)]
        parts = [range(a, b) for a, b in zip(cuts, cuts[1:])]

        def read(part: range) -> tuple[_T, int]:
            before = self.rows_scanned
            result = fn(self.query(-math.inf, math.inf, lines=part))
            return result, self.rows_scanned - before

        workers: list[_Worker] = []
        results: list[_T] = []
        try:
            for part in parts[1:] if hasattr(os, "fork") else ():
                try:
                    workers.append(_Worker(read, part))
                except OSError:  # no process to spare: the rest are read here
                    break
            for i, part in enumerate(parts):
                done = workers[i - 1].result() if 0 < i <= len(workers) else None
                if done is None:
                    results.append(read(part)[0])
                else:
                    results.append(done[0])
                    self.rows_scanned += done[1]
        finally:
            for w in workers:
                w.close()
        return results


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
        import pickle  # here, so that detect, which never forks, skips it

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
