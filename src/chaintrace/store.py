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
import os
from dataclasses import dataclass, asdict
from itertools import islice
from typing import Callable, Iterable, Iterator

from .errors import IoFailure, OutOfOrder, SchemaError
from .events import LogEvent, decode_event, encode_event, load_json, utf8_fault

DEFAULT_SEGMENT_EVENTS = 1 << 20

_INDEX_FILE = "index.json"


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

    def query(
        self,
        t0: int,
        t1: int,
        prefilter: Callable[[str], bool] | None = None,
    ) -> Iterator[LogEvent]:
        """Stream stored events with t0 <= ts < t1.

        ``prefilter`` sees each raw line first; a line it rejects is
        counted and skipped without being decoded.
        """
        if t0 >= t1:
            raise ValueError(f"require t0 < t1, got [{t0}, {t1})")
        scanned = skipped = 0
        path = self.root
        try:
            for seg in self.segments:
                if seg.count == 0 or seg.max_ts < t0 or seg.min_ts >= t1:
                    continue
                path = os.path.join(self.root, seg.path)
                try:
                    fh = open(path, "r", encoding="utf-8")
                except OSError as exc:
                    raise IoFailure(str(exc)) from exc
                with fh:
                    # rows flushed after this query began are not read
                    for line in islice(fh, seg.count):
                        scanned += 1
                        if prefilter is not None and not prefilter(line):
                            skipped += 1
                            continue
                        e = decode_event(line)
                        if e.ts < t0:
                            continue
                        if e.ts >= t1:
                            return
                        yield e
        except UnicodeDecodeError:
            raise utf8_fault(path) from None
        finally:  # also when the consumer stops early
            self.rows_scanned += scanned
            self.rows_skipped += skipped

    def query_all(self, prefilter: Callable[[str], bool] | None = None
                  ) -> Iterator[LogEvent]:
        """Full-range query convenience wrapper."""
        if self.count() == 0:
            return iter(())
        return self.query(1, self.last_ts + 1, prefilter)
