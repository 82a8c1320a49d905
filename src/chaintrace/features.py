"""Per-user, per-window behavioural feature vectors and evaluation metrics.

Ten components per (user, window): logon activity, mean session length,
firewall verdict counts, outbound bytes, destination fan-out and file
audit counts. Windows with no relevant event emit nothing.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyInput, EmptyTrainingSet, LengthMismatch
from .events import NS, LogEvent
from .store import EventStore

FEATURE_NAMES = (
    "logon_count",
    "logon_failed_count",
    "logoff_count",
    "mean_session_seconds",
    "fw_allow_count",
    "fw_deny_count",
    "bytes_out",
    "distinct_dst_count",
    "file_read_count",
    "file_write_count",
)

N_FEATURES = len(FEATURE_NAMES)

# feature-source subsets selectable at training time
SOURCE_SETS: dict[str, tuple[int, ...]] = {
    "combined": tuple(range(N_FEATURES)),
    "windows": (0, 1, 2, 3),
    "firewall": (4, 5, 6, 7),
    "fileaudit": (8, 9),
}

_RELEVANT = frozenset({
    "logon", "logoff", "logon_failed", "fw_conn", "http_request",
    "file_read", "file_write",
})


@dataclass
class FeatureVector:
    user: str
    window_start: int  # ns
    values: np.ndarray  # shape (10,)


@dataclass
class ExtractionStats:
    unmatched_logoffs: int = 0
    bad_numeric_attrs: int = 0


# A bytes_out value outside the signed 64-bit range counts as a bad numeric
# attribute and is not added.
_BYTES_MIN, _BYTES_END = -(1 << 63), 1 << 63

# A store is read in parts, one per usable CPU, each of at least this many
# lines: a smaller part gains little or loses, since a worker's fork, the
# lines it reads past and its pickled result cost about what its core
# saves (benchmarks/BENCH_features.json).
MIN_PART_LINES = 10_000


@dataclass
class FeaturePart:
    """What one contiguous part of an event stream adds to the features.

    Parts merge in stream order (``merge_parts``). A part does not know the
    sessions open when it starts, so a logoff whose session it has not seen
    stays unresolved until the merge.
    """

    cells: dict[tuple[str, int], list[int]]  # (user, window) -> counts; [6] sums bytes_out
    dsts: dict[tuple[str, int], set[str]]
    # per cell, in stream order: the seconds of each session the part
    # ended, or (session, logoff ts) for a logoff of a session it had not seen
    durations: dict[tuple[str, int], list[float | tuple[tuple[str, str], int]]]
    # each session the part logged on or off: its logon ts if the part
    # leaves it open, else None
    sessions: dict[tuple[str, str], int | None]
    unmatched_logoffs: int = 0
    bad_numeric_attrs: int = 0
    rows_scanned: int = 0  # store lines read (store parts only)
    stopped: bool = False  # the part ended at a line past the store's last ts


def accumulate_part(events: Iterable[LogEvent], window: int = 3600) -> FeaturePart:
    """Count one contiguous part of an event stream into ``window``-second cells."""
    window_ns = window * NS
    cells: dict[tuple[str, int], list[int]] = {}
    dsts: dict[tuple[str, int], set[str]] = {}
    durations: dict[tuple[str, int], list] = {}
    sessions: dict[tuple[str, str], int] = {}  # (user, session_id) -> logon ts
    touched: set[tuple[str, str]] = set()  # sessions logged on or off in this part
    names: dict[str, str] = {}
    unmatched = bad = 0
    for e in events:
        et = e.event_type
        if et not in _RELEVANT:
            continue
        ts = e.ts
        key = (e.actor, (ts // window_ns) * window_ns)
        c = cells.get(key)
        if c is None:
            c = cells[key] = [0] * N_FEATURES
        if et == "logon":
            c[0] += 1
            sid = e.attributes.get("session_id")
            if sid:
                session = (e.actor, sid)
                sessions[session] = ts
                touched.add(session)
        elif et == "logon_failed":
            c[1] += 1
        elif et == "logoff":
            c[2] += 1
            sid = e.attributes.get("session_id")
            session = (e.actor, sid)
            if not sid:
                unmatched += 1
            elif session in sessions:
                durations.setdefault(key, []).append((ts - sessions.pop(session)) / NS)
            elif session in touched:  # its logon was ended here already
                unmatched += 1
            else:  # a logon before this part may have opened it
                durations.setdefault(key, []).append((session, ts))
                touched.add(session)
        elif et == "file_read":
            c[8] += 1
        elif et == "file_write":
            c[9] += 1
        else:  # fw_conn, http_request
            attrs = e.attributes
            if et == "fw_conn":
                c[5 if attrs.get("verdict") == "deny" else 4] += 1
            raw = attrs.get("bytes_out")
            if raw is not None:
                try:
                    n = int(raw, 10)
                except ValueError:
                    n = None
                if n is not None and _BYTES_MIN <= n < _BYTES_END:
                    c[6] += n
                else:
                    bad += 1
            dst = attrs.get("dst_ip")
            if dst:
                dst = names.setdefault(dst, dst)  # one object per address
                d = dsts.get(key)
                if d is None:
                    dsts[key] = {dst}
                else:
                    d.add(dst)
    return FeaturePart(cells, dsts, durations,
                       {s: sessions.get(s) for s in touched}, unmatched, bad)


def merge_parts(parts: Iterable[FeaturePart],
                stats: ExtractionStats | None = None) -> list[FeatureVector]:
    """The vectors of the stream the ``parts`` cut, in stream order, make up.

    A logoff of a session its part had not seen ends the session that the
    parts before it left open, if any. Session seconds are attributed to
    the window of the logoff; each window's reach ``np.mean`` in stream
    order, so the result is bit for bit that of one part. The parts are
    left as they were.
    """
    if stats is None:
        stats = ExtractionStats()
    cells: dict[tuple[str, int], list[int]] = {}
    dsts: dict[tuple[str, int], set[str]] = {}
    durations: dict[tuple[str, int], list[float]] = {}
    sessions: dict[tuple[str, str], int] = {}  # left open by the parts so far
    for part in parts:
        stats.unmatched_logoffs += part.unmatched_logoffs
        stats.bad_numeric_attrs += part.bad_numeric_attrs
        for key, c in part.cells.items():
            have = cells.get(key)
            cells[key] = c if have is None else [a + b for a, b in zip(have, c)]
        for key, d in part.dsts.items():
            have = dsts.get(key)
            dsts[key] = d if have is None else have | d
        for key, ds in part.durations.items():
            into = durations.setdefault(key, [])
            for d in ds:
                # a logoff of a session the part had not seen; a part holds
                # at most one per session, so the cells' order does not matter
                if type(d) is tuple:
                    session, ts = d
                    t0 = sessions.pop(session, None)
                    if t0 is None:
                        stats.unmatched_logoffs += 1
                        continue
                    d = (ts - t0) / NS
                into.append(d)
        for session, logon in part.sessions.items():
            if logon is None:
                sessions.pop(session, None)
            else:
                sessions[session] = logon

    out: list[FeatureVector] = []
    for key in sorted(cells):
        v = np.array([float(n) for n in cells[key]], dtype=np.float64)
        if durations.get(key):
            v[3] = float(np.mean(durations[key]))
        v[7] = len(dsts.get(key, ()))
        out.append(FeatureVector(user=key[0], window_start=key[1], values=v))
    return out


def extract_features(
    events: Iterable[LogEvent] | EventStore,
    window: int = 3600,
    stats: ExtractionStats | None = None,
) -> list[FeatureVector]:
    """One vector per (user, window) holding at least one relevant event.

    Session seconds are attributed to the window of the logoff event;
    logoffs without a matching logon count as zero and are tallied in
    ``stats``. Cells sum ``bytes_out`` exactly and round the sum once.

    An ``EventStore`` is read as ``query_all()`` reads it, in contiguous
    parts: one per usable CPU, each of at least ``MIN_PART_LINES`` lines.
    Forked workers read the parts after the first. The vectors, ``stats``
    and the store's row counts are those of one pass, whatever the number
    of parts; an error is raised as one pass raises it.
    """
    if window <= 0:
        raise ValueError("window must be > 0")
    if isinstance(events, EventStore):
        parts = _store_parts(events, window)
    else:
        parts = [accumulate_part(events, window)]
    return merge_parts(parts, stats)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _store_parts(store: EventStore, window: int) -> list[FeaturePart]:
    """The parts of ``store.query_all()`` up to the first that stopped.

    Part 0 is read here while forked workers read the others. A part
    whose worker failed or died is read here in its turn, so its error,
    if any, is raised where one pass would raise it.
    """
    lines = store.line_count()
    n = max(1, min(_usable_cpus(), lines // MIN_PART_LINES))
    cuts = [lines * i // n for i in range(n + 1)]
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]

    def read(part_lines: range) -> FeaturePart:
        before = store.rows_scanned
        part = accumulate_part(store.query_all(lines=part_lines), window)
        part.rows_scanned = store.rows_scanned - before
        part.stopped = store.stopped
        return part

    workers: list[_Worker] = []
    parts: list[FeaturePart] = []
    try:
        for part_lines in ranges[1:] if hasattr(os, "fork") else ():
            try:
                workers.append(_Worker(read, part_lines))
            except OSError:  # no process to spare: the rest are read here
                break
        for i, part_lines in enumerate(ranges):
            part = workers[i - 1].result() if 0 < i <= len(workers) else None
            if part is None:
                part = read(part_lines)
            else:
                store.rows_scanned += part.rows_scanned
            parts.append(part)
            if part.stopped:  # one pass would read no further
                break
    finally:
        for w in workers:
            w.close()
    return parts


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


def matrix_of(vectors: list[FeatureVector]) -> np.ndarray:
    """One row per vector; no vectors give shape (0, N_FEATURES)."""
    if not vectors:
        return np.empty((0, N_FEATURES), dtype=np.float64)
    return np.array([fv.values for fv in vectors], dtype=np.float64)


def standardize(
    X: np.ndarray, stats: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Z-score per dimension; zero-variance dimensions get std 1."""
    X = np.asarray(X, dtype=np.float64)
    if stats is None:
        if X.size == 0:
            raise EmptyTrainingSet("cannot derive stats from an empty set")
        means = X.mean(axis=0)
        stds = X.std(axis=0)
        stds = np.where(stds <= 0.0, 1.0, stds)
    else:
        means, stds = stats
    return (X - means) / stds, (means, stds)


def evaluate(predictions: list[bool], labels: list[bool]) -> dict:
    """Standard binary metrics; ``True`` means anomalous."""
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not predictions:
        raise EmptyInput("no samples")
    tp = sum(1 for p, y in zip(predictions, labels) if p and y)
    fp = sum(1 for p, y in zip(predictions, labels) if p and not y)
    fn = sum(1 for p, y in zip(predictions, labels) if not p and y)
    tn = sum(1 for p, y in zip(predictions, labels) if not p and not y)
    total = tp + fp + fn + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall else 0.0
    )
    return {
        "accuracy": (tp + tn) / total,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
    }


def label_windows(
    vectors: list[FeatureVector],
    labeled_events: list[LogEvent],
    window: int = 3600,
) -> list[bool]:
    """A window is anomalous iff its user has a ground-truth event in it."""
    window_ns = window * NS
    hot: set[tuple[str, int]] = {
        (e.actor, (e.ts // window_ns) * window_ns) for e in labeled_events
    }
    return [(fv.user, fv.window_start) in hot for fv in vectors]
