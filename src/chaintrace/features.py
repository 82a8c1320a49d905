"""Per-user, per-window behavioural feature vectors and evaluation metrics.

Ten components per (user, window): logon activity, mean session length,
firewall verdict counts, outbound bytes, destination fan-out and file
audit counts. Windows with no relevant event emit nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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


@dataclass
class FeaturePart:
    """What one contiguous part of an event stream adds to the features.

    Parts merge in stream order (``merge_parts``), which pairs the logons
    and logoffs of all parts into sessions.
    """

    cells: dict[tuple[str, int], list[int]]  # (user, window) -> counts; [6] sums bytes_out
    dsts: dict[tuple[str, int], set[str]]
    # each logon and logoff with a session id, in stream order:
    # (user, window, session id, ts, is_logon)
    sessions: list[tuple[str, int, str, int, bool]]
    unmatched_logoffs: int = 0  # logoffs without a session id
    bad_numeric_attrs: int = 0


def accumulate_part(events: Iterable[LogEvent], window: int = 3600) -> FeaturePart:
    """Count one contiguous part of an event stream into ``window``-second cells."""
    window_ns = window * NS
    cells: dict[tuple[str, int], list[int]] = {}
    dsts: dict[tuple[str, int], set[str]] = {}
    sessions: list[tuple[str, int, str, int, bool]] = []
    names: dict[str, str] = {}  # one object per string, pickled once
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
        if et == "logon" or et == "logoff":
            logon = et == "logon"
            c[0 if logon else 2] += 1
            sid = e.attributes.get("session_id")
            if sid:
                sessions.append((names.setdefault(e.actor, e.actor), key[1],
                                 names.setdefault(sid, sid), ts, logon))
            elif not logon:  # no logon can match it
                unmatched += 1
        elif et == "logon_failed":
            c[1] += 1
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
                dst = names.setdefault(dst, dst)
                d = dsts.get(key)
                if d is None:
                    dsts[key] = {dst}
                else:
                    d.add(dst)
    return FeaturePart(cells, dsts, sessions, unmatched, bad)


def merge_parts(parts: Iterable[FeaturePart],
                stats: ExtractionStats | None = None) -> list[FeatureVector]:
    """The vectors of the stream the ``parts`` cut, in stream order, make up.

    Sessions pair here, in stream order: a logon opens (or reopens) its
    (user, session id), and a logoff ends the open one and adds its
    seconds to the logoff's window; any other logoff is unmatched. Each
    window's seconds reach ``np.mean`` in stream order, so the result is
    bit for bit that of one part. The parts are left as they were.
    """
    if stats is None:
        stats = ExtractionStats()
    cells: dict[tuple[str, int], list[int]] = {}
    dsts: dict[tuple[str, int], set[str]] = {}
    durations: dict[tuple[str, int], list[float]] = {}
    logons: dict[tuple[str, str], int] = {}  # open session -> logon ts
    for part in parts:
        stats.unmatched_logoffs += part.unmatched_logoffs
        stats.bad_numeric_attrs += part.bad_numeric_attrs
        for key, c in part.cells.items():
            have = cells.get(key)
            cells[key] = c if have is None else [a + b for a, b in zip(have, c)]
        for key, d in part.dsts.items():
            have = dsts.get(key)
            dsts[key] = d if have is None else have | d
        for user, w, sid, ts, is_logon in part.sessions:
            if is_logon:
                logons[(user, sid)] = ts
                continue
            t0 = logons.pop((user, sid), None)
            if t0 is None:
                stats.unmatched_logoffs += 1
            else:
                durations.setdefault((user, w), []).append((ts - t0) / NS)

    out: list[FeatureVector] = []
    for key in sorted(cells):
        v = np.array([float(n) for n in cells[key]], dtype=np.float64)
        if key in durations:
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

    Sessions pair as ``merge_parts`` pairs them; unmatched logoffs are
    tallied in ``stats``. Cells sum ``bytes_out`` exactly and round the
    sum once.

    An ``EventStore`` is read in the contiguous parts of its
    ``map_parts``; the vectors and ``stats`` are those of one pass,
    whatever the number of parts.
    """
    if window <= 0:
        raise ValueError("window must be > 0")
    count = partial(accumulate_part, window=window)
    if isinstance(events, EventStore):
        parts = events.map_parts(count)
    else:
        parts = [count(events)]
    return merge_parts(parts, stats)


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
