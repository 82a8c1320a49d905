"""Per-user, per-window behavioural feature vectors and evaluation metrics.

Ten components per (user, window): logon activity, mean session length,
firewall verdict counts, outbound bytes, destination fan-out and file
audit counts. Windows with no relevant event emit nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyInput, EmptyTrainingSet, LengthMismatch
from .events import NS, LogEvent

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


def extract_features(
    events: Iterable[LogEvent],
    window: int = 3600,
    stats: ExtractionStats | None = None,
) -> list[FeatureVector]:
    """One vector per (user, window) holding at least one relevant event.

    Session seconds are attributed to the window of the logoff event;
    logoffs without a matching logon count as zero and are tallied in
    ``stats``.
    """
    if window <= 0:
        raise ValueError("window must be > 0")
    if stats is None:
        stats = ExtractionStats()
    window_ns = window * NS

    acc: dict[tuple[str, int], np.ndarray] = {}
    sessions: dict[tuple[str, str], int] = {}  # (user, session_id) -> logon ts
    session_sums: dict[tuple[str, int], list[float]] = {}
    dsts: dict[tuple[str, int], set[str]] = {}

    def cell(user: str, ts: int) -> tuple[str, int]:
        w = (ts // window_ns) * window_ns
        key = (user, w)
        if key not in acc:
            acc[key] = np.zeros(N_FEATURES, dtype=np.float64)
        return key

    for e in events:
        if e.event_type not in _RELEVANT:
            continue
        key = cell(e.actor, e.ts)
        v = acc[key]
        et = e.event_type
        if et == "logon":
            v[0] += 1
            sid = e.attributes.get("session_id")
            if sid:
                sessions[(e.actor, sid)] = e.ts
        elif et == "logon_failed":
            v[1] += 1
        elif et == "logoff":
            v[2] += 1
            sid = e.attributes.get("session_id")
            t0 = sessions.pop((e.actor, sid), None) if sid else None
            if t0 is None:
                stats.unmatched_logoffs += 1
            else:
                session_sums.setdefault(key, []).append((e.ts - t0) / NS)
        elif et == "fw_conn":
            if e.attributes.get("verdict") == "deny":
                v[5] += 1
            else:
                v[4] += 1
            _add_net(e, key, v, dsts, stats)
        elif et == "http_request":
            _add_net(e, key, v, dsts, stats)
        elif et == "file_read":
            v[8] += 1
        elif et == "file_write":
            v[9] += 1

    out: list[FeatureVector] = []
    for (user, w), v in sorted(acc.items()):
        durations = session_sums.get((user, w))
        if durations:
            v[3] = float(np.mean(durations))
        v[7] = len(dsts.get((user, w), ()))
        out.append(FeatureVector(user=user, window_start=w, values=v))
    return out


def _add_net(e, key, v, dsts, stats) -> None:
    raw = e.attributes.get("bytes_out")
    if raw is not None:
        try:
            v[6] += int(raw, 10)
        except ValueError:
            stats.bad_numeric_attrs += 1
    dst = e.attributes.get("dst_ip")
    if dst:
        dsts.setdefault(key, set()).add(dst)


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
