"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own code paths: the dual solver
oracles are projected-gradient descent and an SMO over a full Gram
matrix built a row at a time by broadcasting, window aggregation is an
explicit quadratic scan, and GF(2^8) multiplication is schoolbook polynomial
arithmetic with long-division reduction, the canonical event decoder
is ``json.loads`` followed by explicit member checks, and kill-chain
binding scans every sequence for each element instead of keeping sorted
per-victim lists, and feature extraction is one serial replay of the
stream with a single table of open sessions.
"""

from __future__ import annotations

import json

import numpy as np


# --- GF(2^8) reference ---

def gf256_mul_ref(a: int, b: int) -> int:
    """Polynomial multiply then reduce mod x^8+x^4+x^3+x+1."""
    prod = 0
    for bit in range(8):
        if (b >> bit) & 1:
            prod ^= a << bit
    for bit in range(14, 7, -1):
        if (prod >> bit) & 1:
            prod ^= 0x11B << (bit - 8)
    return prod


def shamir_eval_ref(coeffs: list[int], x: int) -> int:
    """Evaluate a GF(2^8) polynomial given its coefficient list."""
    acc = 0
    xp = 1
    for c in coeffs:
        acc ^= gf256_mul_ref(c, xp)
        xp = gf256_mul_ref(xp, x)
    return acc


# --- window aggregation reference ---

def window_scan_ref(
    ts_list: list[int], window: int, min_count: int, max_count: int | None
) -> list[list[int]]:
    """Greedy earliest-start aggregation by explicit index scanning.

    Returns groups of indices into ts_list (assumed sorted ascending).
    """
    groups: list[list[int]] = []
    taken = [False] * len(ts_list)
    while True:
        start = next((i for i, t in enumerate(taken) if not t), None)
        if start is None:
            break
        members = []
        for j in range(start, len(ts_list)):
            if taken[j]:
                continue
            if ts_list[j] - ts_list[start] > window:
                break
            members.append(j)
            if max_count is not None and len(members) >= max_count:
                break
        if len(members) >= min_count:
            for j in members:
                taken[j] = True
            groups.append(members)
        else:
            taken[start] = True
    return groups


# --- one-class SVM dual reference ---

def project_box_simplex(v: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= C, sum(a) = 1} by bisection."""
    lo = float(v.min()) - C - 1.0
    hi = float(v.max()) + 1.0
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        s = np.clip(v - lam, 0.0, C).sum()
        if s > 1.0:
            lo = lam
        else:
            hi = lam
    return np.clip(v - 0.5 * (lo + hi), 0.0, C)


def ocsvm_dual_pgd(
    K: np.ndarray, nu: float, max_iter: int = 500_000, tol: float = 1e-12
) -> np.ndarray:
    """Projected gradient descent on min 1/2 a'Ka over the box-simplex."""
    l = K.shape[0]
    C = 1.0 / (nu * l)
    alpha = project_box_simplex(np.full(l, 1.0 / l), C)
    lip = float(np.linalg.eigvalsh(K).max())
    step = 1.0 / max(lip, 1e-12)
    prev_obj = np.inf
    for _ in range(max_iter):
        grad = K @ alpha
        alpha = project_box_simplex(alpha - step * grad, C)
        obj = 0.5 * float(alpha @ K @ alpha)
        if prev_obj - obj < tol and prev_obj != np.inf:
            break
        prev_obj = obj
    return alpha


def ocsvm_smo_ref(X: np.ndarray, nu: float, gamma: float) -> tuple[np.ndarray, float, int]:
    """The library's SMO (maximal-violating pair, the first index among
    gradients within 1e-12 of the extreme, stop at a KKT gap of 1e-6, the
    same feasible start) run on the whole Gram matrix. Row i is built by
    broadcasting ||x_i||^2 + ||y||^2 - 2 x_i.y with one vector-matrix
    product, as a solver that computes rows on demand builds it: a
    matrix-matrix product rounds x_i.y in other last bits, the distance's
    cancellation takes that to a few 1e-15 in K, and the maintained
    gradient carries it through every step. The start gradient likewise
    sums alpha_k times row k over the non-zero alpha_k, in index order.
    Returns (alpha, rho, iterations), with rho from a fresh K @ alpha."""
    X = np.asarray(X, dtype=np.float64)
    l = len(X)
    sq = (X * X).sum(axis=1)
    K = np.array([np.exp(-gamma * np.maximum(sq[i] + sq - 2.0 * (X[i] @ X.T), 0.0))
                  for i in range(l)])
    C = 1.0 / (nu * l)
    alpha = np.zeros(l)
    n_full = int(nu * l)
    alpha[:n_full] = C
    if n_full < l:
        alpha[n_full] = 1.0 - n_full * C
    g = np.zeros(l)
    for k in np.flatnonzero(alpha):
        g += alpha[k] * K[k]
    iterations = 0
    while True:
        up = np.flatnonzero(alpha < C - 1e-15)
        low = np.flatnonzero(alpha > 1e-15)
        if not len(up) or not len(low):
            break
        i = int(up[g[up] <= g[up].min() + 1e-12][0])
        j = int(low[g[low] >= g[low].max() - 1e-12][0])
        if g[j] - g[i] <= 1e-6 or i == j:
            break
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        delta = min((g[j] - g[i]) / eta, C - alpha[i], alpha[j])
        alpha[i] += delta
        alpha[j] -= delta
        g += delta * (K[:, i] - K[:, j])
        iterations += 1
    g = K @ alpha
    margin = (alpha > 1e-10) & (alpha < C - 1e-10)
    if margin.any():
        rho = float(g[margin].mean())
    else:
        lo, hi = g[alpha <= 1e-10], g[alpha >= C - 1e-10]
        rho = float((lo.min() + hi.max()) / 2.0) if lo.size and hi.size \
            else float(g.mean())
    return alpha, rho, iterations


def dual_objective(K: np.ndarray, alpha: np.ndarray) -> float:
    return 0.5 * float(alpha @ K @ alpha)


def rbf_ref(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    return float(np.exp(-gamma * np.sum((np.asarray(x) - np.asarray(y)) ** 2)))


# --- canonical event decoder reference ---

class RefDecodeError(Exception):
    """A line the reference decoder rejects, with the offset of the fault."""

    def __init__(self, offset: int):
        super().__init__(offset)
        self.offset = offset


def decode_event_ref(text: str, event_types) -> tuple:
    """``(id, ts, host, type, actor, attrs)`` of one canonical line.

    The JSON is parsed by ``json.loads``; a JSON fault raises
    RefDecodeError at its position, a record that breaks the schema at 0.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RefDecodeError(exc.pos) from exc
    if not isinstance(obj, dict):
        raise RefDecodeError(0)
    names = ("id", "ts", "host", "type", "actor", "attrs")
    if any(name not in obj for name in names):
        raise RefDecodeError(0)
    eid, ts, host, etype, actor, attrs = (obj[name] for name in names)
    ok = (
        isinstance(eid, int) and not isinstance(eid, bool) and 0 < eid < 1 << 63
        and isinstance(ts, int) and not isinstance(ts, bool) and 0 < ts < 1 << 63
        and isinstance(etype, str) and etype in event_types
        and isinstance(host, str) and isinstance(actor, str)
        and isinstance(attrs, dict)
        and all(isinstance(v, str) for v in attrs.values())
    )
    if not ok:
        raise RefDecodeError(0)
    return eid, ts, host, etype, actor, attrs


# --- feature extraction reference ---

def extract_features_ref(events, window_ns: int):
    """``({(user, window start): 10 floats}, unmatched logoffs, bad numbers)``.

    One pass in stream order: a logon opens its (user, session) and a
    logoff closes it; ``bytes_out`` sums as an exact integer, skipping
    values that are not decimal or fall outside the signed 64-bit range.
    """
    rows, open_at, spans, dsts = {}, {}, {}, {}
    unmatched = bad = 0
    column = {"logon": 0, "logon_failed": 1, "logoff": 2, "file_read": 8,
              "file_write": 9}
    for e in events:
        if e.event_type not in column and e.event_type not in ("fw_conn", "http_request"):
            continue
        cell = (e.actor, e.ts - e.ts % window_ns)
        row = rows.setdefault(cell, [0] * 10)
        sid = e.attributes.get("session_id")
        if e.event_type in column:
            row[column[e.event_type]] += 1
        if e.event_type == "logon" and sid:
            open_at[(e.actor, sid)] = e.ts
        elif e.event_type == "logoff":
            t0 = open_at.pop((e.actor, sid), None) if sid else None
            if t0 is None:
                unmatched += 1
            else:
                spans.setdefault(cell, []).append((e.ts - t0) / 1e9)
        elif e.event_type in ("fw_conn", "http_request"):
            if e.event_type == "fw_conn":
                row[5 if e.attributes.get("verdict") == "deny" else 4] += 1
            if "bytes_out" in e.attributes:
                try:
                    n = int(e.attributes["bytes_out"], 10)
                except ValueError:
                    n = 1 << 63
                if -(1 << 63) <= n < 1 << 63:
                    row[6] += n
                else:
                    bad += 1
            if e.attributes.get("dst_ip"):
                dsts.setdefault(cell, set()).add(e.attributes["dst_ip"])
    out = {}
    for cell, row in rows.items():
        values = [float(n) for n in row]
        if cell in spans:
            values[3] = float(np.mean(spans[cell]))
        values[7] = float(len(dsts.get(cell, ())))
        out[cell] = values
    return out, unmatched, bad


# --- kill-chain binding reference ---

def match_killchain_ref(sequences, elements, alert_threshold):
    """Greedy earliest binding per victim, by scanning every sequence.

    ``sequences`` holds ``(id, source_host, type, t_start)`` tuples, where
    a falsy host names no victim; ``elements`` holds ``(id, required,
    [(variant id, accepted types), ...])`` in attack order. Per victim, in
    sorted order: each required element takes, from the first variant
    that has any, the unused sequence with the least (t_start, id) at or
    after the previous required binding; then each optional element does
    the same between the nearest bound elements before and after it. A
    used sequence is never bound again.

    Returns ``(victim, {element id: (sequence id, variant id, t_start)},
    completeness, status)`` for every victim that bound anything.
    """
    used: set[str] = set()
    n_required = sum(1 for _, required, _ in elements if required)
    result = []
    for victim in sorted({host for _, host, _, _ in sequences if host}):
        bound: dict[str, tuple] = {}

        def take(variants, lo, hi):
            for variant_id, accepts in variants:
                best = None
                for sid, host, stype, t in sequences:
                    if (host == victim and sid not in used and stype in accepts
                            and lo <= t <= hi
                            and (best is None or (t, sid) < (best[2], best[0]))):
                        best = (sid, variant_id, t)
                if best is not None:
                    used.add(best[0])
                    return best
            return None

        last = -1
        for eid, required, variants in elements:
            if required:
                got = take(variants, last, float("inf"))
                if got is not None:
                    bound[eid] = got
                    last = got[2]
        for i, (eid, required, variants) in enumerate(elements):
            if required:
                continue
            before = [bound[e][2] for e, _, _ in elements[:i] if e in bound]
            after = [bound[e][2] for e, _, _ in elements[i + 1:] if e in bound]
            got = take(variants, max(before, default=-1),
                       min(after, default=float("inf")))
            if got is not None:
                bound[eid] = got
        if not bound:
            continue
        completeness = sum(1 for e, r, _ in elements if r and e in bound) / n_required
        if completeness >= 1.0:
            status = "full"
        elif completeness >= alert_threshold:
            status = "partial"
        else:
            status = "none"
        result.append((victim, bound, completeness, status))
    return result
