"""Deterministic enterprise log simulator with scripted kill-chain attacks.

Produces benign background traffic for a population of users plus, when
enabled, a scripted intrusion (spearphishing PDF or USB drop, exploit,
payload start, HTTP beaconing, JPEG sweep, exfiltration) with a
ground-truth sidecar labelling every attack event.

Identical configs produce byte-identical event streams.
"""

from __future__ import annotations

import gc
import math
import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain, islice
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import BadConfig, MalformedLine
from .events import MAX_ID_TS, NS, LogEvent, TextLines, _quote, decode_event

SCENARIOS = ("cooltype_jpeg_exfil", "usb_jpeg_exfil")

STEP_ORDER = (
    "delivery",
    "exploitation",
    "installation",
    "c2",
    "action_sweep",
    "exfiltration",
)

# Mean benign event rates per user-hour; calibrated once so that the
# default case-study config lands near its target event count, then
# frozen here.
DEFAULT_RATES: dict[str, float] = {
    "session": 4.0,
    "logon_failed": 0.4,
    "http_request": 31.5,
    "fw_conn": 21.0,
    "file_read": 8.5,
    "file_write": 4.0,
    "email_received": 2.0,
}

_EXTERNAL_IPS = [f"203.0.113.{i}" for i in range(1, 41)]
_SENDERS = [f"user{i}@partner{i % 7}.example" for i in range(30)]
_DOC_EXTS = ["docx", "xlsx", "txt", "pdf", "log", "jpg", "zip"]
_DOC_EXT_CUM_WEIGHTS = list(accumulate([30, 20, 20, 10, 10, 6, 4]))
_MAIL_EXTS = ["", "", "", "docx", "xlsx", "zip", "txt", "pdf"]

# seconds an attack scenario spans; each victim's slot holds one plus a minute
_SCENARIO_SECONDS = 320.0


@dataclass
class SimConfig:
    seed: int = 42
    users: int = 100
    duration: int = 600  # simulated seconds
    attack: bool = True
    attacker_ip: str = "172.18.0.3"
    scenario: str = "cooltype_jpeg_exfil"
    jpeg_count: int = 12
    victims: int = 1
    truncate_after: str | None = None
    start_ts: int = 1_700_000_000 * NS
    rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_RATES))

    def validate(self) -> None:
        if self.users < 1:
            raise BadConfig("users must be >= 1")
        if self.duration <= 0:
            raise BadConfig("duration must be > 0")
        if self.start_ts <= 0:  # every reader refuses an event with ts <= 0
            raise BadConfig("start_ts must be > 0")
        if self.start_ts + self.duration * NS > MAX_ID_TS + 1:  # every ts is below it
            raise BadConfig("start_ts + duration * 10**9 must be <= 2**63")
        if self.scenario not in SCENARIOS:
            raise BadConfig(f"unknown scenario {self.scenario!r}")
        if self.jpeg_count < 1:
            raise BadConfig("jpeg_count must be >= 1")
        if self.attack and self.victims < 1:
            raise BadConfig("victims must be >= 1 when attack is enabled")
        if self.attack and self.victims > self.users:
            raise BadConfig("more victims than users")
        if self.attack and self.duration / self.victims < _SCENARIO_SECONDS + 60:
            raise BadConfig(f"duration {self.duration}s too short for {self.victims} victim(s)")
        if self.truncate_after is not None and self.truncate_after not in STEP_ORDER:
            raise BadConfig(f"unknown truncate_after step {self.truncate_after!r}")
        if set(self.rates) != set(DEFAULT_RATES):
            raise BadConfig(f"config rates: expected a number for each of {sorted(DEFAULT_RATES)}")
        if not all(0 <= r < math.inf for r in self.rates.values()):
            raise BadConfig("rates must be finite and non-negative")


@dataclass
class GroundTruth:
    """(event id, step label) pairs plus the victims and the adversary."""

    labels: list[tuple[int, str]] = field(default_factory=list)
    victim_hosts: list[str] = field(default_factory=list)
    attacker_ip: str = ""

    @property
    def victim_host(self) -> str:
        return self.victim_hosts[0] if self.victim_hosts else ""

    def labeled_ids(self) -> set[int]:
        return {eid for eid, _ in self.labels}


def _user_name(i: int) -> str:
    return f"u{i:03d}"


def _host_name(i: int) -> str:
    return f"ws{i:03d}"


def _benign_events(cfg: SimConfig) -> list[LogEvent]:
    """Every user's benign events, in the order drawn, with id 0."""
    rng = random.Random(f"{cfg.seed}:benign")
    # bound once; each call makes the draw that rng.<method>() would
    random_, choice, choices, randrange = rng.random, rng.choice, rng.choices, rng.randrange
    hours = cfg.duration / 3600.0
    duration, start_ts = cfg.duration, cfg.start_ts
    out: list[LogEvent] = []

    def emit(t: float, etype: str, host: str, user: str, attrs: dict[str, str]) -> None:
        out.append(LogEvent(0, start_ts + int(t * NS), host, etype, user, attrs))

    def poisson_times(rate_per_hour: float) -> list[float]:
        n = _poisson(rng, rate_per_hour * hours)
        return [duration * random_() for _ in range(n)]  # uniform(0, duration)

    for ui in range(cfg.users):
        user = _user_name(ui)
        host = _host_name(ui)

        for si, t in enumerate(sorted(poisson_times(cfg.rates["session"]))):
            sid = f"S{ui:03d}-{si}"
            emit(t, "logon", host, user, {"session_id": sid})
            t_off = t + rng.expovariate(1.0 / 900.0)
            if t_off < duration:
                emit(t_off, "logoff", host, user, {"session_id": sid})

        for t in poisson_times(cfg.rates["logon_failed"]):
            emit(t, "logon_failed", host, user, {})

        for t in poisson_times(cfg.rates["http_request"]):
            emit(t, "http_request", "proxy", user, {
                "dst_ip": choice(_EXTERNAL_IPS),
                "dst_port": choice(["443", "443", "443", "80"]),
                "method": "GET" if random_() < 0.9 else "POST",
                "via": "proxy",
                "bytes_out": _HTTP_BYTES[randrange(3800)],  # randrange(200, 4000)
            })

        for t in poisson_times(cfg.rates["fw_conn"]):
            emit(t, "fw_conn", host, user, {
                "dst_ip": choice(_EXTERNAL_IPS),
                "dst_port": choice(["443", "80", "53", "123"]),
                "verdict": "allow" if random_() < 0.97 else "deny",
                "bytes_out": _FW_BYTES[randrange(1900)],  # randrange(100, 2000)
            })

        for etype in ("file_read", "file_write"):
            for t in poisson_times(cfg.rates[etype]):
                ext = choices(_DOC_EXTS, cum_weights=_DOC_EXT_CUM_WEIGHTS)[0]
                name = f"doc{randrange(200)}.{ext}"
                emit(t, etype, host, user, {
                    "path": f"C:\\Users\\{user}\\Documents\\{name}",
                    "ext": ext,
                })

        for t in poisson_times(cfg.rates["email_received"]):
            ext = choice(_MAIL_EXTS)
            attrs = {"email_from": choice(_SENDERS)}
            if ext:
                attrs["attachment_ext"] = ext
            emit(t, "email_received", host, user, attrs)

    return out


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth sampler, chunked so exp(-lam) never underflows."""
    if lam <= 0:
        return 0
    total = 0
    while lam > 25:
        total += _poisson(rng, 25)
        lam -= 25
    limit = 2.718281828459045 ** (-lam)
    n, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return total + n
        n += 1


def scenario_events(cfg: SimConfig, victim_index: int,
                    t_start: float) -> list[tuple[LogEvent, str]]:
    """One scripted intrusion on the given victim: (event, step label) pairs, ids 0."""
    rng = random.Random(f"{cfg.seed}:attack:{victim_index}")
    user = _user_name(victim_index)
    host = _host_name(victim_index)
    out: list[tuple[LogEvent, str]] = []

    def emit(t: float, etype: str, attrs: dict[str, str], label: str) -> None:
        out.append((LogEvent(0, cfg.start_ts + int(t * NS), host, etype, user, attrs), label))

    steps_wanted = STEP_ORDER
    if cfg.truncate_after is not None:
        steps_wanted = STEP_ORDER[: STEP_ORDER.index(cfg.truncate_after) + 1]

    t = t_start
    if cfg.scenario == "cooltype_jpeg_exfil":
        emit(t, "email_received", {
            "email_from": "mallory@badcorp.example",
            "attachment_ext": "pdf",
        }, "delivery")
        parent = "acrord32.exe"
    else:  # usb_jpeg_exfil
        emit(t, "usb_insert", {"device": "USB\\VID_0781&PID_5581"}, "delivery")
        parent = "explorer.exe"

    if "exploitation" in steps_wanted:
        t += rng.uniform(30, 50)
        emit(t, "exploit_signature", {"signature": "CVE-2010-2883"}, "exploitation")

    if "installation" in steps_wanted:
        t += rng.uniform(8, 15)
        emit(t, "process_start", {"image": "payload.exe", "parent": parent},
             "installation")

    if "c2" in steps_wanted:
        t_beacon = t + rng.uniform(15, 25)
        for _ in range(4):
            emit(t_beacon, "http_request", {
                "dst_ip": cfg.attacker_ip,
                "dst_port": "8080",
                "method": "GET",
                "via": "direct",
                "bytes_out": str(rng.randrange(200, 600)),
            }, "c2")
            t_beacon += rng.uniform(18, 26)
        t = t_beacon

    if "action_sweep" in steps_wanted:
        t_scan = t + rng.uniform(5, 12)
        scan_files = [
            (f"C:\\Users\\{user}\\Documents\\doc{i}.docx", "docx")
            for i in range(20)
        ] + [
            (f"C:\\Users\\{user}\\Pictures\\img{i:03d}.jpg", "jpg")
            for i in range(cfg.jpeg_count)
        ]
        for path, ext in scan_files:
            emit(t_scan, "file_read", {"path": path, "ext": ext}, "action_sweep")
            t_scan += rng.uniform(0.4, 1.1)
        t = t_scan

    if "exfiltration" in steps_wanted:
        t_post = t + rng.uniform(5, 10)
        for i in range(cfg.jpeg_count):
            emit(t_post, "http_request", {
                "dst_ip": cfg.attacker_ip,
                "dst_port": "8080",
                "method": "POST",
                "via": "direct",
                "bytes_out": str(rng.randrange(50_000, 900_000)),
            }, "exfiltration")
            t_post += rng.uniform(1.5, 3.5)

    return out


def _attack_start_times(cfg: SimConfig) -> list[float]:
    slot = cfg.duration / cfg.victims
    return [i * slot + 120.0 for i in range(cfg.victims)]


def simulate(cfg: SimConfig) -> tuple[list[LogEvent], GroundTruth]:
    """Run one simulation; returns the sorted stream and its ground truth.

    The stream is built with the cyclic garbage collector paused: the
    build makes no reference cycles, so the collector would free nothing,
    yet each of its full passes would rescan every event made so far.
    """
    cfg.validate()
    enabled = gc.isenabled()
    gc.disable()
    try:
        events = _benign_events(cfg)
        truth = GroundTruth(attacker_ip=cfg.attacker_ip)
        attack: list[tuple[LogEvent, str]] = []
        if cfg.attack:
            for vi, t0 in enumerate(_attack_start_times(cfg)):
                attack += scenario_events(cfg, vi, t0)
                truth.victim_hosts.append(_host_name(vi))
            events += [e for e, _ in attack]
        events.sort(key=attrgetter("ts"))  # stable: ties keep the order made
        for new_id, e in enumerate(events, 1):
            e.id = new_id
        truth.labels = sorted((e.id, label) for e, label in attack)
    finally:
        if enabled:
            gc.enable()
    # hand the events to the oldest generation, so that no young pass sweeps
    # them later; unfreeze() would also thaw what a caller froze
    if gc.get_freeze_count() == 0:
        gc.freeze()
        gc.unfreeze()
    return events, truth


_NOISE_CHUNK = 1 << 16  # noise events converted to Python ints at once
_HTTP_BYTES = [str(200 + k) for k in range(3800)]
_FW_BYTES = [str(100 + k) for k in range(1900)]
_NOISE_USERS = [f"n{u:04d}" for u in range(500)]
_NOISE_HOSTS = [f"nws{u:04d}" for u in range(500)]
# doc names by aux % 200; 5 divides 200, so the extension is _DOC_EXTS[aux % 5]
_NOISE_FILE = (("path", [f"C:\\Users\\{user}\\Documents\\doc" for user in _NOISE_USERS],
                [f"{k}.{_DOC_EXTS[k % 5]}" for k in range(200)]),
               ("ext", None, [_DOC_EXTS[k % 5] for k in range(200)]))
_NOISE_SESSION = (("session_id", [f"N{u:04d}-" for u in range(500)],
                   [str(k) for k in range(97)]),)
# The noise types in draw order: each one's name, its draw weight, its
# host by user index, and its attributes in line order as (key, values by
# user index or None, values by aux draw). A value is its user's entry, if
# any, then entry aux % len of its aux values; only the first attribute
# may have values by user. The noise events' canonical lines are made
# from this table (_noise_makers).
_NOISE_KINDS = (
    ("http_request", 30, ["proxy"] * 500,  # logged by the proxy
     (("dst_ip", None, _EXTERNAL_IPS), ("dst_port", None, ["443"]), ("method", None, ["GET"]),
      ("via", None, ["proxy"]), ("bytes_out", None, _HTTP_BYTES))),
    ("fw_conn", 20, _NOISE_HOSTS,
     (("dst_ip", None, _EXTERNAL_IPS), ("dst_port", None, ["443"]),
      ("verdict", None, ["allow"] * 97 + ["deny"] * 3), ("bytes_out", None, _FW_BYTES))),
    ("file_read", 8, _NOISE_HOSTS, _NOISE_FILE),
    ("file_write", 4, _NOISE_HOSTS, _NOISE_FILE),
    ("logon", 4, _NOISE_HOSTS, _NOISE_SESSION),
    ("logoff", 3, _NOISE_HOSTS, _NOISE_SESSION),
    ("logon_failed", 0.4, _NOISE_HOSTS, ()),
    ("email_received", 2, _NOISE_HOSTS, (("email_from", None, _SENDERS),)),
)


def expand_with_noise(
    events: list[LogEvent],
    factor: float,
    seed: int,
    id_map: dict[int, int] | None = None,
) -> Sequence[LogEvent]:
    """Interleave seeded benign-only noise to reach factor x len(events).

    ``events`` must be sorted by ts. The result is renumbered 1, 2, ...
    in ts order; an original goes before any noise event of the same ts.
    It is a sized, re-iterable and sliceable sequence whose rows are made
    as they are read: its ``rows()`` gives the stream as canonical rows,
    the noise as lines made from pre-quoted tables, which
    ``EventStore.append`` writes as they are, and its events are those
    rows decoded. Pass ``id_map`` to receive old id -> new id for the
    original events (ground-truth relabeling); it is complete when this
    call returns, before the stream is read. All other fields of the
    original events are preserved verbatim; every noise event has its own
    attrs dict. A factor whose noise draws do not fit in memory is a
    BadConfig.
    """
    if factor < 1:
        raise BadConfig("factor must be >= 1")
    if not events:
        raise BadConfig("cannot expand an empty stream")

    import numpy as np  # here, so that simulate() without expansion skips it

    n_orig = len(events)
    n_noise = int(round(factor * n_orig)) - n_orig
    rng = np.random.default_rng(seed)
    t_lo, t_hi = events[0].ts, events[-1].ts

    try:
        ts_arr = np.sort(rng.integers(t_lo, t_hi, size=n_noise, dtype=np.int64, endpoint=True))
        weights = np.array([kind[1] for kind in _NOISE_KINDS], dtype=np.float64)
        probs = weights / weights.sum()
        type_idx = rng.choice(len(_NOISE_KINDS), size=n_noise, p=probs)
        user_idx = rng.integers(0, 500, size=n_noise)
        aux = rng.integers(0, 1 << 30, size=n_noise)
    except MemoryError:
        raise BadConfig(f"expand factor {factor}: {n_noise} noise events "
                        "do not fit in memory") from None

    orig_ts = np.array([e.ts for e in events], dtype=np.int64)
    # each original's place in the stream: the noise events before it, and
    # the originals
    places = (np.searchsorted(ts_arr, orig_ts, "left") + np.arange(n_orig)).tolist()
    if id_map is not None:
        id_map.update(zip([e.id for e in events], [at + 1 for at in places]))
    columns = (orig_ts, ts_arr, type_idx, user_idx, aux)
    _noise_makers()  # made here, so that a forked writer's worker shares them
    return _Expansion(events, places, columns, 0, n_orig + n_noise)


def _noise(columns: tuple, first: int, stop: int) -> Iterator[tuple]:
    """The canonical rows of noise events ``first`` to ``stop - 1`` of an
    expansion, in ts order (see ``_noise_makers``), from its numpy
    ``columns``: the originals' ts, then the noise ts, type, user and aux
    draws."""
    import numpy as np

    periods, offsets, row = _noise_makers()
    orig_ts, ts_arr, type_idx, user_idx, aux = columns

    def chunks() -> Iterator[Iterator]:
        # Python ints, converted a chunk of each array at a time: indexing
        # numpy arrays and formatting their scalars per event costs more,
        # and whole-array lists would hold about 100 B per noise event
        for lo in range(first, stop, _NOISE_CHUNK):
            hi = min(lo + _NOISE_CHUNK, stop)
            ts_c, t = ts_arr[lo:hi], type_idx[lo:hi]
            # one more than its place: the noise and the originals of no later ts before it
            ids = np.searchsorted(orig_ts, ts_c, "right") + np.arange(lo + 1, hi + 1)
            by_user = t * len(_NOISE_USERS) + user_idx[lo:hi]
            by_aux = offsets[t] + aux[lo:hi] % periods[t]
            yield map(row, ids.tolist(), ts_c.tolist(), t.tolist(), by_user.tolist(),
                      by_aux.tolist())
    return chain.from_iterable(chunks())


@cache
def _noise_makers() -> tuple:
    """``_NOISE_KINDS`` as the noise walk reads it: each kind's aux period
    and the offset of its first entry by aux draw, then the maker of a
    noise event's canonical row ``(ts, id, type, line)`` from its id, ts,
    kind, entry by user (kind and user index) and entry by aux draw
    (offset plus aux % period). The line is its id and ts digits, the
    quoted text up to the aux part of its first value, by user, and the
    rest, by aux draw, as ``encode_event`` writes it; every value is
    quoted here once."""
    import numpy as np

    names, periods = [], []
    heads, tails = [], []  # by user, by aux draw

    def inner(s: str) -> str:  # quoted, but without its quotes
        return _quote(s)[1:-1]

    for name, _, kind_hosts, attrs in _NOISE_KINDS:
        assert not any(values for _, values, _ in attrs[1:])
        keys = [key for key, _, _ in attrs]
        names.append(name)
        user_parts = (attrs[0][1] if attrs else None) or [""] * len(_NOISE_USERS)
        head = f',"type":{_quote(name)},"actor":'
        heads += [f',"host":{_quote(host)}{head}{_quote(user)},"attrs":{{'
                  + (f'{_quote(keys[0])}:"{inner(prefix)}' if keys else "")
                  for host, user, prefix in zip(kind_hosts, _NOISE_USERS, user_parts)]
        periods.append(math.lcm(*(len(table) for _, _, table in attrs)))
        for k in range(periods[-1]):
            values = [table[k % len(table)] for _, _, table in attrs]
            tails.append("".join([f'{inner(values[0])}"', *(f",{_quote(key)}:{_quote(v)}"
                                  for key, v in zip(keys[1:], values[1:])), "}}"])
                         if keys else "}}")
    offsets = [0, *accumulate(periods)][:-1]

    def row(nid: int, ts: int, t: int, h: int, k: int) -> tuple:
        return ts, nid, names[t], f'{{"id":{nid},"ts":{ts}{heads[h]}{tails[k]}'

    return np.array(periods), np.array(offsets), row


class _Expansion(Sequence):
    """Positions ``start`` to ``stop - 1`` of an expanded stream, made as
    they are read: each read is one walk of the noise from its first
    position, with the originals put in their places on the way. A slice
    is another such view; an index reads one position. ``rows()`` gives
    the canonical rows that the store writes, and iterating gives those
    rows' ``LogEvent``s: an original's renumbered event, and each noise
    line decoded."""

    def __init__(self, events: list[LogEvent], places: list[int], columns: tuple,
                 start: int, stop: int):
        self._events, self._places, self._columns = events, places, columns
        self._start, self._stop = start, stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self) -> Iterator[LogEvent]:
        return (decode_event(p) if type(p) is str else p for _, _, _, p in self.rows())

    def rows(self) -> Iterator[tuple[int, int, str, str | LogEvent]]:
        """The view's events as ``EventStore.append`` takes them, one
        ``(ts, id, type, payload)`` row each: a noise event's payload is
        its canonical line, as ``encode_event`` writes it; an original's
        is its renumbered ``LogEvent``, which the store encodes."""
        places = self._places
        start, stop = self._start, self._stop
        # originals j to j_end - 1 fall in the view; the noise events in it
        # are those from start - j on
        j, j_end = bisect_left(places, start), bisect_left(places, stop)
        noise = _noise(self._columns, start - j, stop - j_end)

        def runs() -> Iterator[Iterable]:  # the noise before each original, and it
            at = start
            for i in range(j, j_end):
                yield islice(noise, places[i] - at)
                e = self._events[i]
                e = LogEvent(places[i] + 1, e.ts, e.source_host, e.event_type, e.actor,
                             e.attributes)
                yield [(e.ts, e.id, e.event_type, e)]
                at = places[i] + 1
            yield noise
        return chain.from_iterable(runs())

    def __getitem__(self, i):
        rows = range(self._start, self._stop)[i]
        if isinstance(i, slice):
            if rows.step == 1:
                return _Expansion(self._events, self._places, self._columns,
                                  rows.start, max(rows.start, rows.stop))
            return [self._at(k) for k in rows]
        return self._at(rows)

    def _at(self, k: int) -> LogEvent:
        return next(iter(_Expansion(self._events, self._places, self._columns, k, k + 1)))


def write_truth_file(path: str, truth: GroundTruth) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# attacker_ip={truth.attacker_ip}\n")
        fh.write(f"# victim_hosts={','.join(truth.victim_hosts)}\n")
        for eid, label in truth.labels:
            fh.write(f"{eid}\t{label}\n")


def read_truth_file(path: str) -> GroundTruth:
    truth = GroundTruth()

    def parse(line: str) -> None:
        line = line.rstrip("\n")
        if line.startswith("# attacker_ip="):
            truth.attacker_ip = line.split("=", 1)[1]
        elif line.startswith("# victim_hosts="):
            hosts = line.split("=", 1)[1]
            truth.victim_hosts = hosts.split(",") if hosts else []
        elif line:
            try:
                eid, label = line.split("\t")
                truth.labels.append((int(eid), label))
            except ValueError as exc:  # too few or many tabs, or a bad event id
                raise MalformedLine(f"expected '<event id>\\t<label>': {exc}") from None

    for _ in TextLines(path, parse):
        pass
    return truth
