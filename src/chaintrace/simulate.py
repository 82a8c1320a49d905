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
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import BadConfig, MalformedLine
from .events import NS, LogEvent, TextLines

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
_NOISE_TYPES = (
    "http_request", "fw_conn", "file_read", "file_write",
    "logon", "logoff", "logon_failed", "email_received",
)
_NOISE_WEIGHTS = (30, 20, 8, 4, 4, 3, 0.4, 2)
_NOISE_USERS = [f"n{u:04d}" for u in range(500)]
_NOISE_HOSTS = [f"nws{u:04d}" for u in range(500)]
_NOISE_DOCS = [f"C:\\Users\\{user}\\Documents\\doc" for user in _NOISE_USERS]
_NOISE_SESSIONS = [f"N{u:04d}-" for u in range(500)]
# doc names by aux % 200; 5 divides 200, so the extension is _DOC_EXTS[aux % 5]
_NOISE_DOC_NAMES = [f"{k}.{_DOC_EXTS[k % 5]}" for k in range(200)]
_NOISE_DOC_EXTS = [_DOC_EXTS[k % 5] for k in range(200)]
_HTTP_BYTES = [str(200 + k) for k in range(3800)]
_FW_BYTES = [str(100 + k) for k in range(1900)]
# the noise loop takes aux % 40 and aux % 30 for these
assert len(_EXTERNAL_IPS) == 40 and len(_SENDERS) == 30


def expand_with_noise(
    events: list[LogEvent],
    factor: float,
    seed: int,
    id_map: dict[int, int] | None = None,
) -> Iterator[LogEvent]:
    """Interleave seeded benign-only noise to reach factor x len(events).

    ``events`` must be sorted by ts. The result is renumbered 1, 2, ...
    in ts order; an original goes before any noise event of the same ts.
    Pass ``id_map`` to receive old id -> new id for the original events
    (ground-truth relabeling); it is complete when this call returns,
    before the stream is read. All other fields of the original events
    are preserved verbatim; every noise event has its own attrs dict.
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

    ts_arr = np.sort(rng.integers(t_lo, t_hi + 1, size=n_noise, dtype=np.int64))
    weights = np.array(_NOISE_WEIGHTS, dtype=np.float64)
    probs = weights / weights.sum()
    type_idx = rng.choice(len(_NOISE_TYPES), size=n_noise, p=probs)
    user_idx = rng.integers(0, 500, size=n_noise)
    aux = rng.integers(0, 1 << 30, size=n_noise)

    orig_ts = np.array([e.ts for e in events], dtype=np.int64)
    # the number of noise events before each original, and its new id
    cuts = np.searchsorted(ts_arr, orig_ts, "left")
    orig_ids = (cuts + np.arange(1, n_orig + 1)).tolist()
    if id_map is not None:
        id_map.update(zip([e.id for e in events], orig_ids))

    def noise() -> Iterator[LogEvent]:
        # Python ints, converted a chunk of each array at a time: indexing
        # numpy arrays and formatting their scalars per event costs more,
        # and whole-array lists would hold about 100 B per noise event
        for lo in range(0, n_noise, _NOISE_CHUNK):
            hi = min(lo + _NOISE_CHUNK, n_noise)
            ts_c = ts_arr[lo:hi]
            ids = np.searchsorted(orig_ts, ts_c, "right") + np.arange(lo + 1, hi + 1)
            for nid, ts, ti, u, a in zip(ids.tolist(), ts_c.tolist(), type_idx[lo:hi].tolist(),
                                         user_idx[lo:hi].tolist(), aux[lo:hi].tolist()):
                host = _NOISE_HOSTS[u]
                if ti == 0:  # http_request, logged by the proxy
                    host = "proxy"
                    attrs = {"dst_ip": _EXTERNAL_IPS[a % 40], "dst_port": "443",
                             "method": "GET", "via": "proxy",
                             "bytes_out": _HTTP_BYTES[a % 3800]}
                elif ti == 1:  # fw_conn
                    attrs = {"dst_ip": _EXTERNAL_IPS[a % 40], "dst_port": "443",
                             "verdict": "allow" if a % 100 < 97 else "deny",
                             "bytes_out": _FW_BYTES[a % 1900]}
                elif ti <= 3:  # file_read, file_write
                    k = a % 200
                    attrs = {"path": _NOISE_DOCS[u] + _NOISE_DOC_NAMES[k],
                             "ext": _NOISE_DOC_EXTS[k]}
                elif ti <= 5:  # logon, logoff
                    attrs = {"session_id": f"{_NOISE_SESSIONS[u]}{a % 97}"}
                elif ti == 6:  # logon_failed
                    attrs = {}
                else:  # email_received
                    attrs = {"email_from": _SENDERS[a % 30]}
                yield LogEvent(nid, ts, host, _NOISE_TYPES[ti], _NOISE_USERS[u], attrs)

    def stream() -> Iterator[LogEvent]:
        rest = noise()
        done = 0
        for cut, new_id, e in zip(cuts.tolist(), orig_ids, events):
            yield from islice(rest, cut - done)
            done = cut
            yield LogEvent(new_id, e.ts, e.source_host, e.event_type, e.actor, e.attributes)
        yield from rest

    return stream()


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
