"""Deterministic enterprise log simulator with scripted kill-chain attacks.

Produces benign background traffic for a population of users plus, when
enabled, a scripted intrusion (spearphishing PDF or USB drop, exploit,
payload start, HTTP beaconing, JPEG sweep, exfiltration) with a
ground-truth sidecar labelling every attack event.

Identical configs produce byte-identical event streams.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import BadConfig, MalformedLine
from .events import NS, LogEvent, from_json, utf8_fault

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
_DOC_EXT_WEIGHTS = [30, 20, 20, 10, 10, 6, 4]
_MAIL_EXTS = ["", "", "", "docx", "xlsx", "zip", "txt", "pdf"]


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

    @property
    def hosts(self) -> int:
        # one workstation per user plus dc, fw, proxy
        return self.users + 3

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
        if self.truncate_after is not None and self.truncate_after not in STEP_ORDER:
            raise BadConfig(f"unknown truncate_after step {self.truncate_after!r}")
        if not all(0 <= r < math.inf for r in self.rates.values()):
            raise BadConfig("rates must be finite and non-negative")

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """The config a JSON document states (see ``events.from_json``);
        rates must give a number for every rate name."""
        try:
            cfg = from_json(cls, data)
        except ValueError as exc:
            raise BadConfig(f"config {exc}") from None
        if set(cfg.rates) != set(DEFAULT_RATES):
            raise BadConfig(f"config rates: expected a number for each of {sorted(DEFAULT_RATES)}")
        return cfg


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


# internal pre-id event record: (ts_ns, seq, type, host, user, attrs, label)
_Rec = tuple[int, int, str, str, str, dict[str, str], str | None]


def _benign_records(cfg: SimConfig, counter: Iterator[int]) -> list[_Rec]:
    rng = random.Random(f"{cfg.seed}:benign")
    hours = cfg.duration / 3600.0
    out: list[_Rec] = []

    def emit(t: float, etype: str, host: str, user: str, attrs: dict[str, str]) -> None:
        ts = cfg.start_ts + int(t * NS)
        out.append((ts, next(counter), etype, host, user, attrs, None))

    def poisson_times(rate_per_hour: float) -> list[float]:
        n = _poisson(rng, rate_per_hour * hours)
        return [rng.uniform(0, cfg.duration) for _ in range(n)]

    for ui in range(cfg.users):
        user = _user_name(ui)
        host = _host_name(ui)

        for si, t in enumerate(sorted(poisson_times(cfg.rates["session"]))):
            sid = f"S{ui:03d}-{si}"
            emit(t, "logon", host, user, {"session_id": sid})
            t_off = t + rng.expovariate(1.0 / 900.0)
            if t_off < cfg.duration:
                emit(t_off, "logoff", host, user, {"session_id": sid})

        for t in poisson_times(cfg.rates["logon_failed"]):
            emit(t, "logon_failed", host, user, {})

        for t in poisson_times(cfg.rates["http_request"]):
            emit(t, "http_request", "proxy", user, {
                "dst_ip": rng.choice(_EXTERNAL_IPS),
                "dst_port": rng.choice(["443", "443", "443", "80"]),
                "method": "GET" if rng.random() < 0.9 else "POST",
                "via": "proxy",
                "bytes_out": str(rng.randrange(200, 4000)),
            })

        for t in poisson_times(cfg.rates["fw_conn"]):
            emit(t, "fw_conn", host, user, {
                "dst_ip": rng.choice(_EXTERNAL_IPS),
                "dst_port": rng.choice(["443", "80", "53", "123"]),
                "verdict": "allow" if rng.random() < 0.97 else "deny",
                "bytes_out": str(rng.randrange(100, 2000)),
            })

        for etype in ("file_read", "file_write"):
            for t in poisson_times(cfg.rates[etype]):
                ext = rng.choices(_DOC_EXTS, weights=_DOC_EXT_WEIGHTS)[0]
                name = f"doc{rng.randrange(200)}.{ext}"
                emit(t, etype, host, user, {
                    "path": f"C:\\Users\\{user}\\Documents\\{name}",
                    "ext": ext,
                })

        for t in poisson_times(cfg.rates["email_received"]):
            ext = rng.choice(_MAIL_EXTS)
            attrs = {"email_from": rng.choice(_SENDERS)}
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


def scenario_events(
    cfg: SimConfig, victim_index: int, t_start: float, counter: Iterator[int]
) -> list[_Rec]:
    """Emit one scripted intrusion on the given victim, labelled by step."""
    rng = random.Random(f"{cfg.seed}:attack:{victim_index}")
    user = _user_name(victim_index)
    host = _host_name(victim_index)
    out: list[_Rec] = []

    def emit(t: float, etype: str, attrs: dict[str, str], label: str,
             src_host: str | None = None) -> None:
        ts = cfg.start_ts + int(t * NS)
        out.append((ts, next(counter), etype, src_host or host, user, attrs, label))

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
    scenario_len = 320.0
    if slot < scenario_len + 60:
        raise BadConfig(
            f"duration {cfg.duration}s too short for {cfg.victims} victim(s)"
        )
    return [i * slot + 120.0 for i in range(cfg.victims)]


def simulate(cfg: SimConfig) -> tuple[list[LogEvent], GroundTruth]:
    """Run one simulation; returns the sorted stream and its ground truth."""
    cfg.validate()
    counter = iter(range(1, 1 << 62))
    records = _benign_records(cfg, counter)
    truth = GroundTruth(attacker_ip=cfg.attacker_ip)
    if cfg.attack:
        for vi, t0 in enumerate(_attack_start_times(cfg)):
            records.extend(scenario_events(cfg, vi, t0, counter))
            truth.victim_hosts.append(_host_name(vi))

    records.sort(key=lambda r: (r[0], r[1]))
    events: list[LogEvent] = []
    for new_id, (ts, _seq, etype, host, user, attrs, label) in enumerate(records, 1):
        events.append(LogEvent(
            id=new_id, ts=ts, source_host=host, event_type=etype,
            actor=user, attributes=attrs,
        ))
        if label is not None:
            truth.labels.append((new_id, label))
    return events, truth


_NOISE_CHUNK = 1 << 16  # noise events converted to Python ints at once
_NOISE_TYPES = (
    "http_request", "fw_conn", "file_read", "file_write",
    "logon", "logoff", "logon_failed", "email_received",
)
_NOISE_WEIGHTS = np.array([30, 20, 8, 4, 4, 3, 0.4, 2], dtype=np.float64)


def expand_with_noise(
    events: list[LogEvent],
    factor: float,
    seed: int,
    id_map: dict[int, int] | None = None,
) -> Iterator[LogEvent]:
    """Interleave seeded benign-only noise to reach factor x len(events).

    Events are renumbered in timestamp order so ids stay strictly
    increasing; pass ``id_map`` to receive old id -> new id for the
    original events (ground-truth relabeling). All other fields of the
    original events are preserved verbatim.
    """
    if factor < 1:
        raise BadConfig("factor must be >= 1")
    if not events:
        raise BadConfig("cannot expand an empty stream")

    n_orig = len(events)
    n_noise = int(round(factor * n_orig)) - n_orig
    rng = np.random.default_rng(seed)
    t_lo, t_hi = events[0].ts, events[-1].ts

    ts_arr = np.sort(rng.integers(t_lo, t_hi + 1, size=n_noise, dtype=np.int64))
    probs = _NOISE_WEIGHTS / _NOISE_WEIGHTS.sum()
    type_idx = rng.choice(len(_NOISE_TYPES), size=n_noise, p=probs)
    user_idx = rng.integers(0, 500, size=n_noise)
    aux = rng.integers(0, 1 << 30, size=n_noise)

    def noise_iter() -> Iterator[LogEvent]:
        # Python ints, converted a chunk of each array at a time: indexing
        # numpy arrays and formatting their scalars per event costs more,
        # and whole-array lists would hold about 100 B per noise event
        rows = chain.from_iterable(
            zip(*(x[lo:lo + _NOISE_CHUNK].tolist() for x in (ts_arr, type_idx, user_idx, aux)))
            for lo in range(0, n_noise, _NOISE_CHUNK))
        for ts, ti, u, a in rows:
            etype = _NOISE_TYPES[ti]
            user = f"n{u:04d}"
            host = f"nws{u:04d}"
            if etype == "http_request":
                attrs = {
                    "dst_ip": _EXTERNAL_IPS[a % len(_EXTERNAL_IPS)],
                    "dst_port": "443",
                    "method": "GET",
                    "via": "proxy",
                    "bytes_out": str(200 + a % 3800),
                }
                host = "proxy"
            elif etype == "fw_conn":
                attrs = {
                    "dst_ip": _EXTERNAL_IPS[a % len(_EXTERNAL_IPS)],
                    "dst_port": "443",
                    "verdict": "allow" if a % 100 < 97 else "deny",
                    "bytes_out": str(100 + a % 1900),
                }
            elif etype in ("file_read", "file_write"):
                ext = _DOC_EXTS[a % 5]
                attrs = {
                    "path": f"C:\\Users\\{user}\\Documents\\doc{a % 200}.{ext}",
                    "ext": ext,
                }
            elif etype == "email_received":
                attrs = {"email_from": _SENDERS[a % len(_SENDERS)]}
            elif etype == "logon_failed":
                attrs = {}
            else:  # logon / logoff
                attrs = {"session_id": f"N{u:04d}-{a % 97}"}
            yield LogEvent(
                id=0, ts=ts, source_host=host,
                event_type=etype, actor=user, attributes=attrs,
            )

    def merged() -> Iterator[LogEvent]:
        next_id = 0
        it_a = iter(events)
        it_b = noise_iter()
        a = next(it_a, None)
        b = next(it_b, None)
        while a is not None or b is not None:
            take_a = b is None or (a is not None and a.ts <= b.ts)
            next_id += 1
            if take_a:
                if id_map is not None:
                    id_map[a.id] = next_id
                yield LogEvent(
                    id=next_id, ts=a.ts, source_host=a.source_host,
                    event_type=a.event_type, actor=a.actor,
                    attributes=a.attributes,
                )
                a = next(it_a, None)
            else:
                b.id = next_id
                yield b
                b = next(it_b, None)

    return merged()


def write_truth_file(path: str, truth: GroundTruth) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# attacker_ip={truth.attacker_ip}\n")
        fh.write(f"# victim_hosts={','.join(truth.victim_hosts)}\n")
        for eid, label in truth.labels:
            fh.write(f"{eid}\t{label}\n")


def read_truth_file(path: str) -> GroundTruth:
    truth = GroundTruth()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if line.startswith("# attacker_ip="):
                    truth.attacker_ip = line.split("=", 1)[1]
                elif line.startswith("# victim_hosts="):
                    hosts = line.split("=", 1)[1]
                    truth.victim_hosts = hosts.split(",") if hosts else []
                elif line:
                    eid, label = line.split("\t")
                    truth.labels.append((int(eid), label))
    except UnicodeDecodeError:
        raise utf8_fault(path) from None
    except ValueError as exc:  # too few or many tabs, or a bad event id
        raise MalformedLine(
            f"{path}: line {lineno}: expected '<event id>\\t<label>': {exc}") from None
    return truth
