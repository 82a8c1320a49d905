import hashlib
import json
import os
import random
from dataclasses import asdict

import pytest

from chaintrace.errors import BadConfig
from chaintrace.events import EVENT_TYPES, NS, LogEvent, encode_event, from_json
from chaintrace.simulate import (
    _NOISE_CHUNK,
    DEFAULT_RATES,
    SCENARIOS,
    SimConfig,
    expand_with_noise,
    read_truth_file,
    simulate,
    write_truth_file,
)
from chaintrace.store import EventStore


def test_default_case_study_size(case_study):
    # around 1228 events in the ten-minute default window
    _, events, _ = case_study
    assert 1228 * 0.85 <= len(events) <= 1228 * 1.15


def test_stream_is_sorted_with_increasing_ids(case_study):
    _, events, _ = case_study
    assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))
    assert [e.id for e in events] == list(range(1, len(events) + 1))


def test_event_types_in_vocabulary(case_study):
    _, events, _ = case_study
    assert {e.event_type for e in events} <= EVENT_TYPES


def test_determinism_byte_identical():
    a, truth_a = simulate(SimConfig(seed=7, users=20))
    b, truth_b = simulate(SimConfig(seed=7, users=20))
    assert [encode_event(e) for e in a] == [encode_event(e) for e in b]
    assert truth_a.labels == truth_b.labels


# Pinned bytes of simulate(): SHA-256 of the encoded stream followed by
# json.dumps of truth.labels. A reordered or replaced RNG draw changes them,
# which comparing two runs of the same code cannot show.
_SIMULATIONS = {
    "usb, 3 victims": (
        dict(seed=11, users=20, duration=1200, scenario="usb_jpeg_exfil", victims=3),
        "7dd467dcd07cbcd9ebcaeab686764713f3e2d613d7d3bb6bdb105af4ff0f74a4"),
    "truncated after c2": (
        dict(seed=12, users=10, truncate_after="c2"),
        "e6940db30fef9025d51d922479ff92f22131ddd1242dcf0bc4d7fa1163238dc5"),
    "no attack": (
        dict(seed=13, users=10, attack=False),
        "e97ebb543aaa6251989aa3851dfe48938ae7ebb56240c0b975597165668864fa"),
    "other rates": (
        dict(seed=14, users=10, rates={k: 2 * v + 1 for k, v in DEFAULT_RATES.items()}),
        "0264c47f14c026a94277221ea1da046f2e3f751a773eb579ba78a8cb8b1b9260"),
    "20 users, 2 h": (
        dict(seed=15, users=20, duration=7200),
        "b13d8409e7ccb50912c3cd64c58e0c161eab4e3cc7b0009c402472f95f8308e8"),
}


@pytest.mark.parametrize("name", sorted(_SIMULATIONS))
def test_simulate_bytes_are_pinned(name):
    kwargs, digest = _SIMULATIONS[name]
    events, truth = simulate(SimConfig(**kwargs))
    h = hashlib.sha256()
    for e in events:
        h.update(encode_event(e).encode() + b"\n")
    h.update(json.dumps(truth.labels).encode())
    assert h.hexdigest() == digest


def test_seed_changes_stream():
    a, _ = simulate(SimConfig(seed=7, users=20))
    b, _ = simulate(SimConfig(seed=8, users=20))
    assert [encode_event(e) for e in a] != [encode_event(e) for e in b]


def test_truth_labels_point_at_attack_events(case_study):
    _, events, truth = case_study
    by_id = {e.id: e for e in events}
    assert truth.attacker_ip == "172.18.0.3"
    assert truth.victim_hosts == ["ws000"]
    steps = {label for _, label in truth.labels}
    assert steps == {
        "delivery", "exploitation", "installation", "c2",
        "action_sweep", "exfiltration",
    }
    for eid, label in truth.labels:
        e = by_id[eid]
        if label == "exfiltration":
            assert e.event_type == "http_request"
            assert e.attributes["dst_ip"] == truth.attacker_ip
            assert e.attributes["method"] == "POST"
            assert e.attributes["via"] == "direct"


def test_no_attack_means_no_labels():
    events, truth = simulate(SimConfig(seed=5, users=20, attack=False))
    assert truth.labels == []
    # no direct (proxy-bypassing) traffic in benign streams
    assert all(
        e.attributes.get("via") != "direct"
        for e in events if e.event_type == "http_request"
    )


def test_jpeg_count_controls_exfil_posts():
    for count in (1, 30):
        events, truth = simulate(SimConfig(seed=2, users=20, jpeg_count=count))
        exfil = [eid for eid, label in truth.labels if label == "exfiltration"]
        assert len(exfil) == count


def test_truncate_after_drops_later_steps():
    events, truth = simulate(
        SimConfig(seed=2, users=20, truncate_after="installation")
    )
    steps = {label for _, label in truth.labels}
    assert steps == {"delivery", "exploitation", "installation"}


def test_multiple_victims():
    cfg = SimConfig(seed=3, users=20, duration=1200, victims=2)
    events, truth = simulate(cfg)
    assert truth.victim_hosts == ["ws000", "ws001"]
    hosts = {
        e.source_host for e in events
        if e.event_type == "exploit_signature"
    }
    assert hosts == {"ws000", "ws001"}


def test_bad_configs_rejected():
    with pytest.raises(BadConfig):
        simulate(SimConfig(users=0))
    with pytest.raises(BadConfig):
        simulate(SimConfig(scenario="unknown"))
    with pytest.raises(BadConfig):
        simulate(SimConfig(truncate_after="nope"))
    with pytest.raises(BadConfig):
        simulate(SimConfig(users=5, victims=6))
    with pytest.raises(BadConfig):
        # too many victims for the window
        simulate(SimConfig(users=20, duration=600, victims=5))


@pytest.mark.parametrize("start_ts", [0, -1_000_000_000_000_000])
def test_start_ts_must_be_positive(start_ts):
    # the stream would hold events that every reader refuses
    with pytest.raises(BadConfig, match="start_ts"):
        SimConfig(start_ts=start_ts).validate()


def test_start_ts_keeps_every_ts_within_the_bound():
    # every ts lies below start_ts + duration, and none may pass 2**63 - 1
    SimConfig(start_ts=(1 << 63) - 600 * NS, duration=600).validate()
    with pytest.raises(BadConfig, match="start_ts"):
        SimConfig(start_ts=(1 << 63) - 600 * NS + 1, duration=600).validate()


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_rates_must_be_finite(rate):
    # the Poisson sampler never returns for either
    with pytest.raises(BadConfig):
        SimConfig(rates=dict(DEFAULT_RATES, session=rate)).validate()


def test_config_roundtrip():
    cfg = SimConfig(seed=11, users=7, jpeg_count=4)
    assert from_json(SimConfig, asdict(cfg)) == cfg
    with pytest.raises(ValueError, match="seeed: unknown member"):
        from_json(SimConfig, {"seeed": 1})


@pytest.mark.parametrize("rates", [{}, {"session": 4.0},
                                   dict(DEFAULT_RATES, extra=1.0)])
def test_rates_must_name_every_rate(rates):
    # also a config built in code, not only one read from a file
    with pytest.raises(BadConfig, match="config rates: expected a number for each of"):
        simulate(SimConfig(rates=rates))


def test_expand_with_noise_preserves_attack(case_study):
    _, events, truth = case_study
    id_map: dict[int, int] = {}
    expanded = list(expand_with_noise(events, 3.0, seed=1, id_map=id_map))
    assert len(expanded) == 3 * len(events)
    assert all(a.ts <= b.ts for a, b in zip(expanded, expanded[1:]))
    assert [e.id for e in expanded] == list(range(1, len(expanded) + 1))
    by_id = {e.id: e for e in expanded}
    for old in events:
        new = by_id[id_map[old.id]]
        assert (new.ts, new.source_host, new.event_type, new.actor,
                new.attributes) == (old.ts, old.source_host, old.event_type,
                                    old.actor, old.attributes)


def test_expand_with_noise_noise_is_benign(case_study):
    _, events, _ = case_study
    id_map: dict[int, int] = {}
    expanded = list(expand_with_noise(events, 2.0, seed=4, id_map=id_map))
    original_new_ids = set(id_map.values())
    for e in expanded:
        if e.id in original_new_ids:
            continue
        assert e.event_type != "exploit_signature"
        assert e.attributes.get("via") != "direct"


def test_expansion_ending_at_the_bound_reads_back_in_order(tmp_path):
    top = (1 << 63) - 1
    events, _ = simulate(SimConfig(seed=5, users=5, attack=False, start_ts=top - 600 * NS + 1))
    events[-1].ts = top
    stream = expand_with_noise(events, 3.0, seed=6)
    ts = [e.ts for e in stream]
    assert ts == sorted(ts) and ts[-1] == top and ts[0] == events[0].ts
    store = EventStore(str(tmp_path / "s"))
    assert store.append(stream) == len(stream)
    store.close()
    assert [(e.id, e.ts) for e in store.query()] == [(e.id, e.ts) for e in stream]


def test_expand_with_noise_bad_factor(case_study):
    _, events, _ = case_study
    with pytest.raises(BadConfig):
        list(expand_with_noise(events, 0.5, seed=1))


# Pinned bytes of the write path: SHA-256 of the encoded expand_with_noise
# stream followed by json.dumps of its id_map, and of the files of a store
# built from one stream. "fractional" reaches past one noise chunk; "all
# tied" gives every event one ts, so each noise event ties with every
# original and follows them all.
_TIED = [LogEvent(i, 1_700_000_000 * NS, f"ws{i % 3:03d}", "logon", f"u{i % 5:03d}",
                  {"session_id": f"S{i}"}) for i in range(1, 41)]
_EXPANSIONS = {
    "fractional": (60.5, 5, "e50453af1a0ea51c2d10b31892ec743149a1769d42c6a105d432d6bc81ea6702"),
    "factor 1": (1.0, 5, "7dc6b928c3a982bd55792a1e849c63378303bccfb7fa8b0d5b1f2339394386d9"),
    "all tied": (3.5, 8, "1f6b363ea50ddd9c8d8206499c7b7d1b2c9369e47f8cdb769a924ab8250f502a"),
}
# "fractional" in segments of 30,000 events
_STORE_DIGEST = "67592d4847449494475645bfd1ebd56df9c833744a34d2fb498c54cbf4921de0"


def _expansion(case_study, name: str, id_map: dict[int, int]):
    factor, seed, _ = _EXPANSIONS[name]
    base = _TIED if name == "all tied" else case_study[1]
    return expand_with_noise(base, factor, seed, id_map)


@pytest.mark.parametrize("name", sorted(_EXPANSIONS))
def test_expand_with_noise_bytes_are_pinned(case_study, name):
    id_map: dict[int, int] = {}
    h = hashlib.sha256()
    for e in _expansion(case_study, name, id_map):
        h.update(encode_event(e).encode())
        h.update(b"\n")
    h.update(json.dumps(id_map).encode())
    assert h.hexdigest() == _EXPANSIONS[name][2]


def test_store_of_an_expansion_is_pinned(tmp_path, case_study):
    root = str(tmp_path / "store")
    store = EventStore(root, segment_events=30_000)
    store.append(_expansion(case_study, "fractional", {}))
    store.close()
    assert len(store.segments) == 3
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            h.update(f"{name}\n".encode() + fh.read())
    assert h.hexdigest() == _STORE_DIGEST


@pytest.mark.parametrize("factor,tied", [(1.0, False), (3, False), (60.5, False),
                                         (3.5, True)])
def test_expansion_is_a_sequence(case_study, factor, tied):
    base = _TIED if tied else case_study[1]
    id_map: dict[int, int] = {}
    x = expand_with_noise(base, factor, 5, id_map)
    assert sorted(id_map) == sorted(e.id for e in base)  # full before the first read
    events = list(x)
    assert len(x) == len(events)
    assert list(x) == events  # a second walk makes the same events
    n = len(events)
    places = [new - 1 for new in id_map.values()]
    edges = {0, n, *(p + d for p in places for d in (-1, 0, 1) if 0 <= p + d <= n)}
    rng = random.Random(factor)
    edges |= {rng.randrange(n + 1) for _ in range(20)}
    for i in sorted(edges - {n}):
        assert x[i] == events[i]
        assert x[i - n] == events[i - n]
    bounds = sorted(edges)
    for a, b in [*zip(bounds, bounds[1:]), *(sorted(rng.sample(bounds, 2)) for _ in range(10)),
                 (0, n), (n, n), (5, 2)]:
        assert len(x[a:b]) == len(events[a:b])
        assert list(x[a:b]) == events[a:b]
        assert list(x[a:b][1:-1]) == events[a:b][1:-1]
    assert list(x[::7]) == events[::7] and list(x[-3::-11]) == events[-3::-11]
    with pytest.raises(IndexError):
        x[n]


def test_every_noise_event_has_its_own_attrs(case_study):
    id_map: dict[int, int] = {}
    x = expand_with_noise(case_study[1], 3.5, 5, id_map)
    first = list(x)
    assert len({id(e.attributes) for e in first}) == len(first)
    lines = [encode_event(e) for e in first]
    originals = set(id_map.values())
    for e in first:
        if e.id not in originals:
            e.attributes["mutated"] = "1"
    assert [encode_event(e) for e in x] == lines  # the second walk


def _rows_are_the_events(view, events):
    """Each row of ``view`` is the event at its position, its line that
    event encoded; the noise rows' types, and whether a deny occurs."""
    rows = list(view.rows())
    assert len(rows) == len(events)
    types, deny = set(), False
    for (ts, eid, etype, payload), e in zip(rows, events):
        assert (ts, eid, etype) == (e.ts, e.id, e.event_type)
        if type(payload) is str:
            types.add(etype)
            deny |= e.attributes.get("verdict") == "deny"
            assert payload == encode_event(e)
        else:  # an original, which the store encodes
            assert payload == e
    return types, deny


@pytest.mark.parametrize("factor", [1.0, 3.5, 60.5])
@pytest.mark.parametrize("base", [*SCENARIOS, "all tied"])
def test_expansion_rows_are_its_events_encoded(case_study, base, factor):
    if base == "all tied":
        events = _TIED
    elif base == case_study[0].scenario:
        events = case_study[1]
    else:
        events = simulate(SimConfig(scenario=base))[0]
    id_map: dict[int, int] = {}
    x = expand_with_noise(events, factor, 5, id_map)
    stream = list(x)
    n = len(stream)
    types, deny = _rows_are_the_events(x, stream)
    if n > _NOISE_CHUNK:
        assert types == {"http_request", "fw_conn", "file_read", "file_write", "logon",
                         "logoff", "logon_failed", "email_received"} and deny
    # slices that start and end at noise chunk boundaries, at originals and
    # next to them
    places = sorted(new - 1 for new in id_map.values())
    noise_at = sorted(set(range(n)) - set(places))
    bounds = {0, n}
    for at in [*noise_at[::_NOISE_CHUNK][1:], *places[::max(1, len(places) // 20)]]:
        bounds |= {max(at - 1, 0), at, min(at + 1, n)}
    bounds = sorted(bounds)
    rng = random.Random(factor)
    for a, b in [*zip(bounds, bounds[1:]), *(sorted(rng.sample(bounds, 2)) for _ in range(10))]:
        _rows_are_the_events(x[a:b], stream[a:b])


def test_truth_file_roundtrip(tmp_path, case_study):
    _, _, truth = case_study
    path = str(tmp_path / "truth.tsv")
    write_truth_file(path, truth)
    again = read_truth_file(path)
    assert again.attacker_ip == truth.attacker_ip
    assert again.victim_hosts == truth.victim_hosts
    assert again.labels == truth.labels
