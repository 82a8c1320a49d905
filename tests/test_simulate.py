from dataclasses import asdict

import pytest

from chaintrace.errors import BadConfig
from chaintrace.events import EVENT_TYPES, encode_event
from chaintrace.simulate import (
    DEFAULT_RATES,
    SimConfig,
    expand_with_noise,
    read_truth_file,
    simulate,
    write_truth_file,
)


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


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_rates_must_be_finite(rate):
    # the Poisson sampler never returns for either
    with pytest.raises(BadConfig):
        SimConfig(rates=dict(DEFAULT_RATES, session=rate)).validate()


def test_config_roundtrip():
    cfg = SimConfig(seed=11, users=7, jpeg_count=4)
    assert SimConfig.from_dict(asdict(cfg)) == cfg
    with pytest.raises(BadConfig):
        SimConfig.from_dict({"seeed": 1})


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


def test_expand_with_noise_bad_factor(case_study):
    _, events, _ = case_study
    with pytest.raises(BadConfig):
        list(expand_with_noise(events, 0.5, seed=1))


def test_truth_file_roundtrip(tmp_path, case_study):
    _, _, truth = case_study
    path = str(tmp_path / "truth.tsv")
    write_truth_file(path, truth)
    again = read_truth_file(path)
    assert again.attacker_ip == truth.attacker_ip
    assert again.victim_hosts == truth.victim_hosts
    assert again.labels == truth.labels
