import pytest

from chaintrace.errors import (
    NoNetworkElementMatched,
    SchemaError,
    UnknownSequenceType,
)
from chaintrace.graph import apply_rules, build_graph
from chaintrace.killchain import (
    EXIT_FULL,
    EXIT_NO_ALERT,
    EXIT_PARTIAL,
    STATUS_FULL,
    STATUS_NONE,
    STATUS_PARTIAL,
    ChainMatch,
    Element,
    KillChainModel,
    Variant,
    exit_code_for,
    identify_adversary,
    match_killchain,
    model_from_dict,
    reconstruct_attack,
)
from chaintrace.simulate import SimConfig, simulate


def _detect(cfg, rules, model):
    events, truth = simulate(cfg)
    graph = apply_rules(build_graph(events), rules, events)
    matches = match_killchain(graph, model)
    return events, truth, graph, matches


def test_full_chain_on_case_study(case_study, default_rules, default_model):
    _, events, truth = case_study
    graph = apply_rules(build_graph(events), default_rules, events)
    matches = match_killchain(graph, default_model)
    alerting = [m for m in matches if m.status != STATUS_NONE]
    assert len(alerting) == 1
    m = alerting[0]
    assert m.victim_host == truth.victim_host
    assert m.status == STATUS_FULL
    assert m.completeness == 1.0
    assert set(m.matched) >= set(default_model.required_ids())
    assert m.matched["delivery"].variant_id == "2.1"
    assert exit_code_for(matches) == EXIT_FULL


def _victim_match(matches, truth):
    return next(m for m in matches if m.victim_host == truth.victim_host)


def test_bindings_are_temporally_ordered(case_study, default_rules, default_model):
    _, events, truth = case_study
    graph = apply_rules(build_graph(events), default_rules, events)
    m = _victim_match(match_killchain(graph, default_model), truth)
    order = [e.id for e in default_model.elements]
    bound = [m.matched[eid].ts for eid in order if eid in m.matched]
    assert bound == sorted(bound)


def test_adversary_identified(case_study, default_rules, default_model):
    _, events, truth = case_study
    graph = apply_rules(build_graph(events), default_rules, events)
    m = _victim_match(match_killchain(graph, default_model), truth)
    node_id = identify_adversary(m, graph, default_model)
    assert m.adversary == truth.attacker_ip
    assert graph.nodes[node_id].kind == "adversary"


def test_reconstruction_covers_labels(case_study, default_rules, default_model):
    _, events, truth = case_study
    graph = apply_rules(build_graph(events), default_rules, events)
    m = _victim_match(match_killchain(graph, default_model), truth)
    report = reconstruct_attack(m, graph, default_model)
    covered = set()
    for entry in report:
        assert entry["event_ids"] == sorted(entry["event_ids"])
        covered |= set(entry["event_ids"])
    assert truth.labeled_ids() <= covered


def test_truncated_chain_is_partial(default_rules, default_model):
    cfg = SimConfig(seed=42, truncate_after="installation")
    _, truth, _, matches = _detect(cfg, default_rules, default_model)
    alerting = [m for m in matches if m.status != STATUS_NONE]
    assert len(alerting) == 1
    m = alerting[0]
    assert m.victim_host == truth.victim_host
    assert m.status == STATUS_PARTIAL
    # delivery + exploitation of the five required elements
    assert m.completeness == pytest.approx(0.4)
    assert exit_code_for(matches) == EXIT_PARTIAL


def test_usb_variant_binds(default_rules, default_model):
    cfg = SimConfig(seed=42, scenario="usb_jpeg_exfil")
    _, truth, _, matches = _detect(cfg, default_rules, default_model)
    full = [m for m in matches if m.status == STATUS_FULL]
    assert len(full) == 1
    assert full[0].victim_host == truth.victim_host
    assert full[0].matched["delivery"].variant_id == "2.2"


def test_clean_stream_no_alert(default_rules, default_model):
    cfg = SimConfig(seed=13, attack=False)
    _, _, _, matches = _detect(cfg, default_rules, default_model)
    assert all(
        m.completeness < default_model.alert_threshold for m in matches
    )
    assert exit_code_for(matches) == EXIT_NO_ALERT


def test_two_victims_two_matches(default_rules, default_model):
    cfg = SimConfig(seed=6, duration=1200, victims=2)
    _, truth, graph, matches = _detect(cfg, default_rules, default_model)
    full = [m for m in matches if m.status == STATUS_FULL]
    assert sorted(m.victim_host for m in full) == truth.victim_hosts


def test_optional_binding_never_breaks_required(default_rules, default_model):
    # a benign archive write after the exfiltration must not bind as the
    # exfiltration-preparation step and push the chain out of order
    events, truth = simulate(SimConfig(seed=42))
    from chaintrace.events import LogEvent
    last = events[-1]
    events.append(LogEvent(
        last.id + 1, last.ts + 1, truth.victim_host, "file_write", "u000",
        {"path": "C:\\Users\\u000\\backup.zip", "ext": "zip"},
    ))
    graph = apply_rules(build_graph(events), default_rules, events)
    m = _victim_match(match_killchain(graph, default_model), truth)
    assert m.status == STATUS_FULL
    if "prepare_exfiltration" in m.matched:
        assert m.matched["prepare_exfiltration"].ts \
            >= m.matched["actions_on_objectives"].ts


def test_adversary_requires_network_element(default_model):
    m = ChainMatch(victim_host="ws000", status=STATUS_NONE)
    with pytest.raises(NoNetworkElementMatched):
        identify_adversary(m, build_graph([]), default_model)


def test_exit_codes():
    assert exit_code_for([]) == EXIT_NO_ALERT
    part = ChainMatch("h", status=STATUS_PARTIAL)
    full = ChainMatch("h", status=STATUS_FULL)
    assert exit_code_for([part]) == EXIT_PARTIAL
    assert exit_code_for([part, full]) == EXIT_FULL


# --- model validation ---

def _tiny_model(**kw):
    el = Element("e1", "E1", True, [Variant("v", ["burst"])])
    base = dict(elements=[el])
    base.update(kw)
    return KillChainModel(**base)


def test_model_validation():
    with pytest.raises(SchemaError):
        KillChainModel(elements=[]).validate()
    with pytest.raises(SchemaError):
        KillChainModel(
            elements=[Element("e", "E", False, [Variant("v", ["x"])])]
        ).validate()
    with pytest.raises(SchemaError):
        _tiny_model(alert_threshold=0.0).validate()
    dup = _tiny_model()
    dup.elements.append(Element("e1", "E1b", True, [Variant("v", ["burst"])]))
    with pytest.raises(SchemaError):
        dup.validate()
    empty_variants = KillChainModel(elements=[Element("e", "E", True, [])])
    with pytest.raises(SchemaError):
        empty_variants.validate()


def test_model_rejects_unknown_sequence_type(default_rules):
    model = _tiny_model()
    model.elements[0].variants[0].accepts = ["no_such_sequence"]
    with pytest.raises(UnknownSequenceType):
        model.validate(default_rules)


def test_model_from_dict_errors():
    with pytest.raises(SchemaError):
        model_from_dict({"elements": [{"id": "x"}]})


def test_default_model_consistent(default_rules, default_model):
    default_model.validate(default_rules)
    assert len(default_model.required_ids()) == 5
