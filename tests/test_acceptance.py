"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <n> PASS`` / ``FAIL`` line so a plain
``pytest tests/test_acceptance.py`` run doubles as the release checklist.
The large-stream check (criterion 6) takes a couple of minutes.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from chaintrace import ocsvm
from chaintrace.cli import main
from chaintrace.events import encode_event
from chaintrace.features import (
    evaluate,
    extract_features,
    label_windows,
    matrix_of,
    standardize,
)
from chaintrace.graph import PropertyGraph, apply_rules
from chaintrace.killchain import (
    EXIT_FULL,
    EXIT_NO_ALERT,
    EXIT_PARTIAL,
    STATUS_FULL,
    STATUS_NONE,
    exit_code_for,
    identify_adversary,
    match_killchain,
    reconstruct_attack,
)
from chaintrace.ocsvm import fit, train_ocsvm
from chaintrace.secretshare import ShamirShare, gf_mul, reconstruct_secret, split_secret
from chaintrace.simulate import SimConfig, expand_with_noise, simulate
from chaintrace.vault import create_vault
from oracles import dual_objective, gf256_mul_ref, ocsvm_dual_pgd, shamir_eval_ref


@contextmanager
def criterion(n: int, capfd):
    # capfd.disabled() lets the PASS/FAIL line reach the terminal even
    # without -s
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"ACCEPTANCE {n} FAIL", flush=True)
        raise
    with capfd.disabled():
        print(f"ACCEPTANCE {n} PASS", flush=True)


def _detect(events, rules, model):
    graph = apply_rules(PropertyGraph(), rules, events)
    matches = match_killchain(graph.sequences(), model)
    return graph, matches


def test_acceptance_01_case_study_end_to_end(default_rules, default_model, capfd):
    with criterion(1, capfd):
        t0 = time.monotonic()
        events, truth = simulate(SimConfig())
        assert 1228 * 0.85 <= len(events) <= 1228 * 1.15
        graph, matches = _detect(events, default_rules, default_model)
        full = [m for m in matches if m.status == STATUS_FULL]
        assert len(full) == 1
        m = full[0]
        assert m.victim_host == truth.victim_host
        identify_adversary(m, graph.nodes, default_model)
        assert m.adversary == "172.18.0.3"
        assert exit_code_for(matches) == EXIT_FULL
        assert time.monotonic() - t0 < 5.0


def test_acceptance_02_jpeg_volume_sweep(default_rules, default_model, capfd):
    with criterion(2, capfd):
        for seed, count in zip(range(100, 110), (1, 2, 5, 8, 12, 20, 27, 35, 42, 50)):
            events, truth = simulate(SimConfig(seed=seed, jpeg_count=count))
            _, matches = _detect(events, default_rules, default_model)
            full = [m for m in matches if m.status == STATUS_FULL]
            assert len(full) == 1, f"seed={seed} count={count}"
            assert full[0].victim_host == truth.victim_host


def test_acceptance_03_truncated_chain(default_rules, default_model, capfd):
    with criterion(3, capfd):
        events, truth = simulate(SimConfig(truncate_after="installation"))
        _, matches = _detect(events, default_rules, default_model)
        alerting = [m for m in matches if m.status != STATUS_NONE]
        assert len(alerting) == 1
        assert alerting[0].victim_host == truth.victim_host
        assert alerting[0].completeness == pytest.approx(0.4)
        assert exit_code_for(matches) == EXIT_PARTIAL


def test_acceptance_04_no_false_alerts_on_clean_streams(default_rules, default_model, capfd):
    with criterion(4, capfd):
        for seed in range(200, 210):
            events, _ = simulate(SimConfig(seed=seed, attack=False))
            _, matches = _detect(events, default_rules, default_model)
            assert all(
                m.completeness < default_model.alert_threshold for m in matches
            ), f"seed={seed}"
            assert exit_code_for(matches) == EXIT_NO_ALERT


def test_acceptance_05_usb_delivery_variant(default_rules, default_model, capfd):
    with criterion(5, capfd):
        events, truth = simulate(SimConfig(scenario="usb_jpeg_exfil"))
        _, matches = _detect(events, default_rules, default_model)
        full = [m for m in matches if m.status == STATUS_FULL]
        assert len(full) == 1
        assert full[0].victim_host == truth.victim_host
        assert full[0].matched["delivery"].variant_id == "2.2"


def test_acceptance_06_five_million_events(tmp_path, capfd):
    from chaintrace.store import EventStore

    with criterion(6, capfd):
        t0 = time.monotonic()
        target = 5_000_000
        base, truth = simulate(SimConfig())
        factor = target / len(base)
        id_map: dict[int, int] = {}
        store = EventStore(str(tmp_path / "bigstore"))
        store.append(expand_with_noise(base, factor, seed=99, id_map=id_map))
        store.close()
        assert store.count() >= target

        # the detect path the CLI ships, store prefilter included
        report = tmp_path / "report.jsonl"
        rc = main(["detect", "--store", str(tmp_path / "bigstore"),
                   "--out", str(report)])
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        full = [r for r in rows if r["status"] == STATUS_FULL]
        assert any(r["victim"] == truth.victim_host for r in full)
        assert rc == EXIT_FULL
        # the export reads the store as detect does, and reports the same
        exported = tmp_path / "exported.jsonl"
        rc = main(["detect", "--store", str(tmp_path / "bigstore"), "--out", str(exported),
                   "--export", str(tmp_path / "graph.dot")])
        assert rc == EXIT_FULL
        assert exported.read_bytes() == report.read_bytes()

        elapsed = time.monotonic() - t0
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
        assert peak_gb < 4.0, f"peak rss {peak_gb:.2f} GiB"


def test_acceptance_07_svm_detects_anomalous_windows(capfd):
    with criterion(7, capfd):
        window = 3600
        clean_cfg = SimConfig(seed=1000, users=60, duration=36000, attack=False)
        clean_events, _ = simulate(clean_cfg)
        X_train = matrix_of(extract_features(clean_events, window=window))
        model = fit(X_train, nu=0.02, gamma=0.02)

        accs, recalls = [], []
        for seed in range(1, 6):
            cfg = SimConfig(seed=seed, users=60, duration=36000, victims=35)
            events, truth = simulate(cfg)
            vectors = extract_features(events, window=window)
            assert len(vectors) >= 500
            labeled_ids = truth.labeled_ids()
            labeled_events = [e for e in events if e.id in labeled_ids]
            labels = label_windows(vectors, labeled_events, window=window)
            assert sum(labels) >= 0.05 * len(labels)
            preds = list(model.decision(matrix_of(vectors)) < 0)
            m = evaluate(preds, labels)
            accs.append(m["accuracy"])
            recalls.append(m["recall"])
        assert min(accs) >= 0.90, f"accuracies {accs}"
        assert min(recalls) >= 0.80, f"recalls {recalls}"


def test_acceptance_08_solver_matches_independent_oracle(capfd):
    with criterion(8, capfd):
        cases = [(3, 0.7, 0), (4, 0.5, 1), (5, 0.3, 2), (6, 0.25, 3),
                 (7, 0.5, 4), (8, 0.4, 5), (8, 0.9, 6)]
        for l, nu, seed in cases:
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(l, 3))
            gamma = 0.5
            K = ocsvm.rbf_matrix(X, X, gamma)
            alpha, _, _ = train_ocsvm(X, nu, gamma)
            ref = ocsvm_dual_pgd(K, nu)
            assert abs(dual_objective(K, alpha) - dual_objective(K, ref)) <= 1e-6
            C = 1.0 / (nu * l)
            assert abs(float(alpha.sum()) - 1.0) <= 1e-9
            assert alpha.min() >= 0.0 and alpha.max() <= C + 1e-12
            # gradient check: K @ a vs central finite differences
            a = ref
            g = K @ a
            h = 1e-6
            for i in range(l):
                e = np.zeros(l)
                e[i] = h
                fd = (dual_objective(K, a + e) - dual_objective(K, a - e)) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))


def test_acceptance_09_nu_property(capfd):
    with criterion(9, capfd):
        for l, nu in ((200, 0.1), (300, 0.25), (250, 0.05)):
            rng = np.random.default_rng(l)
            Z, _ = standardize(rng.normal(size=(l, 6)))
            gamma = 1.0 / (6 * Z.var())
            alpha, rho, _ = train_ocsvm(Z, nu, gamma)
            f = ocsvm.rbf_matrix(Z, Z, gamma) @ alpha - rho
            assert float((f < -1e-5).mean()) <= nu + 0.05
            assert float((alpha > 1e-10).mean()) >= nu - 0.05


def test_acceptance_10_pseudonymization_invariance(default_rules, default_model, capfd):
    with criterion(10, capfd):
        events, truth = simulate(SimConfig())
        vault, _shares = create_vault(k=2, n=3)
        pseudo = [vault.pseudonymize_event(e) for e in events]

        def report(evs):
            graph, matches = _detect(evs, default_rules, default_model)
            out = []
            for m in sorted(matches, key=lambda m: m.victim_host):
                if m.status == STATUS_NONE:
                    continue
                identify_adversary(m, graph.nodes, default_model)
                rec = reconstruct_attack(m, graph.nodes, default_model)
                out.append((
                    m.victim_host, m.status, m.completeness, m.adversary,
                    [(r["element"], r["variant"], r["event_ids"]) for r in rec],
                ))
            return out

        assert report(events) == report(pseudo)


def test_acceptance_11_secret_sharing(capfd):
    with criterion(11, capfd):
        # field algebra, exhaustively
        for a in range(256):
            for b in range(256):
                assert gf_mul(a, b) == gf256_mul_ref(a, b)
        # frozen 1-byte example: secret 0x53, slope 0x02
        assert [shamir_eval_ref([0x53, 0x02], x) for x in (1, 2, 3)] \
            == [0x51, 0x57, 0x55]
        assert reconstruct_secret(
            [ShamirShare(1, b"\x51"), ShamirShare(3, b"\x55")]
        ) == b"\x53"
        # every k-subset reconstructs, for all k <= n <= 6
        for n in range(1, 7):
            for k in range(1, n + 1):
                rng = random.Random(n * 10 + k)
                secret = bytes(rng.randrange(256) for _ in range(8))
                shares = split_secret(secret, k, n, rng=rng)
                for subset in combinations(shares, k):
                    assert reconstruct_secret(list(subset)) == secret
        # below the threshold every candidate secret stays equally likely
        shares = split_secret(bytes([0x3C]), 2, 2, rng=random.Random(9))
        outcomes = [
            reconstruct_secret([shares[0], ShamirShare(2, bytes([y]))])[0]
            for y in range(256)
        ]
        assert sorted(outcomes) == list(range(256))


def test_acceptance_12_determinism(tmp_path, capfd):
    with criterion(12, capfd):
        # simulation: byte-identical streams for equal seeds
        a, _ = simulate(SimConfig(seed=77))
        b, _ = simulate(SimConfig(seed=77))
        assert "\n".join(encode_event(e) for e in a) \
            == "\n".join(encode_event(e) for e in b)
        # CLI output files, including the model, are byte-identical
        cwd = os.getcwd()
        try:
            os.chdir(tmp_path)
            digests = []
            for run in ("one", "two"):
                os.mkdir(run)
                os.chdir(run)
                assert main(["simulate", "--seed", "7", "--attack", "false",
                             "--out", "ev.jsonl", "--truth", "t.tsv"]) == 0
                assert main(["train", "--events", "ev.jsonl",
                             "--out", "model.json"]) == 0
                digests.append((
                    open("ev.jsonl", "rb").read(),
                    open("t.tsv", "rb").read(),
                    open("model.json", "rb").read(),
                ))
                os.chdir(tmp_path)
            assert digests[0] == digests[1]
        finally:
            os.chdir(cwd)
