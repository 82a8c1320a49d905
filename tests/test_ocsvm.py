import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaintrace import ocsvm
from chaintrace.errors import (
    BadHyperparameters,
    DimensionMismatch,
    EmptyTrainingSet,
    ModelFormatError,
)
from chaintrace.ocsvm import (
    OneClassSvmModel,
    default_gamma,
    fit,
    rbf_matrix,
    train_ocsvm,
)
from chaintrace.features import N_FEATURES, standardize
from oracles import dual_objective, ocsvm_dual_pgd, ocsvm_smo_ref, rbf_ref


def _cloud(l, d=4, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(l, d))


# --- kernel values ---

def test_rbf_unit_distance():
    # gamma 0.5 at distance 1: exp(-0.5)
    K = rbf_matrix(np.zeros((1, 3)), np.array([[1.0, 0, 0]]), 0.5)
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(np.exp(-0.5))
    assert np.exp(-0.5) == pytest.approx(0.6065306597, abs=1e-9)


def test_rbf_basic_properties():
    x, y = np.array([1.0, 2.0]), np.array([3.0, -1.0])
    K = rbf_matrix(np.array([x, y]), np.array([x, y]), 0.7)
    assert K[0, 0] == K[1, 1] == 1.0
    assert K[0, 1] == K[1, 0] == pytest.approx(rbf_ref(x, y, 0.7))


def test_rbf_matrix_matches_pairwise():
    X = _cloud(8, seed=1)
    Y = _cloud(5, seed=2)
    K = ocsvm.rbf_matrix(X, Y, 0.3)
    for i in range(8):
        for j in range(5):
            assert K[i, j] == pytest.approx(rbf_ref(X[i], Y[j], 0.3), abs=1e-12)


def _rbf_broadcast(X, Y, gamma):
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] \
        - 2.0 * (X @ Y.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


def test_rbf_matrix_equals_broadcast_reference():
    # 600 rows: two full blocks and a partial one
    X = _cloud(600, d=10, seed=21, scale=2.0)
    Y = _cloud(300, d=10, seed=22)
    assert np.array_equal(ocsvm.rbf_matrix(X, X, 0.07), _rbf_broadcast(X, X, 0.07))
    assert np.array_equal(ocsvm.rbf_matrix(X, Y, 0.07), _rbf_broadcast(X, Y, 0.07))
    assert np.array_equal(ocsvm.rbf_matrix(Y, X, 0.07), _rbf_broadcast(Y, X, 0.07))


def test_gram_matrix_exactly_symmetric():
    # one syrk call fills a Gram matrix, so it equals its transpose
    Z = _cloud(700, d=10, seed=23)
    K = ocsvm.rbf_matrix(Z, Z, 0.05)
    assert np.array_equal(K, K.T)


def test_rbf_matrix_peak_memory():
    Z = _cloud(1500, d=10, seed=24)
    tracemalloc.start()
    try:
        K = ocsvm.rbf_matrix(Z, Z, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1500 * 1500 * 8
    assert K.shape == (1500, 1500)


# --- solver vs oracle ---

@pytest.mark.parametrize("l,nu,seed", [
    (4, 0.5, 0), (5, 0.3, 1), (6, 0.25, 2), (7, 0.5, 3), (8, 0.4, 4),
    (8, 0.9, 5), (3, 0.7, 6),
])
def test_smo_matches_projected_gradient(l, nu, seed):
    X = _cloud(l, d=3, seed=seed)
    gamma = 0.5
    K = ocsvm.rbf_matrix(X, X, gamma)
    alpha, rho, iters = train_ocsvm(X, nu, gamma)
    ref = ocsvm_dual_pgd(K, nu)
    assert abs(dual_objective(K, alpha) - dual_objective(K, ref)) <= 1e-6
    C = 1.0 / (nu * l)
    assert abs(alpha.sum() - 1.0) <= 1e-9
    assert (alpha >= 0.0).all() and (alpha <= C + 1e-12).all()


@given(
    l=st.integers(min_value=2, max_value=400),
    d=st.integers(min_value=2, max_value=10),
    nu=st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.9]),
    gamma=st.sampled_from([0.05, 0.1, 0.3, 1.0]),
    cache_rows=st.sampled_from([2, 3, 10, None]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
@example(l=289, d=2, nu=0.05, gamma=0.3, cache_rows=2, seed=1)
# 22.8k iterations: over a Gram matrix from one matrix product, alpha
# drifted 1.2e-11 from the row-cache solve
@example(l=379, d=2, nu=0.1, gamma=1.0, cache_rows=2, seed=5566569)
def test_row_cache_solve_matches_full_gram_smo(l, d, nu, gamma, cache_rows, seed):
    # kernel rows on demand, evicted from a cache of a few rows, solve the
    # same problem as SMO over the whole Gram matrix: the same pairs, so
    # the same iterations and support vectors, and alpha and rho equal up
    # to rounding. The oracle's rows have the solver's bits, and both
    # start from the same sum of rows; the oracle takes rho from a fresh
    # K @ alpha. Over 4,000 drawn examples alpha differed by at most
    # 1e-15 and rho by 1.1e-15. A start gradient of one K @ alpha instead
    # differs in its last bits, which reach alpha through 1 / eta and grow
    # with the steps: 1.8e-12 in the 22.8k-step example.
    Z, _ = standardize(np.random.default_rng(seed).normal(size=(l, d)))
    budget = ocsvm._ROW_CACHE_BYTES if cache_rows is None else cache_rows * 8 * l
    stats = ocsvm.SolverStats()
    with mock.patch.object(ocsvm, "_ROW_CACHE_BYTES", budget):
        alpha, rho, iters = train_ocsvm(Z, nu, gamma, stats=stats)
    ref_alpha, ref_rho, ref_iters = ocsvm_smo_ref(Z, nu, gamma)
    assert iters == ref_iters == stats.iterations
    assert np.array_equal(alpha > 1e-12, ref_alpha > 1e-12)
    assert np.abs(alpha - ref_alpha).max() <= 1e-11
    assert abs(rho - ref_rho) <= 1e-12
    assert stats.kernel_rows <= int(nu * l) + 1 + 2 * iters


def test_row_cache_eviction_changes_nothing():
    # a row recomputed after its eviction has the same bits as before
    Z, _ = standardize(_cloud(800, d=6, seed=25))
    gamma = default_gamma(Z)
    roomy = ocsvm.SolverStats()
    alpha, rho, iters = train_ocsvm(Z, 0.05, gamma, stats=roomy)
    tight = ocsvm.SolverStats()
    with mock.patch.object(ocsvm, "_ROW_CACHE_BYTES", 2 * 8 * len(Z)):
        alpha2, rho2, iters2 = train_ocsvm(Z, 0.05, gamma, stats=tight)
    assert np.array_equal(alpha, alpha2)
    assert rho == rho2 and iters == iters2
    assert tight.kernel_rows > roomy.kernel_rows


def test_row_cache_evicts_least_recently_used():
    Z = _cloud(50, d=3, seed=27)
    rows = ocsvm._KernelRows(Z, 0.3, budget=2 * 8 * len(Z))
    first = rows(0)
    rows(1)
    assert rows(0) is first  # a hit, now the most recent
    rows(2)  # evicts row 1
    assert list(rows.cache) == [0, 2] and rows.computed == 3
    assert np.array_equal(rows(1), ocsvm.rbf_matrix(Z[1:2], Z, 0.3)[0])
    assert list(rows.cache) == [2, 1] and rows.computed == 4


def test_training_holds_no_gram_matrix():
    # SMO touches a few hundred of the 4,000 rows; an l x l buffer would
    # be 128 MB
    l = 4000
    Z, _ = standardize(_cloud(l, d=10, seed=26))
    gamma = default_gamma(Z)
    stats = ocsvm.SolverStats()
    tracemalloc.start()
    try:
        train_ocsvm(Z, 0.05, gamma, stats=stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < l * l * 8 / 4
    assert stats.kernel_rows < l


def test_row_cache_holds_at_most_its_budget():
    # the cache fills up and evicts, and never holds more rows than its
    # budget allows, so training memory stays O(l) whatever SMO reads
    l = 4000
    Z, _ = standardize(_cloud(l, d=10, seed=26))
    held = []
    call = ocsvm._KernelRows.__call__

    def spy(rows, i):
        row = call(rows, i)
        held.append(len(rows.cache))
        return row
    stats = ocsvm.SolverStats()
    with mock.patch.object(ocsvm._KernelRows, "__call__", spy):
        train_ocsvm(Z, 0.05, default_gamma(Z), stats=stats)
    capacity = max(2, ocsvm._ROW_CACHE_BYTES // (8 * l))
    assert max(held) == capacity < stats.kernel_rows


def test_gradient_matches_finite_differences():
    # the dual gradient K @ alpha against central differences of the objective
    X = _cloud(6, seed=7)
    K = ocsvm.rbf_matrix(X, X, 0.4)
    rng = np.random.default_rng(8)
    alpha = rng.uniform(0.1, 0.9, size=6)
    g = K @ alpha
    h = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        fd = (dual_objective(K, alpha + e) - dual_objective(K, alpha - e)) / (2 * h)
        assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))


def test_solution_feasibility_exact():
    X = _cloud(50, seed=9)
    nu = 0.2
    alpha, rho, _ = train_ocsvm(X, nu, 0.3)
    C = 1.0 / (nu * len(X))
    assert abs(alpha.sum() - 1.0) <= 1e-9
    assert alpha.min() >= 0.0
    assert alpha.max() <= C + 1e-12


def test_margin_support_vectors_on_boundary():
    from chaintrace.features import standardize
    Z, _ = standardize(_cloud(60, d=5, seed=10))
    nu, gamma = 0.2, 0.3
    alpha, rho, _ = train_ocsvm(Z, nu, gamma)
    C = 1.0 / (nu * len(Z))
    margin = (alpha > 1e-8) & (alpha < C - 1e-8)
    if margin.any():
        K = ocsvm.rbf_matrix(Z, Z, gamma)
        f = K @ alpha - rho
        assert np.abs(f[margin]).max() <= 1e-6


@pytest.mark.parametrize("l,nu", [(200, 0.1), (300, 0.25), (250, 0.05)])
def test_nu_property(l, nu):
    # nu bounds the outlier fraction and lower-bounds the SV fraction
    rng = np.random.default_rng(l + int(nu * 100))
    X = rng.normal(0.0, 1.0, size=(l, 6))
    from chaintrace.features import standardize
    Z, _ = standardize(X)
    gamma = default_gamma(Z)
    alpha, rho, _ = train_ocsvm(Z, nu, gamma)
    f = ocsvm.rbf_matrix(Z, Z, gamma) @ alpha - rho
    # margin vectors sit within solver tolerance of f = 0; only points
    # clearly below the boundary count as outliers
    outlier_frac = float((f < -1e-5).mean())
    sv_frac = float((alpha > 1e-10).mean())
    assert outlier_frac <= nu + 0.05
    assert sv_frac >= nu - 0.05


def test_permutation_invariance():
    X = _cloud(40, seed=11)
    nu, gamma = 0.2, 0.3
    alpha, rho, _ = train_ocsvm(X, nu, gamma)
    rng = np.random.default_rng(12)
    perm = rng.permutation(40)
    alpha_p, rho_p, _ = train_ocsvm(X[perm], nu, gamma)
    K = ocsvm.rbf_matrix(X, X, gamma)
    Kp = ocsvm.rbf_matrix(X[perm], X[perm], gamma)
    assert abs(dual_objective(K, alpha) - dual_objective(Kp, alpha_p)) <= 1e-6
    # scoring is invariant too
    probe = _cloud(10, seed=13)
    f = ocsvm.rbf_matrix(probe, X, gamma) @ alpha - rho
    fp = ocsvm.rbf_matrix(probe, X[perm], gamma) @ alpha_p - rho_p
    assert np.allclose(f, fp, atol=1e-5)


def test_determinism():
    X = _cloud(30, seed=14)
    a1, r1, i1 = train_ocsvm(X, 0.3, 0.2)
    a2, r2, i2 = train_ocsvm(X, 0.3, 0.2)
    assert np.array_equal(a1, a2)
    assert r1 == r2 and i1 == i2


# --- hyperparameter and input validation ---

def test_bad_hyperparameters():
    X = _cloud(10)
    with pytest.raises(BadHyperparameters):
        train_ocsvm(X, 0.0, 0.5)
    with pytest.raises(BadHyperparameters):
        train_ocsvm(X, 1.0, 0.5)
    for gamma in (0.0, float("nan"), float("inf")):
        with pytest.raises(BadHyperparameters):
            train_ocsvm(X, 0.5, gamma)
    with pytest.raises(EmptyTrainingSet):
        train_ocsvm(X[:1], 0.5, 0.5)


def test_nan_alpha_is_infeasible():
    model = fit(_cloud(20, d=10, seed=3), nu=0.2)
    model.alpha[0] = np.nan
    with pytest.raises(BadHyperparameters):
        model.check_feasible()


def test_fit_dimension_checks():
    with pytest.raises(DimensionMismatch):
        fit(np.zeros(10))
    with pytest.raises(DimensionMismatch):
        fit(np.zeros((5, 7)))
    model = fit(_cloud(20, d=10, seed=3), nu=0.2)
    with pytest.raises(DimensionMismatch):
        model.decision(np.zeros((2, 7)))


def test_default_gamma_formula():
    Z = _cloud(50, d=10, seed=16)
    assert default_gamma(Z) == pytest.approx(1.0 / (10 * Z.var()))


# --- end-to-end fit / scoring / persistence ---

def test_fit_flags_planted_outliers():
    rng = np.random.default_rng(17)
    X = np.zeros((120, 10))
    X[:, :] = rng.normal(0.0, 1.0, size=(120, 10))
    model = fit(X, nu=0.1)
    outliers = model.decision(X) < 0
    assert outliers.mean() <= 0.2  # most training points accepted
    far = X + 25.0
    assert (model.decision(far) < 0).all()


def test_source_set_projection():
    rng = np.random.default_rng(18)
    X = rng.normal(0.0, 1.0, size=(80, 10))
    model = fit(X, nu=0.1, source_set="firewall")
    assert model.support_vectors.shape[1] == 4
    # scoring reads the firewall columns of the full matrix
    f = model.decision(X)
    assert f.shape == (80,)
    shuffled = X.copy()
    shuffled[:, [0, 1, 2, 3, 8, 9]] = rng.normal(size=(80, 6))
    assert np.array_equal(model.decision(shuffled), f)


def test_decision_blocks_match_one_kernel_product():
    # 600 and 700 rows end in a partial block; the blocks' last bits may
    # follow how a threaded BLAS splits each product, not the values
    rng = np.random.default_rng(31)
    model = fit(rng.gamma(2.0, size=(2000, N_FEATURES)), nu=0.1)
    for n in (600, 700):
        X = rng.gamma(2.0, size=(n, N_FEATURES))
        Z, _ = standardize(X, (model.feature_means, model.feature_stds))
        whole = rbf_matrix(Z, model.support_vectors, model.gamma) @ model.alpha - model.rho
        assert np.abs(model.decision(X) - whole).max() <= 1e-15


_EXACT_DECISION = r"""
import numpy as np
from chaintrace import ocsvm
from chaintrace.features import N_FEATURES, standardize

rng = np.random.default_rng(34)
model = ocsvm.fit(rng.gamma(2.0, size=(2000, N_FEATURES)), nu=0.1)
for n in (600, 700, 6100):
    X = rng.gamma(2.0, size=(n, N_FEATURES))
    Z, _ = standardize(X, (model.feature_means, model.feature_stds))
    whole = ocsvm.rbf_matrix(Z, model.support_vectors, model.gamma) @ model.alpha - model.rho
    print(n, len(model.alpha), int((model.decision(X) != whole).sum()))
"""


def test_decision_blocks_equal_one_kernel_product_on_one_blas_thread():
    # A BLAS product gives a row other last bits at the ragged edge of a
    # tile of 4, 8, 12 or 16 rows. Blocks of a multiple of 48 rows keep the
    # tiles where one product over all rows puts them, so on one BLAS
    # thread each score has the bits of the unblocked kernel. 256-row
    # blocks fail here: 12-row tiles leave a 4-row edge in each block, and
    # 2 of this draw's 6,100 scores change.
    assert ocsvm._KERNEL_BLOCK_ROWS % 48 == 0
    src = os.path.dirname(os.path.dirname(ocsvm.__file__))
    one = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    out = subprocess.run(
        [sys.executable, "-c", _EXACT_DECISION],
        env={**os.environ, **one, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True).stdout.split()
    rows, svs, differ = out[0::3], out[1::3], out[2::3]
    assert rows == ["600", "700", "6100"]
    assert int(svs[0]) % 8  # a ragged support-vector count, where edges differ
    assert differ == ["0", "0", "0"]


def test_decision_allocates_one_block_of_kernel():
    rng = np.random.default_rng(32)
    model = fit(rng.gamma(2.0, size=(4000, N_FEATURES)), nu=0.1)
    n_sv = len(model.alpha)
    assert n_sv >= 300
    X = rng.gamma(2.0, size=(5000, N_FEATURES))
    tracemalloc.start()
    try:
        f = model.decision(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.shape == (5000,)
    assert peak < len(X) * n_sv * 8 / 4


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(19)
    X = rng.normal(0.0, 1.0, size=(60, 10))
    model = fit(X, nu=0.1)
    path = str(tmp_path / "model.json")
    model.save(path)
    again = OneClassSvmModel.load(path)
    assert np.allclose(again.decision(X), model.decision(X), atol=1e-12)
    assert again.feature_indices == model.feature_indices


def test_model_load_rejects_tampered_schema(tmp_path):
    import json
    rng = np.random.default_rng(20)
    model = fit(rng.normal(size=(40, 10)), nu=0.2)
    path = str(tmp_path / "model.json")
    model.save(path)
    payload = json.load(open(path))
    payload["feature_indices"] = [0, 1]
    json.dump(payload, open(path, "w"))
    with pytest.raises(ValueError):
        OneClassSvmModel.load(path)


def _null_first(rows):
    """``rows`` with its first number, at any depth, replaced by None."""
    head = rows[0]
    return [_null_first(head) if isinstance(head, list) else None, *rows[1:]]


@pytest.mark.parametrize("member,damage", [
    pytest.param("gamma", lambda p: float("nan"), id="gamma"),
    pytest.param("support_vectors", lambda p: [row[:-1] for row in p["support_vectors"]],
                 id="support_vectors"),
    pytest.param("feature_means", lambda p: p["feature_means"][:-1], id="feature_means"),
    pytest.param("rho", lambda p: None, id="rho-null"),
    pytest.param("rho", lambda p: "0.1", id="rho-string"),
    pytest.param("l", lambda p: True, id="l-bool"),
    pytest.param("gamma", lambda p: True, id="gamma-bool"),
    pytest.param("l", lambda p: 1.5, id="l-float"),
    pytest.param("feature_means", lambda p: _null_first(p["feature_means"]),
                 id="feature_means-null-entry"),
    pytest.param("support_vectors", lambda p: _null_first(p["support_vectors"]),
                 id="support_vectors-null-entry"),
    pytest.param("version", lambda p: "x", id="version-string"),
    pytest.param("feature_stds", lambda p: [0.0, *p["feature_stds"][1:]], id="feature_stds-zero"),
])
def test_model_load_rejects_members_that_do_not_fit(tmp_path, member, damage):
    import json
    model = fit(_cloud(40, d=10, seed=21), nu=0.2)
    path = str(tmp_path / "model.json")
    model.save(path)
    payload = json.load(open(path))
    payload[member] = damage(payload)
    json.dump(payload, open(path, "w"))
    with pytest.raises(ModelFormatError):
        OneClassSvmModel.load(path)


@pytest.mark.parametrize("content", [
    '{"x": 1}', "[1, 2]", "not json", '{"magic": "chaintrace-ocsvm"}',
])
def test_model_load_rejects_foreign_files(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_text(content)
    with pytest.raises(ModelFormatError):
        OneClassSvmModel.load(str(path))


@given(
    l=st.integers(min_value=3, max_value=8),
    nu_pct=st.integers(min_value=20, max_value=90),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_smo_objective_never_beats_oracle_property(l, nu_pct, seed):
    nu = nu_pct / 100.0
    X = _cloud(l, d=3, seed=seed)
    gamma = 0.5
    K = ocsvm.rbf_matrix(X, X, gamma)
    alpha, _, _ = train_ocsvm(X, nu, gamma)
    ref = ocsvm_dual_pgd(K, nu)
    assert dual_objective(K, alpha) <= dual_objective(K, ref) + 1e-6
