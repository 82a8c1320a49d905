"""nu-one-class SVM: RBF kernel, SMO-style dual solver, scoring, model IO.

Dual problem: minimize 1/2 a'Ka subject to sum(a) = 1 and
0 <= a_i <= 1/(nu*l). Decision value f(x) = sum_i a_i K(x_i, x) - rho;
f < 0 flags an anomaly.

Training never builds the l x l Gram matrix. The solver reads kernel rows
from :class:`_KernelRows`, which computes each row on demand and keeps
the recent ones in an LRU cache of ``_ROW_CACHE_BYTES`` (LIBSVM's kernel
cache; Chang & Lin, ACM TIST 2(3), 2011). SMO reads only a small share of
the rows, so training memory grows with l times the rows it touches,
not with l squared.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BadHyperparameters,
    DidNotConverge,
    DimensionMismatch,
    EmptyTrainingSet,
    ModelFormatError,
)
from .events import load_json
from .features import FEATURE_NAMES, N_FEATURES, SOURCE_SETS, standardize

TOL = 1e-6  # KKT gap at which the solver stops
MAX_ITER = 10**6
# gradients closer than this tie when the solver picks its pair
_TIE = 1e-12

# rows per block of rbf_matrix's elementwise pass
_KERNEL_BLOCK_ROWS = 256

# bytes of kernel rows the solver keeps between iterations
_ROW_CACHE_BYTES = 64 << 20

_MODEL_MAGIC = "chaintrace-ocsvm"
_MODEL_VERSION = 1


def feature_schema_hash(feature_indices: tuple[int, ...]) -> str:
    names = ",".join(FEATURE_NAMES[i] for i in feature_indices)
    return hashlib.sha256(names.encode()).hexdigest()[:16]


def rbf_matrix(X: np.ndarray, Y: np.ndarray, gamma: float,
               yy: np.ndarray | None = None) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||X_i - Y_j||^2) in one len(X) x len(Y) buffer.

    One matmul fills the buffer with X @ Y.T; BLAS runs it as syrk when
    Y is X, so a Gram matrix is exactly symmetric. The elementwise
    transform then overwrites it a block of rows at a time, so the only
    other buffer is one block of squared distances. ``yy``, if given,
    holds the squared norms ``(Y * Y).sum(axis=1)``, for callers that ask
    for many rows against one Y.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    gamma = float(gamma)
    xx = (X * X).sum(axis=1)
    if yy is None:
        yy = (Y * Y).sum(axis=1)
    K = X @ Y.T
    block = np.empty((min(len(K), _KERNEL_BLOCK_ROWS), K.shape[1]))
    for start in range(0, len(K), _KERNEL_BLOCK_ROWS):
        rows = K[start:start + _KERNEL_BLOCK_ROWS]
        sq = block[:len(rows)]
        np.add(xx[start:start + len(rows), None], yy, out=sq)
        rows *= 2.0
        sq -= rows
        np.maximum(sq, 0.0, out=sq)
        sq *= -gamma
        np.exp(sq, out=rows)
    return K


class _KernelRows:
    """Rows of the RBF Gram matrix of ``Z``, each computed on demand by
    :func:`rbf_matrix` and kept in an LRU cache of at most ``budget`` bytes,
    but never fewer than the two rows of a working pair.

    ``computed`` counts every row computed, recomputations after an
    eviction included.
    """

    def __init__(self, Z: np.ndarray, gamma: float, budget: int):
        self.Z = Z
        self.gamma = gamma
        self.sq = (Z * Z).sum(axis=1)
        self.capacity = max(2, budget // (8 * len(Z)))
        self.cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self.computed = 0

    def __call__(self, i: int) -> np.ndarray:
        row = self.cache.get(i)
        if row is not None:
            self.cache.move_to_end(i)
            return row
        row = rbf_matrix(self.Z[i:i + 1], self.Z, self.gamma, self.sq)[0]
        self.computed += 1
        if len(self.cache) >= self.capacity:
            self.cache.popitem(last=False)
        self.cache[i] = row
        return row


def _smo_solve(row, g: np.ndarray, alpha: np.ndarray, C: float) -> tuple[int, float]:
    """Pairwise coordinate descent on min 1/2 a'Ka, sum a = 1, 0<=a<=C,
    in place on ``alpha`` and on its gradient ``g`` = K @ alpha.

    ``row(i)`` returns row i of K. Working pair = maximal KKT violation:
    i with the smallest gradient among a_i < C (room to grow), j with the
    largest gradient among a_j > 0 (room to shrink). Gradients within
    ``_TIE`` of the extreme tie and the first index wins, so the pair does
    not hang on the last bits of a kernel row: an unclipped step leaves
    g_i == g_j in exact arithmetic, and how that tie rounds depends on how
    the BLAS summed each entry. ``eta`` and the gradient update read only
    rows i and j; a row stands in for the column since K is symmetric.
    Returns (iterations, final KKT gap).
    """
    it = 0
    gap = np.inf
    while it < MAX_ITER:
        up = alpha < C - 1e-15
        low = alpha > 1e-15
        if not up.any() or not low.any():
            break
        grow = np.where(up, g, np.inf)
        shrink = np.where(low, g, -np.inf)
        i = int(np.argmax(grow <= grow.min() + _TIE))
        j = int(np.argmax(shrink >= shrink.max() - _TIE))
        gap = g[j] - g[i]
        if gap <= TOL or i == j:
            break
        Ki = row(i)
        Kj = row(j)
        eta = max(Ki[i] + Kj[j] - 2.0 * Ki[j], 1e-12)
        delta = min((g[j] - g[i]) / eta, C - alpha[i], alpha[j])
        alpha[i] += delta
        alpha[j] -= delta
        g += delta * (Ki - Kj)
        it += 1
    return it, float(gap)


def _full_matrix(X: np.ndarray) -> np.ndarray:
    """``X`` as floats, if it has the ``N_FEATURES`` columns of ``matrix_of``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise DimensionMismatch(
            f"expected a matrix of {N_FEATURES} feature columns, got shape {X.shape}")
    return X


def default_gamma(X_std: np.ndarray) -> float:
    """1 / (d * var) over the standardized training matrix."""
    var = float(X_std.var())
    if var <= 0:
        var = 1.0
    return 1.0 / (X_std.shape[1] * var)


@dataclass
class SolverStats:
    iterations: int = 0
    final_gap: float = math.inf
    kernel_rows: int = 0  # kernel rows computed, recomputations included


@dataclass
class OneClassSvmModel:
    nu: float
    gamma: float
    rho: float
    alpha: np.ndarray  # dual coefficients of the support vectors (> 0)
    support_vectors: np.ndarray  # standardized rows
    feature_means: np.ndarray
    feature_stds: np.ndarray
    feature_indices: tuple[int, ...]
    l: int  # training-set size

    def check_feasible(self, full_alpha: np.ndarray | None = None) -> None:
        C = 1.0 / (self.nu * self.l)
        a = full_alpha if full_alpha is not None else self.alpha
        if not abs(float(a.sum()) - 1.0) <= 1e-9:  # a NaN sum fails too
            raise BadHyperparameters(f"sum(alpha) = {a.sum()} != 1")
        if (a < -1e-12).any() or (a > C + 1e-12).any():
            raise BadHyperparameters("alpha outside [0, 1/(nu*l)]")

    # --- scoring ---

    def decision(self, X: np.ndarray) -> np.ndarray:
        """f(x) per row of a full feature matrix (``features.matrix_of``);
        anomalous iff f(x) < 0."""
        X = _full_matrix(X)
        # A column selection is a column-major copy, and the kernel's last
        # bits follow the layout: the full set is scored as given.
        if len(self.feature_indices) != N_FEATURES:
            X = X[:, list(self.feature_indices)]
        Z, _ = standardize(X, (self.feature_means, self.feature_stds))
        return rbf_matrix(Z, self.support_vectors, self.gamma) @ self.alpha - self.rho

    # --- persistence ---

    def save(self, path: str) -> None:
        doc = _ModelFile(
            magic=_MODEL_MAGIC, version=_MODEL_VERSION, nu=self.nu, gamma=self.gamma,
            rho=self.rho, l=self.l, alpha=self.alpha.tolist(),
            support_vectors=self.support_vectors.tolist(),
            feature_means=self.feature_means.tolist(), feature_stds=self.feature_stds.tolist(),
            feature_indices=list(self.feature_indices),
            feature_schema_hash=feature_schema_hash(self.feature_indices))
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(asdict(doc), fh, sort_keys=True)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "OneClassSvmModel":
        doc = load_json(path, "model", _ModelFile, ModelFormatError)
        if (doc.magic, doc.version) != (_MODEL_MAGIC, _MODEL_VERSION):
            raise ModelFormatError(f"{path}: not a version {_MODEL_VERSION} model file")
        indices = tuple(doc.feature_indices)
        try:
            if doc.feature_schema_hash != feature_schema_hash(indices):
                raise ValueError("feature schema hash mismatch")
            # lists of Python floats, so each array is float64
            model = cls(nu=doc.nu, gamma=doc.gamma, rho=doc.rho, alpha=np.array(doc.alpha),
                        support_vectors=np.array(doc.support_vectors),
                        feature_means=np.array(doc.feature_means),
                        feature_stds=np.array(doc.feature_stds), feature_indices=indices, l=doc.l)
            k = len(indices)
            if not (doc.gamma > 0 and (model.feature_stds > 0).all()) \
                    or model.support_vectors.shape != (len(model.alpha), k) \
                    or model.feature_means.shape != (k,) \
                    or model.feature_stds.shape != (k,):
                raise ValueError("gamma, feature_stds or array shapes do not fit the model")
            model.check_feasible()
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"model {path}: malformed: {exc}") from None
        return model


@dataclass
class _ModelFile:
    """The members of a model file, as ``OneClassSvmModel.save`` writes them."""

    magic: str
    version: int
    nu: float
    gamma: float
    rho: float
    l: int
    alpha: list[float]
    support_vectors: list[list[float]]
    feature_means: list[float]
    feature_stds: list[float]
    feature_indices: list[int]
    feature_schema_hash: str


def train_ocsvm(
    X_std: np.ndarray,
    nu: float,
    gamma: float,
    stats: SolverStats | None = None,
) -> tuple[np.ndarray, float, int]:
    """Solve the dual on pre-standardized rows.

    Returns (full alpha over all training points, rho, iterations).
    rho comes from the gradient the solver maintains. Deterministic given
    the input row order. ``stats``, if given, receives the iterations,
    the final KKT gap and the kernel rows computed.
    """
    X_std = np.asarray(X_std, dtype=np.float64)
    l = X_std.shape[0]
    if l < 2:
        raise EmptyTrainingSet(f"need at least 2 vectors, got {l}")
    if not (0.0 < nu < 1.0):
        raise BadHyperparameters(f"nu must be in (0, 1), got {nu}")
    if not (0.0 < gamma < math.inf):  # NaN fails too
        raise BadHyperparameters(f"gamma must be finite and > 0, got {gamma}")

    C = 1.0 / (nu * l)

    # feasible start: fill the first floor(nu*l) boxes, remainder next
    alpha = np.zeros(l, dtype=np.float64)
    n_full = int(nu * l)
    alpha[:n_full] = C
    if n_full < l:
        alpha[n_full] = 1.0 - n_full * C

    # the start gradient K @ alpha is the sum of the rows the solver steps
    # with, and those rows stay in the cache
    rows = _KernelRows(X_std, gamma, _ROW_CACHE_BYTES)
    g = np.zeros(l)
    for k in np.flatnonzero(alpha):
        g += alpha[k] * rows(k)
    iters, gap = _smo_solve(rows, g, alpha, C)
    if stats is not None:
        stats.iterations, stats.final_gap = iters, gap
        stats.kernel_rows = rows.computed
    if gap > TOL:
        raise DidNotConverge(f"gap {gap:.3e} > {TOL:.1e} after {iters} updates")

    margin = (alpha > 1e-10) & (alpha < C - 1e-10)
    if margin.any():
        rho = float(g[margin].mean())
    else:
        lo = g[alpha <= 1e-10]
        hi = g[alpha >= C - 1e-10]
        rho = float((lo.min() + hi.max()) / 2.0) if lo.size and hi.size \
            else float(g.mean())
    return alpha, rho, iters


def fit(
    X: np.ndarray,
    nu: float = 0.05,
    gamma: float | None = None,
    source_set: str = "combined",
    stats: SolverStats | None = None,
) -> OneClassSvmModel:
    """Standardize the ``source_set`` columns of a full feature matrix
    (``features.matrix_of``), pick gamma if unset, train, and package the
    model; ``stats`` goes to :func:`train_ocsvm`."""
    indices = SOURCE_SETS[source_set]
    X = _full_matrix(X)[:, list(indices)]
    Z, (means, stds) = standardize(X)
    if gamma is None:
        gamma = default_gamma(Z)
    alpha, rho, _iters = train_ocsvm(Z, nu, gamma, stats=stats)
    sv_mask = alpha > 0.0
    model = OneClassSvmModel(
        nu=nu,
        gamma=gamma,
        rho=rho,
        alpha=alpha[sv_mask].copy(),
        support_vectors=Z[sv_mask].copy(),
        feature_means=means,
        feature_stds=stds,
        feature_indices=indices,
        l=X.shape[0],
    )
    model.check_feasible(full_alpha=alpha)
    return model
