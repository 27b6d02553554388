"""Soft-margin SVM trained by sequential minimal optimization.

The solver is the classic working-set-of-two scheme: pick a KKT violator,
pair it with a second sample (largest error difference first, then
seeded-random sweeps), solve the 2-variable subproblem analytically, and
keep a full error cache updated incrementally. Termination requires
`max_passes` consecutive full passes without an alpha change, after which
errors are recomputed exactly and the pass repeated until a fresh scan
finds no violation, so the KKT conditions hold at `tolerance` on exit.

Features are min-max scaled to [0,1] per dimension at fit time (the scaling
is stored in the model and applied again when scoring) and training rows are
put in a canonical lexicographic order before solving, which makes the
result independent of input row order. Kernel rows are memoized in a small
LRU cache.

Models serialize as `.fsvm` records in the shared layout of `records`.
"""

import struct
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError
from .records import (check_end, pack_str, read_array, read_header, read_str,
                      read_struct, read_text, write_header)

KERNELS = ("rbf", "linear")

GRID_C = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
GRID_GAMMA = (0.04, 0.0675, 0.095, 0.1225, 0.15)

_MODEL_MAGIC = b"FSVM"
_MODEL_VERSION = 1

_MIN_STEP = 1e-12
_SNAP = 1e-10  # relative distance to a box bound below which alpha snaps onto it
_SWEEP_CAP = 2000
_CACHE_ROWS = 1024  # kernel rows memoized per solve


def derive_seed(seed, *key):
    """An independent 32-bit seed for the sub-task named by `key` under `seed`."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


@dataclass(frozen=True)
class SvmParams:
    C: float
    gamma: float
    tolerance: float = 1e-3
    max_passes: int = 10
    kernel: str = "rbf"

    def __post_init__(self):
        if self.C <= 0:
            raise ConfigurationError("C must be positive")
        if self.gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        if self.tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        if self.max_passes < 1:
            raise ConfigurationError("max_passes must be at least 1")
        if self.kernel not in KERNELS:
            raise ConfigurationError(f"kernel must be one of {KERNELS}")


def default_grid():
    """The stock hyper-parameter grid: C x gamma, row-major in C."""
    return [SvmParams(C=c, gamma=g) for c in GRID_C for g in GRID_GAMMA]


def rbf_kernel(a, b, gamma):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigurationError("rbf_kernel expects two equal-length vectors")
    return float(_kernel_block(SvmParams(C=1.0, gamma=gamma), a[None], b[None])[0, 0])


def _kernel_block(params, A, B):
    """Kernel values between the rows of A (m,d) and B (n,d) -> (m,n)."""
    if params.kernel == "linear":
        return A @ B.T
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-params.gamma * d2)


def _min_max(X, lo, hi):
    """Map each column from [lo, hi] onto [0, 1]; constant columns only shift."""
    span = hi - lo
    return (X - lo) / np.where(span > 0, span, 1.0)


@dataclass(frozen=True)
class SvmModel:
    """Trained classifier: scaled support vectors plus their dual weights."""

    support_vectors: np.ndarray  # (n_sv, d) already min-max scaled
    dual_coefs: np.ndarray       # (n_sv,) alpha_i * y_i
    bias: float
    params: SvmParams
    feature_min: np.ndarray
    feature_max: np.ndarray
    descriptor_id: str = ""

    @property
    def n_dims(self):
        return self.support_vectors.shape[1]

    def scale(self, X):
        """Apply the stored min-max scaling to raw feature rows."""
        return _min_max(np.asarray(X, dtype=np.float64), self.feature_min, self.feature_max)

    def decision_function(self, X):
        """Signed scores for raw (unscaled) feature rows."""
        X = np.asarray(X, dtype=np.float64)
        one = X.ndim == 1
        if one:
            X = X[None, :]
        if X.shape[1] != self.n_dims:
            raise DataError(f"expected {self.n_dims} dims, got {X.shape[1]}")
        if not np.all(np.isfinite(X)):
            raise DataError("non-finite feature value")
        Xs = self.scale(X)
        scores = np.empty(len(Xs))
        # chunk so the (chunk, n_sv, d) distance tensor stays small
        chunk = max(1, int(4e6 / max(1, self.support_vectors.size)))
        for lo in range(0, len(Xs), chunk):
            k = _kernel_block(self.params, Xs[lo : lo + chunk], self.support_vectors)
            scores[lo : lo + chunk] = k @ self.dual_coefs + self.bias
        return float(scores[0]) if one else scores


def svm_score(model, x):
    """Signed decision value for one raw feature vector."""
    return model.decision_function(np.asarray(x, dtype=np.float64))


class _Smo:
    def __init__(self, X, y, C_per_sample, params, seed):
        self.X = X
        self.y = y
        self.C = C_per_sample
        self.params = params
        self.tol = params.tolerance
        self.n = len(y)
        self.alpha = np.zeros(self.n)
        self.b = 0.0
        self.errors = -y.astype(np.float64)  # f == 0 at the start
        self.rng = np.random.default_rng(seed)
        self._cache = OrderedDict()

    def kernel_row(self, i):
        row = self._cache.get(i)
        if row is not None:
            self._cache.move_to_end(i)
            return row
        row = _kernel_block(self.params, self.X, self.X[i : i + 1])[:, 0]
        if len(self._cache) >= _CACHE_ROWS:
            self._cache.popitem(last=False)
        self._cache[i] = row
        return row

    def violates(self, i):
        r = self.errors[i] * self.y[i]
        return (r < -self.tol and self.alpha[i] < self.C[i]) or \
               (r > self.tol and self.alpha[i] > 0)

    def free_mask(self):
        return (self.alpha > _SNAP * self.C) & (self.alpha < (1.0 - _SNAP) * self.C)

    def take_step(self, i1, i2):
        if i1 == i2:
            return False
        a1_old, a2_old = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        E1, E2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        C1, C2 = self.C[i1], self.C[i2]
        if s < 0:
            L = max(0.0, a2_old - a1_old)
            H = min(C2, C1 + a2_old - a1_old)
        else:
            L = max(0.0, a1_old + a2_old - C1)
            H = min(C2, a1_old + a2_old)
        if L >= H:
            return False
        row1 = self.kernel_row(i1)
        row2 = self.kernel_row(i2)
        k11, k12, k22 = row1[i1], row1[i2], row2[i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2_old + y2 * (E1 - E2) / eta
            a2 = min(max(a2, L), H)
        else:
            # flat or concave direction: evaluate the objective at both ends
            f1 = y1 * (E1 + self.b) - a1_old * k11 - s * a2_old * k12
            f2 = y2 * (E2 + self.b) - s * a1_old * k12 - a2_old * k22
            L1 = a1_old + s * (a2_old - L)
            H1 = a1_old + s * (a2_old - H)
            Lobj = L1 * f1 + L * f2 + 0.5 * L1 * L1 * k11 + 0.5 * L * L * k22 + s * L * L1 * k12
            Hobj = H1 * f1 + H * f2 + 0.5 * H1 * H1 * k11 + 0.5 * H * H * k22 + s * H * H1 * k12
            if Lobj < Hobj - 1e-12:
                a2 = L
            elif Lobj > Hobj + 1e-12:
                a2 = H
            else:
                a2 = a2_old
        if abs(a2 - a2_old) < _MIN_STEP:
            return False
        # land exactly on the box bounds; float dust a hair inside a bound
        # would otherwise count as "free" and corrupt the bias estimate
        if a2 < _SNAP * C2:
            a2 = 0.0
        elif a2 > (1.0 - _SNAP) * C2:
            a2 = C2
        a1 = a1_old + s * (a2_old - a2)
        if a1 < _SNAP * C1:
            a1 = 0.0
        elif a1 > (1.0 - _SNAP) * C1:
            a1 = C1
        a1 = min(max(a1, 0.0), C1)

        d1 = y1 * (a1 - a1_old)
        d2 = y2 * (a2 - a2_old)
        b1 = self.b - E1 - d1 * k11 - d2 * k12
        b2 = self.b - E2 - d1 * k12 - d2 * k22
        if 0.0 < a1 < C1:
            b_new = b1
        elif 0.0 < a2 < C2:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        self.errors += d1 * row1 + d2 * row2 + (b_new - self.b)
        self.alpha[i1] = a1
        self.alpha[i2] = a2
        self.b = b_new
        return True

    def examine(self, i2):
        if not self.violates(i2):
            return 0
        E2 = self.errors[i2]
        free = np.nonzero(self.free_mask())[0]
        if len(free) > 1:
            i1 = free[np.argmax(np.abs(self.errors[free] - E2))]
            if self.take_step(i1, i2):
                return 1
        if len(free):
            start = self.rng.integers(len(free))
            for i1 in np.roll(free, -start):
                if self.take_step(i1, i2):
                    return 1
        start = self.rng.integers(self.n)
        for i1 in np.roll(np.arange(self.n), -start):
            if self.take_step(i1, i2):
                return 1
        return 0

    def _exact_raw_scores(self):
        f0 = np.zeros(self.n)
        for j in np.nonzero(self.alpha > 0)[0]:
            f0 += (self.alpha[j] * self.y[j]) * self.kernel_row(j)
        return f0

    def refresh(self):
        """Recompute the bias and error cache from scratch."""
        f0 = self._exact_raw_scores()
        free = self.free_mask()
        if free.any():
            self.b = float(np.mean(self.y[free] - f0[free]))
        else:
            # every alpha sits on a bound, so the bias is only constrained
            # to an interval: zero alphas must stay outside the margin and
            # bound alphas inside. Take the interval midpoint.
            g = self.y - f0
            zero = self.alpha <= 0.5 * self.C
            lo = g[(self.y > 0) & zero]
            lo = np.concatenate([lo, g[(self.y < 0) & ~zero]])
            hi = g[(self.y < 0) & zero]
            hi = np.concatenate([hi, g[(self.y > 0) & ~zero]])
            if len(lo) and len(hi):
                self.b = float(0.5 * (lo.max() + hi.min()))
            elif len(lo):
                self.b = float(lo.max())
            elif len(hi):
                self.b = float(hi.min())
        self.errors = f0 + self.b - self.y

    def solve(self):
        quiet = 0
        sweeps = 0
        examine_all = True
        while quiet < self.params.max_passes and sweeps < _SWEEP_CAP:
            sweeps += 1
            changed = 0
            if examine_all:
                for i in range(self.n):
                    changed += self.examine(i)
                if changed == 0:
                    quiet += 1
                else:
                    quiet = 0
                    examine_all = False
            else:
                for i in np.nonzero(self.free_mask())[0]:
                    changed += self.examine(i)
                if changed == 0:
                    examine_all = True
        # incremental error updates drift; confirm convergence on exact values
        while sweeps < _SWEEP_CAP:
            sweeps += 1
            self.refresh()
            changed = 0
            for i in range(self.n):
                changed += self.examine(i)
            if changed == 0:
                break
        self.refresh()


def _scale_fit(X):
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    return lo, hi, _min_max(X, lo, hi)


def svm_fit(X, y, params, seed=0, class_weight=None, descriptor_id=None):
    """Train a two-class SVM.

    X is a FeatureMatrix or a plain (n, d) array; y holds -1/+1 labels with
    both classes present. class_weight optionally maps each label to a
    multiplier on C (useful for imbalanced data). The result is
    deterministic in (data, params, seed) regardless of row order.
    """
    if hasattr(X, "descriptor_id"):  # FeatureMatrix
        if descriptor_id is None:
            descriptor_id = X.descriptor_id
        X = X.data
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise DataError("X must be (n, d) with one label per row")
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite feature value")
    y = y.astype(np.float64)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be -1 or +1")
    if len(np.unique(y)) < 2:
        raise ConfigurationError("training data must contain both classes")

    lo, hi, Xs = _scale_fit(X)
    # canonical row order: sort by feature values then label
    order = np.lexsort(np.vstack([y[None, :], Xs.T[::-1]]))
    Xs = np.ascontiguousarray(Xs[order])
    ys = y[order]

    C_per = np.full(len(ys), float(params.C))
    if class_weight:
        for label, w in class_weight.items():
            if w <= 0:
                raise ConfigurationError("class weights must be positive")
            C_per[ys == float(label)] *= w

    smo = _Smo(Xs, ys, C_per, params, seed)
    smo.solve()

    sv = smo.alpha > 1e-12
    if not sv.any():
        sv = smo.alpha > 0
    return SvmModel(
        support_vectors=np.ascontiguousarray(Xs[sv]),
        dual_coefs=smo.alpha[sv] * ys[sv],
        bias=float(smo.b),
        params=params,
        feature_min=lo,
        feature_max=hi,
        descriptor_id=descriptor_id or "",
    )


def grid_search(X, y, folds, grid=None, seed=0, class_weight=None):
    """Pick hyper-parameters by mean cross-validated accuracy.

    Ties go to the smaller C, then the smaller gamma.
    """
    if grid is None:
        grid = default_grid()
    if not grid:
        raise ConfigurationError("empty parameter grid")
    if hasattr(X, "descriptor_id"):
        X = X.data
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    best = None
    for pi, params in enumerate(grid):
        accs = []
        for fold in range(folds.k):
            train_idx, test_idx = folds.split(fold)
            model = svm_fit(X[train_idx], y[train_idx], params,
                            seed=derive_seed(seed, pi, fold), class_weight=class_weight)
            pred = np.where(model.decision_function(X[test_idx]) >= 0, 1.0, -1.0)
            accs.append(float(np.mean(pred == y[test_idx])))
        key = (-np.mean(accs), params.C, params.gamma)
        if best is None or key < best[0]:
            best = (key, params)
    return best[1]


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-sample signed scores from one or more classifiers.

    Rows follow the originating manifest; row_indices keeps each row's
    position in that manifest so external score columns can be joined.
    """

    scores: np.ndarray            # (n, k) float
    column_ids: tuple
    row_indices: np.ndarray = field(default=None)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise DataError("scores must be 2-D")
        if scores.shape[1] != len(self.column_ids) or scores.shape[1] < 1:
            raise DataError("need one column id per score column")
        if not np.all(np.isfinite(scores)):
            raise DataError("non-finite score")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "column_ids", tuple(self.column_ids))
        ri = self.row_indices
        ri = np.arange(len(scores)) if ri is None else np.asarray(ri, dtype=np.int64)
        if ri.shape != (len(scores),) or len(np.unique(ri)) != len(ri):
            raise DataError("row_indices must be unique, one per row")
        object.__setattr__(self, "row_indices", ri)

    def column(self, column_id):
        try:
            j = self.column_ids.index(column_id)
        except ValueError:
            raise DataError(f"no score column {column_id!r}") from None
        return self.scores[:, j]


def save_scores(path, matrix):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row_index," + ",".join(matrix.column_ids) + "\n")
        for ri, row in zip(matrix.row_indices, matrix.scores):
            fh.write(str(int(ri)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def load_scores(path):
    with read_text(path, "score file") as fh:
        header = fh.readline().strip().split(",")
        if header[:1] != ["row_index"] or len(header) < 2:
            raise DataError(f"{path}: expected a row_index,<columns> header")
        rows, idx = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise DataError(f"{path} line {lineno}: expected {len(header)} fields")
            try:
                idx.append(int(parts[0]))
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no score rows")
    return ScoreMatrix(scores=np.array(rows), column_ids=tuple(header[1:]),
                       row_indices=np.array(idx))


def write_model(fh, model):
    """Append one model record to an open binary stream (self-delimiting)."""
    n_sv, n_dims = model.support_vectors.shape
    write_header(fh, _MODEL_MAGIC, _MODEL_VERSION)
    fh.write(pack_str(model.descriptor_id))
    fh.write(pack_str(model.params.kernel))
    fh.write(struct.pack("<dddI", model.params.C, model.params.gamma,
                         model.params.tolerance, model.params.max_passes))
    fh.write(struct.pack("<IId", n_sv, n_dims, model.bias))
    fh.write(np.ascontiguousarray(model.feature_min, dtype="<f8").tobytes())
    fh.write(np.ascontiguousarray(model.feature_max, dtype="<f8").tobytes())
    fh.write(np.ascontiguousarray(model.dual_coefs, dtype="<f8").tobytes())
    fh.write(np.ascontiguousarray(model.support_vectors, dtype="<f8").tobytes())


def read_model(fh, path="<stream>"):
    """Read one model record written by write_model."""
    read_header(fh, path, _MODEL_MAGIC, _MODEL_VERSION, "facestack SVM model record")
    descriptor_id = read_str(fh, path)
    kernel = read_str(fh, path)
    C, gamma, tol, max_passes = read_struct(fh, "<dddI", path)
    n_sv, n_dims, bias = read_struct(fh, "<IId", path)
    lo = read_array(fh, "<f8", n_dims, path)
    hi = read_array(fh, "<f8", n_dims, path)
    dual = read_array(fh, "<f8", n_sv, path)
    sv = read_array(fh, "<f8", n_sv * n_dims, path)
    return SvmModel(
        support_vectors=sv.reshape(n_sv, n_dims),
        dual_coefs=dual,
        bias=float(bias),
        params=SvmParams(C=C, gamma=gamma, tolerance=tol, max_passes=int(max_passes), kernel=kernel),
        feature_min=lo,
        feature_max=hi,
        descriptor_id=descriptor_id,
    )


def save_model(path, model):
    """Write a trained SVM to the versioned binary model format."""
    with open(path, "wb") as fh:
        write_model(fh, model)


def load_model(path):
    with open(path, "rb") as fh:
        model = read_model(fh, str(path))
        check_end(fh, path)
    return model
