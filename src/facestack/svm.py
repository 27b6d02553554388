"""Soft-margin RBF SVM trained by SMO with second-order working-set selection.

The kernel is K(a, b) = exp(-gamma |a - b|^2) and `SvmParams` is (C, gamma).
The solver is LIBSVM's WSS2 (Fan, Chen & Lin, JMLR 2005): keep the dual's
gradient G, pick i = argmax over I_up of -y*G, pick j in I_low by the
largest second-order gain, make the clipped two-variable update. When the
gap m - M falls below _TOL = 1e-3 the gradient is recomputed exactly and the
gap checked again, so the KKT conditions hold at _TOL on exit; the bias
comes from the free alphas. A solve that stops at the iteration cap
warns with RuntimeWarning. Every fit has one C, the one in its
`SvmParams`, which is at most _MAX_C. `_solve` runs a batch of
independent problems in lockstep on (P, n_max) arrays, each problem
computed the same way in any batch, so batched models are bit-identical
to one `svm_fit` per problem.

A job is a training `Part` (the caller's matrix, labels and training
rows, and the rows to score, or none for the models) with the list of
params fitted on it. `solve_jobs` solves a list of jobs and returns each
fit's held-out scores or SvmModel. Callers hand it every independent fit
of an evaluation *phase* at once; `solve_plans` runs plans (generators
that yield the jobs of their next phase) in lockstep, one `solve_jobs`
per phase. A phase runs on every core the process may use, with no flag:
the fork pool in `pool` cuts its jobs, in order, into one contiguous
group per core, the caller solving the first group and a child each
other one. A group runs in sub-batches of whole parts whose padded
distance stack stays under _BATCH_BYTES. Each problem gets the same bits
in any batch (below), so the results do not depend on either cut or on
the core count.

`cv_scores`, the one cross-validated scorer, gives each row's held-out score
under every grid point; `grid_search` picks from them, stacking takes its
out-of-fold columns from the same jobs.

Feature matrices stay in the dtype they arrive in, float32 as `.fsfm` stores
them or float64 (`_as_features`; any other dtype becomes float64), and rows
widen to float64 only where they are scaled. Widening is exact, so scaled
rows, distance memos, models and scores are float64 and have the same bits
for a float32 matrix as for its float64 copy.

Features are min-max scaled to [0,1] per dimension at fit time (the scaling
is stored in the model and applied again when scoring) and training rows are
put in a canonical lexicographic order before solving, which makes the
result independent of input row order. That scaling and order of a part's
rows is a `_Fold`, built when its sub-batch starts and shared by every fit
on those rows. The fold keeps no scaled rows: scaling is elementwise, so
rows rescaled from the caller's matrix, as the support rows are after the
solve, have the same bits. A solve's `_Gather` owns the squared
distances, in one of two forms under one bound, _DENSE_BYTES. Up to it
they are a block of the sub-batch's stack. A fold above it solves alone,
and the gather keeps its scaled rows and computes its distance rows on
demand into an LRU.

A squared distance is |a|^2 + |b|^2 - 2 a.b, clamped at 0, with the cross
terms of a row a against the rows B from BLAS matrix-vector products B @ a
(`_sq_dists`), not one matrix product for the whole block: a gemm's bits
depend on the block's shape and on the BLAS thread count. The pad-to-4
rule: OpenBLAS computes B's rows 4 at a time but the last len(B) mod 4 in
another order, so B runs on into zero rows to a multiple of 4. Then an
entry has the same bits at any position of B and in any subset of its
rows, and (a, b) the same as (b, a). So a fold's distances are computed
once per pair and its held-out rows once against all its training rows;
each grid point's model scores from its support columns through
`_decision`, with the bits `decision_function` gets from the support rows
alone. Each product stays under _BLAS_ELEMS elements, which OpenBLAS runs
on one thread, so the output bytes do not depend on the BLAS thread count.

Models serialize as `.fsvm` records in the shared layout of `records`.
"""

import csv
import struct
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import pool
from .errors import ConfigurationError, DataError, ParseError
from .records import (check_end, open_binary, pack_str, read_array, read_csv, read_header,
                      read_str, read_struct, write_header)

GRID_C = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
GRID_GAMMA = (0.04, 0.0675, 0.095, 0.1225, 0.15)

_MODEL_MAGIC = b"FSVM"
_MODEL_VERSION = 2

_TOL = 1e-3  # the KKT tolerance: every solve ends with gap m - M below it
_TAU = 1e-12  # LIBSVM's floor on the curvature of a working pair
_MAX_ITER = 10_000_000  # per problem; LIBSVM's max(1e7, 100 n) for n up to 1e5 rows
_MAX_C = 1e6  # largest C; the solve time grows with C
_DENSE_BYTES = 64 << 20  # a fold's squared distances: one n x n array up to this, else an LRU
_BATCH_BYTES = 3 << 20  # the distance memos of one sub-batch of a phase, padding included
# Elements per BLAS matrix-vector product. OpenBLAS 0.3.31 splits one of more than
# about 4.6e5 across threads, and computes its rows 4 at a time but the last (rows
# mod 4) one at a time, each in another order, so `_sq_dists` pads B to 4 rows.
_BLAS_ELEMS = 1 << 18


def derive_seed(seed, *key):
    """An independent 32-bit seed for the sub-task named by `key` under `seed`."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


@dataclass(frozen=True)
class SvmParams:
    """The box bound C and RBF width gamma of a fit: both finite and above 0
    (NaN is not), C at most _MAX_C, else a ConfigurationError."""

    C: float
    gamma: float

    def __post_init__(self):
        for name, value in (("C", self.C), ("gamma", self.gamma)):
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if self.C > _MAX_C:
            raise ConfigurationError(f"C must be at most {_MAX_C:g}, got {self.C:g}")


def default_grid():
    """The stock hyper-parameter grid: C x gamma, row-major in C."""
    return [SvmParams(C=c, gamma=g) for c in GRID_C for g in GRID_GAMMA]


def _sq_dists(A, B, out=None, B_sq=None, n=None):
    """Squared euclidean distances between the rows of A (m,d) and the first n
    rows of B (all if None) -> (m,n); A None means those n rows themselves,
    each pair computed once (row r against rows r.., then mirrored).

    Row r is -2 B.A[r] + |B|^2 + |A[r]|^2, clamped at 0, its cross terms BLAS
    matrix-vector products over blocks of B (_BLAS_ELEMS) of a multiple of 4
    rows but the last, which runs on through 3 zero rows (B is copied onto
    them unless it has them, as `_Fold.padded` does). So an entry has the
    same bits for any position of its row in B and any rows of A. out, if
    given, is an (m, n) array, or a view whose rows are contiguous, to fill.
    B_sq, if given, is |B[:n]|^2 as computed here.
    """
    n = len(B) if n is None else n
    if len(B) < n + 3:
        B = np.concatenate([B[:n], np.zeros((3, B.shape[1]))])
    B_sq = np.einsum("ij,ij->i", B[:n], B[:n]) if B_sq is None else B_sq
    A_sq = B_sq if A is None else np.einsum("ij,ij->i", A, A)
    out = np.empty((len(A_sq), n)) if out is None else out
    step = max(4, _BLAS_ELEMS // max(1, B.shape[1]) // 4 * 4)
    for r in range(len(A_sq)):
        a, first = (B[r], r) if A is None else (A[r], 0)
        for lo in range(first, n, step):
            cols = out[r, lo : lo + step]
            cols[:] = np.dot(B[lo : lo + step], a)[: len(cols)]
        if A is None:
            out[r + 1 :, r] = out[r, r + 1 :]
    out *= -2.0
    out += B_sq
    out += A_sq[:, None]
    return np.maximum(out, 0.0, out=out)


def _as_features(X):
    """X as an array in its own dtype if that is float32 or float64, else as
    float64: features stay as narrow as they arrive until rows are scaled."""
    X = np.asarray(X)
    return X if X.dtype in (np.float32, np.float64) else X.astype(np.float64)


def _min_max(X, lo, hi, copy=True):
    """Map each column from [lo, hi] onto [0, 1]; constant columns only shift.
    X is widened to a float64 copy, exactly, and scaled in place (a float64 X
    itself if not copy), which is faster than a ufunc over mixed dtypes."""
    span = hi - lo
    out = X.astype(np.float64, copy=copy)
    np.subtract(out, lo, out=out)
    return np.divide(out, np.where(span > 0, span, 1.0), out=out)


def _scale_fit(X, copy=True):
    X = X.astype(np.float64, copy=copy)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    return lo, hi, _min_max(X, lo, hi, copy=False)


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

    def decision_function(self, X):
        """Signed scores for raw (unscaled) feature rows."""
        X = _as_features(X)
        one = X.ndim == 1
        if one:
            X = X[None, :]
        if X.shape[1] != self.n_dims:
            raise DataError(f"expected {self.n_dims} dims, got {X.shape[1]}")
        if not np.all(np.isfinite(X)):
            raise DataError("non-finite feature value")
        Xs, sv = _min_max(X, self.feature_min, self.feature_max), self.support_vectors
        scores = _decision(self.params, lambda rows: _sq_dists(Xs[rows], sv), len(Xs),
                           self.dual_coefs, self.bias)
        return float(scores[0]) if one else scores


def _decision(params, d2, m, coef, bias):
    """Decision values of m scaled rows, whose squared distances to the
    support rows (weights coef) d2(rows) gives for a slice of the rows.

    Each chunk of rows is one kernel block of at most _BLAS_ELEMS times coef,
    so the product stays one single-threaded BLAS call; the chunks set its
    last bits, so every caller scores through here.
    """
    scores = np.empty(m)
    chunk = max(1, _BLAS_ELEMS // max(1, len(coef)))
    for lo in range(0, m, chunk):
        rows = slice(lo, lo + chunk)
        scores[rows] = np.exp(-params.gamma * d2(rows)) @ coef + bias
    return scores


def _canonical_order(Xs, y):
    """Row order by feature values, column 0 first, then by label: the order of
    np.lexsort over all d + 1 keys.

    A lexsort on the first k columns gives that order whenever it is strict,
    that is when adjacent sorted rows differ somewhere in those k columns;
    otherwise k widens, and the last resort is the full lexsort.
    """
    k = 8
    while k < Xs.shape[1]:
        order = np.lexsort(Xs[:, :k].T[::-1])
        head = Xs[order, :k]
        if (head[1:] != head[:-1]).any(axis=1).all():
            return order
        k *= 4
    return np.lexsort(np.vstack([y[None, :], Xs.T[::-1]]))


def _dense(n):
    """Whether the squared distances of n rows are one n x n array (else an LRU)."""
    return n * n * 8 <= _DENSE_BYTES


class _Fold:
    """Training rows `rows` of the caller's matrix X (all if None), min-max
    scaled and put in canonical order.

    Keeps the scaling (`lo`, `hi`), the canonical order as indices `rows`
    into X and the ordered labels `y`. None of it depends on (C, gamma), so
    every fit on the same rows shares one _Fold. X stays in its dtype
    (float32 or float64) and must hold its values while the fold lives:
    `padded` reads the rows from it again, since min-max scaling is
    elementwise and gives them the same bits. Only the rows being scaled are
    widened to float64; the fold keeps no scaled rows, a `_Gather` that
    needs them does.
    """

    def __init__(self, X, y, rows=None):
        X = _as_features(X)
        y = np.asarray(y, dtype=np.float64)
        rows = np.arange(len(X)) if rows is None else np.asarray(rows)
        self.lo, self.hi, Xs = _scale_fit(X[rows], copy=False)  # X[rows] is a copy
        order = _canonical_order(Xs, y[rows])
        self.src, self.rows, self.y = X, rows[order], y[rows[order]]

    def __len__(self):
        return len(self.y)

    def padded(self):
        """The scaled float64 rows in canonical order, then 3 zero rows for `_sq_dists`."""
        P = np.zeros((len(self) + 3, self.src.shape[1]))
        Xs = P[: len(self)]
        if self.src.dtype == P.dtype:  # straight into P; "raise" fills a temporary
            np.take(self.src, self.rows, axis=0, out=Xs, mode="clip")
        else:  # take() casts nothing: float32 rows are gathered, then widened into P
            Xs[...] = self.src[self.rows]
        _min_max(Xs, self.lo, self.hi, copy=False)
        return P


class _Gather:
    """Kernel rows of the problems a solve is running, one row per problem,
    and the only owner of their folds' squared distances, in the form the
    widest fold takes. Row i of a fold with scaled rows Xs is
    `_sq_dists(Xs[i:i+1], Xs)[0]`, the same bits in a block or alone, with
    entry i set to exactly 0, so K(i, i) = 1 as `_solve` assumes.

    Up to _DENSE_BYTES, each fold's distances are computed into its block of
    one stack padded to the widest (padding has distance 0, kernel 1), so
    every problem's row comes out of one fancy index; a fold's scaled rows
    live only while its block fills. A fold above it solves alone
    (`_sub_batches`): the gather keeps its scaled rows and their squared
    norms, and computes its rows on demand into an LRU of at most
    _DENSE_BYTES (one row at least) that drops the least recently used row
    first.
    """

    def __init__(self, problems):
        folds = {id(fold): fold for fold, _ in problems}
        self.width = max((len(fold) for fold in folds.values()), default=0)
        self.n = np.array([len(fold) for fold, _ in problems])
        self.neg_gamma = np.array([[-params.gamma] for _, params in problems])
        self.lru = None
        if _dense(self.width):
            slot = {key: s * self.width for s, key in enumerate(folds)}
            self.stack = np.zeros((len(folds) * self.width, self.width))
            for key, fold in folds.items():  # one fold's scaled rows at a time
                block = self.stack[slot[key] : slot[key] + len(fold), : len(fold)]
                np.fill_diagonal(_sq_dists(None, fold.padded(), out=block, n=len(fold)), 0.0)
            self.base = np.array([slot[id(fold)] for fold, _ in problems], dtype=np.intp)
        else:
            assert len(folds) == 1, "a fold above _DENSE_BYTES solves alone"
            (fold,) = folds.values()
            self.P = fold.padded()
            self.Xs_sq = np.einsum("ij,ij->i", self.P[: self.width], self.P[: self.width])
            self.lru, self.cap = OrderedDict(), max(1, _DENSE_BYTES // (8 * self.width))
            self.base = np.zeros(len(problems), dtype=np.intp)  # LRU rows are fold rows

    def keep(self, running):
        """Narrow to the problems still running (a mask over the current ones)."""
        self.base, self.n, self.neg_gamma = (
            v[running] for v in (self.base, self.n, self.neg_gamma))

    def _d2(self, rows):
        """Squared distances of the memo rows `rows` (an int array) -> (len(rows), width)."""
        if self.lru is None:
            return self.stack[rows]
        out = []
        for i in rows.tolist():
            if i not in self.lru:
                if len(self.lru) >= self.cap:
                    self.lru.popitem(last=False)
                self.lru[i] = _sq_dists(self.P[i : i + 1], self.P, B_sq=self.Xs_sq,
                                        n=self.width)[0]
                self.lru[i][i] = 0.0
            self.lru.move_to_end(i)
            out.append(self.lru[i])
        return np.array(out).reshape(len(rows), self.width)

    def __call__(self, rows):
        return np.exp(self.neg_gamma * self._d2(self.base + rows))

    def d2_rows(self, a, idx):
        """Squared distances from the rows idx (an int array) of running
        problem a's fold to every row of it -> (len(idx), n)."""
        return self._d2(self.base[a] + idx)[:, : self.n[a]]


def _violators(y, alpha, G, hi, lo):
    """-y*G over I_up (-inf elsewhere) and over I_low (+inf elsewhere).

    With s = y*alpha, I_up is s < hi and I_low is s > lo: hi is C where y > 0,
    else 0, and lo is 0 where y > 0, else -C. Padding (y = hi = lo = 0) is in neither.
    """
    s, minus_yG = y * alpha, -y * G
    return np.where(s < hi, minus_yG, -np.inf), np.where(s > lo, minus_yG, np.inf)


def _pair_update(ai, aj, C, yi, yj, Gi, Gj, quad):
    """LIBSVM's update of working pairs (i, j), clipped to the box [0, C]
    -> (ai, aj).

    Arrays, one pair per entry, C the pair's one box bound: LIBSVM's ladder
    with Ci == Cj, where its tests diff > Ci - Cj and total > Cj are diff > 0
    and total > C. Both label cases are computed (both divide by quad, which
    must be > 0), each clip one np.where in LIBSVM's order, and yi == yj
    picks the case.
    """
    def clip(c, a, b, a_to, b_to):
        return np.where(c, a_to, a), np.where(c, b_to, b)

    diff, total = ai - aj, ai + aj
    up, over = diff > 0, total > C
    delta = (-Gi - Gj) / quad  # yi != yj: ai - aj is kept
    a, b = ai + delta, aj + delta
    a, b = clip(up & (b < 0), a, b, diff, 0.0)
    a, b = clip(~up & (a < 0), a, b, 0.0, -diff)
    a, b = clip(up & (a > C), a, b, C, C - diff)
    a, b = clip(~up & (b > C), a, b, C + diff, C)
    delta = (Gi - Gj) / quad  # yi == yj: ai + aj is kept
    e, f = ai - delta, aj + delta
    e, f = clip(over & (e > C), e, f, C, total - C)
    e, f = clip(~over & (f < 0), e, f, total, 0.0)
    e, f = clip(over & (f > C), e, f, total - C, C)
    e, f = clip(~over & (e < 0), e, f, 0.0, total)
    return np.where(yi == yj, e, a), np.where(yi == yj, f, b)


def _bias(y, alpha, C, G):
    """The bias from the free alphas, as LIBSVM takes it.

    With no free alpha the rows at the bounds only bound it to an interval
    (both sides hold rows, since y.alpha = 0); take the interval's midpoint.
    """
    yG = y * G
    free = (alpha > 0) & (alpha < C)
    if free.any():
        return -float(np.mean(yG[free]))
    below = (alpha >= C) == (y > 0)  # rows whose y*G bound the bias from below
    return -0.5 * float(yG[~below].min() + yG[below].max())


def _solve(problems):
    """Solve independent SVM duals in lockstep -> [(alpha, bias)], in order.

    Each problem is (fold, params), with the box 0 <= alpha <= params.C on
    every row. The problems still running are rows of (A, n_max) arrays.
    The box is kept per row as lo <= y*alpha <= hi, which also holds each
    row's label; padding has y = 0 and the box [0, 0], which keeps it out
    of I_up and I_low and out of every working pair, so both rows of a pair
    have C = hi - lo and `_pair_update` takes row i's. A pass takes one WSS2
    step on every row at once, in array code. A problem whose gap m - M
    falls below _TOL, or that reaches _MAX_ITER, gets its gradient
    recomputed exactly; it ends if the exact gap is below _TOL (or at the
    cap, with a RuntimeWarning), and otherwise steps in the same pass from
    its exact gradient, so a check costs the other problems nothing. Every
    problem runs the same float operations in the same order in any batch,
    so it gets the same bits alone or batched.
    """
    sizes = [len(fold) for fold, _ in problems]
    n_max = max(sizes, default=1)
    P = len(problems)
    y, hi, lo = (np.zeros((P, n_max)) for _ in range(3))  # lo <= y*alpha <= hi; C = hi - lo
    for p, (fold, params) in enumerate(problems):
        y[p, : sizes[p]] = fold.y
        hi[p, : sizes[p]] = np.where(fold.y > 0, float(params.C), 0.0)
        lo[p, : sizes[p]] = np.where(fold.y > 0, 0.0, -float(params.C))
    alpha, G = np.zeros((P, n_max)), -np.ones((P, n_max))
    iters = np.zeros(P, dtype=np.int64)
    ids = np.arange(P)  # problem of each running row
    gather = _Gather(problems)
    out = [None] * P
    while len(ids):
        up, low = _violators(y, alpha, G, hi, lo)
        i = up.argmax(axis=1)
        m = up[np.arange(len(i)), i]
        check = (m - low.min(axis=1) < _TOL) | (iters >= _MAX_ITER)
        if check.any():
            running = np.ones(len(ids), dtype=bool)
            for a in np.flatnonzero(check):
                fold, params = problems[ids[a]]
                n = sizes[ids[a]]
                sv = np.flatnonzero(alpha[a, :n] > 0)  # G = Q alpha - 1, summed afresh
                coef = (alpha[a, sv] * fold.y[sv])[:, None]
                K = np.exp(-params.gamma * gather.d2_rows(a, sv))
                G[a, :n] = fold.y * (coef * K).sum(axis=0) - 1.0
                up[a], low[a] = _violators(y[a], alpha[a], G[a], hi[a], lo[a])
                i[a] = up[a].argmax()
                m[a] = up[a, i[a]]
                gap = m[a] - low[a].min()
                if gap < _TOL or iters[a] >= _MAX_ITER:
                    if gap >= _TOL:
                        warnings.warn(f"WSS2 stopped at the {_MAX_ITER}-iteration cap with "
                                      f"gap m - M = {gap:.3g} above tolerance {_TOL}",
                                      RuntimeWarning, stacklevel=3)
                    bias = _bias(y[a, :n], alpha[a, :n], float(params.C), G[a, :n])
                    out[ids[a]] = (alpha[a, :n].copy(), bias)
                    running[a] = False
            if not running.all():
                y, hi, lo, alpha, G, iters, ids, low, i, m = (
                    v[running] for v in (y, hi, lo, alpha, G, iters, ids, low, i, m))
                gather.keep(running)
        r = np.arange(len(ids))  # none left: the step below runs on empty arrays
        Ki = gather(i)
        gain = m[:, None] - low  # > 0 on the rows of I_low that pair with i
        quad = 2.0 - 2.0 * Ki  # K(i, i) + K(j, j) - 2 K(i, j), the RBF diagonal being 1
        quad = np.where(quad > 0, quad, _TAU)
        j = np.where(gain > 0, -(gain * gain) / quad, np.inf).argmin(axis=1)
        Kj = gather(j)
        ai, aj, yi, yj = alpha[r, i], alpha[r, j], y[r, i], y[r, j]
        new_i, new_j = _pair_update(ai, aj, hi[r, i] - lo[r, i], yi, yj, G[r, i], G[r, j],
                                    quad[r, j])
        di, dj = yi * (new_i - ai), yj * (new_j - aj)
        alpha[r, i], alpha[r, j] = new_i, new_j
        G += y * (di[:, None] * Ki + dj[:, None] * Kj)
        iters += 1
    return out


def _support(alpha):
    """Row indices of the support vectors of a solution."""
    sv = np.flatnonzero(alpha > 1e-12)
    return sv if len(sv) else np.flatnonzero(alpha > 0)


@dataclass(frozen=True, eq=False)
class Part:
    """Training rows `rows` (all if None) of the caller's float32 or float64
    matrix X, whose rows y labels, and the rows `test[1]` (all if None) of
    the raw matrix `test[0]` that its fits score, or test None for their
    unnamed SvmModels. X is read in its dtype, never copied whole; the fits
    share one `_Fold`, which widens the rows it scales to float64."""

    X: np.ndarray
    y: np.ndarray
    rows: np.ndarray = None
    test: tuple = None

    def __len__(self):
        return len(self.y if self.rows is None else self.rows)


def _check_parts(parts):
    """Check every part and test matrix before any solve, each matrix's values once."""
    matrices = {}
    for part in parts:
        if part.X.ndim != 2 or len(part.X) != len(part.y):
            raise DataError("X must be (n, d) with one label per row")
        y = part.y if part.rows is None else part.y[part.rows]
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise DataError("labels must be -1 or +1")
        if not ((y > 0).any() and (y < 0).any()):
            raise ConfigurationError("training data must contain both classes")
        M = part.X if part.test is None else part.test[0]
        if M.ndim != 2 or M.shape[1] != part.X.shape[1]:
            raise DataError(f"expected {part.X.shape[1]} dims, got {M.shape[-1]}")
        matrices.update({id(part.X): part.X, id(M): M})
    for M in matrices.values():
        if not np.all(np.isfinite(M)):
            raise DataError("non-finite feature value")


def _sub_batches(jobs):
    """Jobs, in order, cut into runs whose dense memos, padded to the
    widest, fit _BATCH_BYTES; a part above _DENSE_BYTES alone."""
    runs = []
    for job in jobs:
        width = max(len(part) for part, _ in runs[-1] + [job]) if runs else 0
        if runs and _dense(width) and (len(runs[-1]) + 1) * width * width * 8 <= _BATCH_BYTES:
            runs[-1].append(job)
        else:
            runs.append([job])
    return runs


def _result(params, fold, P, T, block, alpha, bias):
    """A solved fit's SvmModel if T is None, else its scores of the scaled
    test rows T through `_decision`, from the support columns (`_sq_dists`)
    of T's distances `block` to all rows of P = fold.padded() if given."""
    sv = _support(alpha)
    coef = alpha[sv] * fold.y[sv]
    if T is None:
        return SvmModel(P[sv], coef, bias, params, fold.lo, fold.hi)
    if block is None:
        return _decision(params, lambda rows: _sq_dists(T[rows], P[sv]), len(T), coef, bias)
    return _decision(params, lambda rows: block[rows].take(sv, axis=1), len(T), coef, bias)


def solve_jobs(jobs):
    """Solve independent fits -> one list of results per job, in order.

    A job is a (Part, [SvmParams, ...]) pair: the part fitted at each params,
    each fit giving its scores of part.test or its SvmModel. `pool.map_groups`
    cuts the jobs, in order, into one contiguous group per core, of about
    equal cost (len(params) x n^2). A group runs as `_solve` batches of
    whole parts, cut by `_sub_batches`, each part's `_Fold` living as long
    as its batch. `_solve` computes each problem the same way in any batch,
    so the results do not depend on either cut, nor on the core count.
    """
    jobs = list(jobs)
    _check_parts([part for part, _ in jobs])

    def solve(group):
        return [r for run in _sub_batches(group) for r in _solve_run(run)]

    costs = [max(1, len(params)) * len(part) ** 2 for part, params in jobs]  # each > 0
    return [r for results in pool.map_groups(solve, jobs, costs) for r in results]


def _solve_run(run):
    """One sub-batch of solve_jobs -> one list of results per job. A part's
    scaled test rows, and their distances to all its training rows up to
    _DENSE_BYTES, serve all its fits. The memo is freed when `_solve` returns."""
    folds = [_Fold(part.X, part.y, part.rows) for part, _ in run]
    problems = [(fold, p) for fold, (_, params) in zip(folds, run) for p in params]
    solutions = iter(_solve(problems))
    out = []
    for fold, (part, params) in zip(folds, run):
        P, T, block = fold.padded(), None, None
        if part.test is not None:
            M, rows = part.test
            T = _min_max(M if rows is None else M[rows], fold.lo, fold.hi)
            if len(T) * len(fold) * 8 <= _DENSE_BYTES:
                block = _sq_dists(T, P, n=len(fold))
        out.append([_result(p, fold, P, T, block, *next(solutions)) for p in params])
    return out


def solve_plans(plans):
    """Run plans in lockstep -> the value each plan returns.

    A plan is a generator that yields lists of jobs, (Part, [SvmParams,
    ...]) pairs, and is sent back their result lists. The jobs that the
    live plans yield in one round are one phase, solved by one `solve_jobs`
    call.
    """
    plans = list(plans)
    out, sent, live = [None] * len(plans), [None] * len(plans), range(len(plans))
    while live:
        asked = {}
        for p in live:
            try:
                asked[p] = plans[p].send(sent[p])
            except StopIteration as stop:
                out[p] = stop.value
        results = iter(solve_jobs([job for jobs in asked.values() for job in jobs]))
        for p, jobs in asked.items():
            sent[p] = [next(results) for _ in jobs]
        live = list(asked)
    return out


def svm_fit(X, y, params):
    """Train a two-class SVM.

    X is a FeatureMatrix or a plain (n, d) array; y holds -1/+1 labels with
    both classes present. The model takes X's descriptor_id (a
    FeatureMatrix's), else "". The result is deterministic in (data,
    params) regardless of row order. A solve that stops at the iteration cap
    before converging warns with RuntimeWarning.
    """
    part = Part(_as_features(X), np.asarray(y, dtype=np.float64))
    ((model,),) = solve_jobs([(part, [params])])
    return replace(model, descriptor_id=getattr(X, "descriptor_id", ""))


def cv_jobs(part, folds, grid):
    """The jobs of cv_scores on a Part whose rows `folds` splits, one fold per
    row: one per fold, its training rows with its held-out rows to score,
    fitted at every grid point."""
    if folds.assignments.shape != (len(part),):
        raise DataError(f"fold plan covers {len(folds.assignments)} rows, part has {len(part)}")
    jobs = []
    for f in range(folds.k):
        train, test = folds.split(f)
        if part.rows is not None:
            train, test = part.rows[train], part.rows[test]
        jobs.append((Part(part.X, part.y, train, (part.X, test)), grid))
    return jobs


def cv_table(results, folds, grid):
    """cv_scores' (len(grid), n) table from the result lists of cv_jobs,
    one list per fold."""
    scores = np.empty((len(grid), len(folds.assignments)))
    for f, fold_scores in enumerate(results):
        scores[:, folds.split(f)[1]] = fold_scores
    return scores


def cv_scores(X, y, folds, grid):
    """Held-out scores of every grid point -> (len(grid), n).

    Entry (g, i) is decision_function(row i) of svm_fit(grid[g]) on the rows
    outside row i's fold, bit for bit: `_sq_dists` pads to 4 rows, so the
    support columns of the fold's held-out rows' distances to all its
    training rows, computed once, equal their distances to the support rows
    alone. All len(grid) x k problems are one phase, on one `_Fold` per fold.
    """
    if not grid:
        raise ConfigurationError("empty parameter grid")
    part = Part(_as_features(X), np.asarray(y, dtype=np.float64))
    return cv_table(solve_jobs(cv_jobs(part, folds, grid)), folds, grid)


def best_point(grid, scores, y, folds):
    """Index of the grid point whose cv_scores have the best mean per-fold accuracy.

    Ties go to the smaller C, then the smaller gamma, then the earlier point.
    """
    hits = np.where(scores >= 0, 1.0, -1.0) == np.asarray(y, dtype=np.float64)
    tests = [folds.split(f)[1] for f in range(folds.k)]
    mean_acc = [np.mean([np.mean(row[t]) for t in tests]) for row in hits]
    return min(range(len(grid)), key=lambda g: (-mean_acc[g], grid[g].C, grid[g].gamma))


def grid_search(X, y, folds):
    """The SvmParams of default_grid() that best_point picks from its cv_scores."""
    grid = default_grid()
    return grid[best_point(grid, cv_scores(X, y, folds, grid), y, folds)]


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-sample signed scores from one or more classifiers, row-aligned:
    row i scores sample i of the rows it goes with. A score file's rows are
    its manifest's; `stacking`'s are the training or the scored rows."""

    scores: np.ndarray            # (n, k) float
    column_ids: tuple

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise DataError("scores must be 2-D")
        if scores.shape[1] != len(self.column_ids) or scores.shape[1] < 1:
            raise DataError("need one column id per score column")
        if len(set(self.column_ids)) != len(self.column_ids):
            raise DataError(f"repeated score column id in {tuple(self.column_ids)}")
        if not np.all(np.isfinite(scores)):
            raise DataError("non-finite score")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "column_ids", tuple(self.column_ids))


def save_scores(path, matrix):
    """Write matrix as a score CSV, row i under row_index i."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("row_index",) + matrix.column_ids)
        for i, row in enumerate(matrix.scores):
            writer.writerow([i] + [repr(float(v)) for v in row])


def load_scores(path):
    """The score CSV at path as a row-aligned ScoreMatrix, row i from the file's
    row with row_index i. The file lists each of 0..n-1 once, in any order;
    any other row_index is a DataError naming it."""
    header, rows = read_csv(path, "score file")
    if header[:1] != ["row_index"] or len(header) < 2:
        raise ParseError(f"{path}: expected a row_index,<columns> header")
    if not rows:
        raise ParseError(f"{path}: no score rows")
    scores = [None] * len(rows)
    for lineno, (ri, *values) in rows:
        try:
            i, row = int(ri), [float(v) for v in values]
        except ValueError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
        if not 0 <= i < len(rows) or scores[i] is not None:
            what = "repeated" if 0 <= i < len(rows) else f"outside 0..{len(rows) - 1}"
            raise DataError(f"{path}: row {lineno}: row_index {i} {what}")
        scores[i] = row
    try:
        return ScoreMatrix(scores=np.array(scores), column_ids=tuple(header[1:]))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_model(fh, model):
    """Append one model record to an open binary stream (self-delimiting)."""
    n_sv, n_dims = model.support_vectors.shape
    write_header(fh, _MODEL_MAGIC, _MODEL_VERSION)
    fh.write(pack_str(model.descriptor_id))
    fh.write(pack_str("rbf"))  # the record keeps the kernel and tolerance fields, fixed
    fh.write(struct.pack("<ddd", model.params.C, model.params.gamma, _TOL))
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
    C, gamma, tol = read_struct(fh, "<ddd", path)
    n_sv, n_dims, bias = read_struct(fh, "<IId", path)
    lo = read_array(fh, "<f8", n_dims, path)
    hi = read_array(fh, "<f8", n_dims, path)
    dual = read_array(fh, "<f8", n_sv, path)
    sv = read_array(fh, "<f8", n_sv * n_dims, path)
    if kernel != "rbf" or tol != _TOL:
        raise DataError(f"{path}: bad SVM parameters: kernel {kernel!r} at tolerance {tol}, "
                        f"not 'rbf' at {_TOL}")
    try:
        params = SvmParams(C=C, gamma=gamma)
    except ConfigurationError as exc:
        raise DataError(f"{path}: bad SVM parameters: {exc}") from None
    if not all(np.isfinite(a).all() for a in (lo, hi, dual, sv, bias)):
        raise DataError(f"{path}: non-finite value in SVM model record")
    return SvmModel(
        support_vectors=sv.reshape(n_sv, n_dims),
        dual_coefs=dual,
        bias=float(bias),
        params=params,
        feature_min=lo,
        feature_max=hi,
        descriptor_id=descriptor_id,
    )


def save_model(path, model):
    """Write a trained SVM to the versioned binary model format."""
    with open(path, "wb") as fh:
        write_model(fh, model)


def load_model(path):
    with open_binary(path, "SVM model file") as fh:
        model = read_model(fh, str(path))
        check_end(fh, path)
    return model
