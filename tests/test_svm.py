import io
import os
import pickle
import signal
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import facestack
import oracles
from facestack import pool
from facestack import svm as svm_module
from facestack import (
    ConfigurationError,
    DataError,
    FeatureMatrix,
    FirstStageSpec,
    ScoreMatrix,
    StageData,
    SvmModel,
    SvmParams,
    default_grid,
    grid_search,
    load_model,
    load_scores,
    make_folds,
    oof_scores,
    run_kfold,
    save_model,
    save_scores,
    save_stacked,
    stack_fit,
    svm_fit,
)
from facestack.dataset import FoldPlan
from facestack.records import pack_str
from facestack.svm import (GRID_C, GRID_GAMMA, _TOL, Part, _Fold, _Gather, _scale_fit,
                           _sq_dists, best_point, cv_scores, read_model, solve_jobs,
                           write_model)

# a solve that stops at the iteration cap warns; no test here may do so unasked
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _blobs(n_per, gap=2.0, d=2, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 0.5, (n_per, d)) + gap
    b = rng.normal(0, 0.5, (n_per, d)) - gap
    X = np.vstack([a, b])
    y = np.r_[np.ones(n_per), -np.ones(n_per)]
    return X, y


def _accuracy(model, X, y):
    return float(np.mean(np.where(model.decision_function(X) >= 0, 1, -1) == y))


def test_params_validation():
    with pytest.raises(ConfigurationError):
        SvmParams(C=0.0, gamma=0.1)
    with pytest.raises(ConfigurationError):
        SvmParams(C=1.0, gamma=-1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
@pytest.mark.parametrize("name", ["C", "gamma"])
def test_params_must_be_finite_and_positive(name, value):
    fields = dict(C=1.0, gamma=0.1)
    fields[name] = value
    with pytest.raises(ConfigurationError, match=f"{name} must be finite and positive"):
        SvmParams(**fields)


@pytest.mark.parametrize("C", [1e300, 2e6, 1e7])
def test_C_above_the_bound_is_a_configuration_error(C):
    # a fit at C = 1e300 ran for minutes toward _MAX_ITER; SvmParams refuses it
    # at construction, so no fit can start
    with pytest.raises(ConfigurationError, match="C must be at most 1e\\+06"):
        SvmParams(C=C, gamma=0.1)


def test_C_at_the_bound_fits():
    X, y = _blobs(5)
    model = svm_fit(X, y, SvmParams(C=svm_module._MAX_C, gamma=0.1))
    assert _accuracy(model, X, y) == 1.0


@pytest.mark.parametrize("field, value", [(0, np.nan), (0, np.inf), (0, 2e6), (1, np.nan),
                                          (2, 0.0), ("kernel", "linear")],
                         ids=["C-nan", "C-inf", "C-above-bound", "gamma-nan", "tolerance-zero",
                              "kernel-linear"])
def test_read_model_rejects_bad_params(field, value):
    # the record keeps a kernel and a tolerance field; only "rbf" at _TOL reads back
    X, y = _blobs(5)
    params = SvmParams(C=2.0, gamma=0.095)
    buf = io.BytesIO()
    write_model(buf, svm_fit(X, y, params))
    if field == "kernel":
        good, bad = pack_str("rbf"), pack_str(value)
    else:
        fields = [params.C, params.gamma, _TOL]
        good = struct.pack("<ddd", *fields)
        fields[field] = value
        bad = struct.pack("<ddd", *fields)
    record = buf.getvalue()
    assert record.count(good) == 1
    record = record.replace(good, bad)
    with pytest.raises(DataError, match="bad SVM parameters"):
        read_model(io.BytesIO(record))


@pytest.mark.parametrize("where", ["bias", "support_vector"])
def test_read_model_rejects_non_finite_values(where):
    X, y = _blobs(5)
    m = svm_fit(X, y, SvmParams(C=2.0, gamma=0.095))
    buf = io.BytesIO()
    write_model(buf, m)
    record = buf.getvalue()
    if where == "bias":
        head = struct.pack("<IId", *m.support_vectors.shape, m.bias)
        assert record.count(head) == 1
        record = record.replace(head, struct.pack("<IId", *m.support_vectors.shape, np.nan))
    else:  # the record ends with the support vectors
        record = record[:-8] + struct.pack("<d", np.inf)
    with pytest.raises(DataError, match="non-finite value"):
        read_model(io.BytesIO(record))


def test_rbf_kernel_values():
    # one support row with weight 1 and bias 0 scores K(x, sv); [0, 1] scales nothing
    def kernel(gamma, sv, x):
        d = len(sv)
        model = SvmModel(np.array([sv]), np.ones(1), 0.0, SvmParams(C=1.0, gamma=gamma),
                         np.zeros(d), np.ones(d))
        return model.decision_function(np.array(x))

    assert kernel(0.5, [0.0, 0.0], [0.0, 0.0]) == 1.0
    assert kernel(0.25, [0.0], [2.0]) == pytest.approx(np.exp(-1.0))


def test_two_point_case():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([-1.0, 1.0])
    m = svm_fit(X, y, SvmParams(C=1.0, gamma=0.1))
    assert len(m.dual_coefs) == 2
    assert abs(m.dual_coefs.sum()) <= 1e-6
    s = m.decision_function(X)
    assert s[0] < 0 < s[1]
    assert m.decision_function(X[1]) == pytest.approx(s[1])


def test_blobs_match_qp_oracle():
    X, y = _blobs(20)
    params = SvmParams(C=1.0, gamma=0.5)
    m = svm_fit(X, y, params)
    assert _accuracy(m, X, y) == 1.0

    _, _, Xs = _scale_fit(np.asarray(X, dtype=np.float64))
    K = np.exp(-params.gamma * _sq_dists(Xs, Xs))
    _, obj_ref = qp = oracles.qp_reference(K, y, params.C)
    alpha = _alphas_by_row(m, Xs)
    obj = oracles.dual_objective(K, y, alpha)
    assert abs(obj - obj_ref) / max(1.0, abs(obj_ref)) <= 1e-3


def _alphas_by_row(model, Xs):
    lookup = {sv.tobytes(): i for i, sv in enumerate(model.support_vectors)}
    alpha = np.zeros(len(Xs))
    for j, row in enumerate(Xs):
        i = lookup.get(row.tobytes())
        if i is not None:
            alpha[j] = abs(model.dual_coefs[i])
    return alpha


def test_kkt_at_tolerance():
    X, y = _blobs(30, gap=0.8, seed=3)  # overlapping, so some alphas hit C
    params = SvmParams(C=1.0, gamma=0.5)
    m = svm_fit(X, y, params)
    _, _, Xs = _scale_fit(np.asarray(X, dtype=np.float64))
    alpha = _alphas_by_row(m, Xs)
    bad = oracles.kkt_violations(alpha, y, m.decision_function(X), params.C, _TOL)
    assert bad == []


def test_model_invariants():
    X, y = _blobs(25, gap=0.5, seed=4)
    params = SvmParams(C=2.0, gamma=1.0)
    m = svm_fit(X, y, params)
    assert (np.abs(m.dual_coefs) <= params.C + 1e-12).all()
    assert abs(m.dual_coefs.sum()) <= 1e-6
    assert (m.dual_coefs > 0).any() and (m.dual_coefs < 0).any()  # one SV per class


def test_xor_needs_rbf():
    # a narrow kernel bends round each cluster; a wide one is near linear and underfits
    rng = np.random.default_rng(7)
    centers = [(1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)]
    X = np.vstack([rng.normal(0, 0.18, (20, 2)) + [cx, cy] for cx, cy, _ in centers])
    y = np.array(sum(([float(s)] * 20 for _, _, s in centers), []))
    narrow = svm_fit(X, y, SvmParams(C=4.0, gamma=4.0))
    wide = svm_fit(X, y, SvmParams(C=4.0, gamma=0.01))
    assert _accuracy(narrow, X, y) == 1.0
    assert _accuracy(wide, X, y) <= 0.75


def test_row_order_invariance():
    X, y = _blobs(25, gap=1.0, seed=5)
    params = SvmParams(C=1.0, gamma=0.5)
    m1 = svm_fit(X, y, params)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(y))
    m2 = svm_fit(X[perm], y[perm], params)
    probe = rng.normal(0, 1.5, (40, 2))
    assert np.array_equal(m1.support_vectors, m2.support_vectors)
    assert np.array_equal(m1.decision_function(probe), m2.decision_function(probe))


def test_duplication_leaves_held_out_scores():
    X, y = _blobs(20, gap=2.5, seed=6)
    # wide margin and generous C keep every alpha interior, where doubling
    # each sample leaves the solution unchanged
    params = SvmParams(C=10.0, gamma=0.5)
    m1 = svm_fit(X, y, params)
    m2 = svm_fit(np.vstack([X, X]), np.r_[y, y], params)
    probe = np.random.default_rng(1).normal(0, 2.0, (50, 2))
    np.testing.assert_allclose(m1.decision_function(probe),
                               m2.decision_function(probe), atol=1e-6)


def test_fits_are_deterministic():
    X, y = _blobs(20, gap=1.5, seed=8)
    params = SvmParams(C=1.0, gamma=0.5)
    a, b = svm_fit(X, y, params), svm_fit(X, y, params)
    for name in ("support_vectors", "dual_coefs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.bias == b.bias
    assert np.array_equal(a.decision_function(X), b.decision_function(X))


def _mixed_fits():
    """Fits of different sizes, C and gamma; gamma 0.5 comes twice."""
    fits = []
    for k, (n_per, C, gamma) in enumerate([
            (12, 0.25, 0.5), (32, 16.0, 2.0), (20, 1.0, 0.05), (25, 4.0, 1.0), (17, 8.0, 0.5)]):
        X, y = _blobs(n_per, gap=0.6, d=3, seed=30 + k)
        fits.append((X, y, SvmParams(C=C, gamma=gamma)))
    return fits


def _jobs(fits):
    """The model jobs of svm_fit argument tuples (X, y, params)."""
    return [(Part(X, y), [params]) for X, y, params in fits]


def _solve(jobs):
    """solve_jobs' results, its result lists flattened."""
    return [result for results in solve_jobs(jobs) for result in results]


def test_fit_many_equals_one_fit_each():
    fits = _mixed_fits()
    for got, fit in zip(_solve(_jobs(fits)), fits):
        want = svm_fit(*fit)
        for name in ("support_vectors", "dual_coefs", "feature_min", "feature_max"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.bias == want.bias
        assert got.params == want.params


def test_padded_batch_meets_kkt():
    fits = _mixed_fits()
    for model, (X, y, params) in zip(_solve(_jobs(fits)), fits):
        _, _, Xs = _scale_fit(np.asarray(X, dtype=np.float64))
        alpha = _alphas_by_row(model, Xs)
        bad = oracles.kkt_violations(alpha, y, model.decision_function(X), params.C, 1e-3)
        assert bad == []


def _memo_rows(fold, idx):
    """The memo's definition: row i is _sq_dists(X[i:i+1], X)[0] with entry i exactly 0."""
    X = fold.padded()[: len(fold)]
    want = np.array([_sq_dists(X[i : i + 1], X)[0] for i in idx])
    want[np.arange(len(idx)), idx] = 0.0
    return want


@pytest.mark.parametrize("m, n, d", [(5, 48, 576), (3, 96, 1475), (7, 600, 512)])
def test_sq_dists_match_the_difference_square_sum(m, n, d):
    # n = 600 at d = 512 cuts each cross-term product into two row blocks of B
    rng = np.random.default_rng(m + n + d)
    B = rng.random((n, d))
    A = np.vstack([rng.random((m, d)), B[:3], B[:1]])  # duplicate rows have distance 0
    got = _sq_dists(A, B)
    assert (got >= 0).all()
    scale = np.square(A).sum(axis=1).max() + np.square(B).sum(axis=1).max()
    np.testing.assert_allclose(got, oracles.ref_sq_dists(A, B), rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "lru"])
def test_memo_rows_equal_direct_rows(monkeypatch, dense):
    if not dense:  # 30 rows are LRU, 7 of them cached: evicts rows along the way
        monkeypatch.setattr(svm_module, "_DENSE_BYTES", 7 * 30 * 8)
    rng = np.random.default_rng(40)
    fold = _Fold(rng.random((30, 97)), np.where(np.arange(30) % 3, 1.0, -1.0))
    gather = _Gather([(fold, SvmParams(C=1.0, gamma=0.1))])
    for _ in range(12):  # one or a few rows at a time, in random order, repeats included
        idx = rng.integers(0, 30, rng.integers(1, 5))
        assert np.array_equal(gather.d2_rows(0, idx), _memo_rows(fold, idx))
    assert np.array_equal(gather.d2_rows(0, np.arange(30)), _memo_rows(fold, np.arange(30)))


def _assert_same_models(got, want):
    for a, b in zip(got, want, strict=True):
        for name in ("support_vectors", "dual_coefs", "feature_min", "feature_max"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.bias == b.bias
        assert a.params == b.params


def test_dense_and_lru_folds_give_the_same_models(monkeypatch):
    def jobs():
        jobs = _jobs(_mixed_fits())  # n = 24, 64, 40, 50, 34
        jobs[2][1].extend([SvmParams(C=2.0, gamma=0.3),  # two more problems on one fold
                           SvmParams(C=0.5, gamma=1.5)])
        return jobs

    want = _solve(jobs())  # every fold dense
    # LRU folds cache 25 of 64 and 32 of 50 rows, then one row: evicts rows along the way
    for dense_bytes, dense in [(40 * 40 * 8, [True, False, True, False, True]),
                               (0, [False] * 5)]:
        monkeypatch.setattr(svm_module, "_DENSE_BYTES", dense_bytes)
        batch = jobs()
        assert [svm_module._dense(len(part)) for part, _ in batch] == dense
        _assert_same_models(_solve(batch), want)


def test_jobs_on_one_part_share_one_fold(monkeypatch):
    # the grid search runs all its points on one fold of each training part
    monkeypatch.setattr(pool, "_cores", lambda: 1)  # one process: the spy sees every solve
    built = []
    real = svm_module._Fold

    def spy(X, y, rows=None):
        fold = real(X, y, rows)
        built.append((id(X), None if rows is None else tuple(rows), svm_module._dense(len(fold))))
        return fold

    monkeypatch.setattr(svm_module, "_Fold", spy)
    monkeypatch.setattr(svm_module, "_DENSE_BYTES", 40 * 40 * 8)  # 64 and 50 rows are LRU
    fits = _mixed_fits()  # n = 24, 64, 40, 50, 34
    parts = [Part(X, y) for X, y, _ in fits] + [Part(fits[1][0], fits[1][1], np.arange(40))]
    grid = [SvmParams(C=C, gamma=g) for C in (0.5, 2.0) for g in (0.3, 1.5)]
    assert [len(results) for results in solve_jobs([(part, grid) for part in parts])] == (
        [len(grid)] * len(parts))
    assert built == [(id(p.X), None if p.rows is None else tuple(p.rows), dense)
                     for p, dense in zip(parts, [True, False, True, False, True, True])]


def _canonical_case(case):
    """Rows with many ties (values 0, 1, 2), built to defeat a prefix sort."""
    rng = np.random.default_rng(50)
    n, d = 40, 600
    X = rng.integers(0, 3, (n, d)).astype(np.float64)
    y = np.where(np.arange(n) % 2, 1.0, -1.0)[rng.permutation(n)]
    if case == "constant_lead":
        X[:, :20] = 1.0
    elif case.startswith("equal_"):  # pairs of rows agree on their first k columns
        k = int(case.split("_")[1])
        X[1::2, :k] = X[0::2, :k]
    elif case == "duplicates":  # exact duplicates with opposite labels
        X[n // 2 :] = X[: n // 2]
        y[n // 2 :] = -y[: n // 2]
    elif case == "narrow":
        X = X[:, :5]
    return X, y


@pytest.mark.parametrize("case", ["random", "constant_lead", "equal_8", "equal_32",
                                  "equal_128", "duplicates", "narrow"])
def test_canonical_order_is_the_full_lexsort(case):
    X, y = _canonical_case(case)
    _, _, Xs = _scale_fit(X)
    full = np.lexsort(np.vstack([y[None, :], Xs.T[::-1]]))
    fold = _Fold(X, y)
    assert np.array_equal(fold.padded()[: len(fold)], Xs[full])
    assert np.array_equal(fold.y, y[full])


def test_feature_matrix_carries_descriptor_id(tmp_path):
    X, y = _blobs(10)
    fm = FeatureMatrix(X.astype(np.float32), "hog")
    m = svm_fit(fm, y, SvmParams(C=1.0, gamma=0.5))
    assert m.descriptor_id == "hog"
    # numpy reads a FeatureMatrix as its data: every entry point gives the bits of the array
    A = fm.data.astype(np.float64)
    folds = make_folds(y, 3, seed=0)

    def model_bytes(model):
        buf = io.BytesIO()
        write_model(buf, model)
        return buf.getvalue()

    assert model_bytes(m) == model_bytes(replace(svm_fit(A, y, m.params), descriptor_id="hog"))
    grid = default_grid()[:4]
    assert oracles.same_bits(cv_scores(fm, y, folds, grid), cv_scores(A, y, folds, grid))
    specs = [FirstStageSpec("C1", "F", "hog"), FirstStageSpec("C3", "F", "lbpu2")]
    assert oracles.same_bits(oof_scores([fm, fm], y, folds, specs).scores,
                             oof_scores([A, A], y, folds, specs).scores)
    for name, views in (("fm", [fm, fm]), ("array", [A, A])):
        save_stacked(tmp_path / name, stack_fit(views, y, folds, specs))
    assert (tmp_path / "fm").read_bytes() == (tmp_path / "array").read_bytes()
    runs = [run_kfold([StageData(spec, M) for spec in specs], y, k=3)[1] for M in (fm, A)]
    assert oracles.same_bits(*runs)
    with pytest.raises(ValueError):  # float32 data cannot be float64 without a copy
        np.asarray(fm, dtype=np.float64, copy=False)


def test_errors():
    X, y = _blobs(5)
    with pytest.raises(ConfigurationError):
        svm_fit(X, np.ones(len(y)), SvmParams(C=1.0, gamma=0.1))
    with pytest.raises(DataError):
        svm_fit(X, np.r_[np.zeros(5), np.ones(5)], SvmParams(C=1.0, gamma=0.1))
    bad = X.copy()
    bad[0, 0] = np.inf
    with pytest.raises(DataError):
        svm_fit(bad, y, SvmParams(C=1.0, gamma=0.1))
    m = svm_fit(X, y, SvmParams(C=1.0, gamma=0.1))
    with pytest.raises(DataError):
        m.decision_function(np.zeros(3))


def test_model_roundtrip(tmp_path):
    X, y = _blobs(15, gap=1.0, seed=12)
    m = replace(svm_fit(X, y, SvmParams(C=2.0, gamma=0.095)), descriptor_id="lbpu2")
    p = tmp_path / "model.bin"
    save_model(p, m)
    back = load_model(p)
    assert back.params == m.params
    assert back.descriptor_id == "lbpu2"
    assert np.array_equal(back.support_vectors, m.support_vectors)
    assert np.array_equal(back.dual_coefs, m.dual_coefs)
    assert back.bias == m.bias
    probe = np.random.default_rng(3).normal(0, 1, (9, 2))
    assert np.array_equal(back.decision_function(probe), m.decision_function(probe))


def test_load_model_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a model at all")
    with pytest.raises(DataError):
        load_model(p)
    with pytest.raises(DataError, match="cannot read"):
        load_model(tmp_path / "missing.fsvm")


def test_score_matrix_roundtrip(tmp_path):
    sm = ScoreMatrix(np.array([[0.5, -1.25], [2.0, 0.125]]), ("C1", "C3"),
                     np.array([4, 9]))
    p = tmp_path / "scores.csv"
    save_scores(p, sm)
    back = load_scores(p)
    assert back.column_ids == ("C1", "C3")
    assert np.array_equal(back.row_indices, sm.row_indices)
    np.testing.assert_array_equal(back.scores, sm.scores)


def test_score_column_id_with_a_comma_survives_save_and_load(tmp_path):
    sm = ScoreMatrix(np.array([[0.5, -1.25], [2.0, 0.125]]), ("CNN, v2", 'say "hi"'))
    p = tmp_path / "scores.csv"
    save_scores(p, sm)
    back = load_scores(p)
    assert back.column_ids == ("CNN, v2", 'say "hi"')
    np.testing.assert_array_equal(back.scores, sm.scores)


def test_score_matrix_validation():
    with pytest.raises(DataError):
        ScoreMatrix(np.zeros((2, 3)), ("C1", "C2"))
    with pytest.raises(DataError, match="repeated score column id"):
        ScoreMatrix(np.zeros((2, 2)), ("C1", "C1"))
    with pytest.raises(DataError):
        ScoreMatrix(np.zeros((2, 2)), ("C1", "C2"), np.array([0, 1, 2]))


def test_default_grid_layout():
    grid = default_grid()
    assert len(grid) == len(GRID_C) * len(GRID_GAMMA)
    assert grid[0].C == GRID_C[0] and grid[0].gamma == GRID_GAMMA[0]
    assert {p.C for p in grid} == set(GRID_C)


def test_grid_search_picks_sensible_params():
    X, y = _blobs(30, gap=1.2, seed=13)
    folds = FoldPlan(3, np.arange(len(y)) % 3)
    best = grid_search(X, y, folds)
    assert best in default_grid()
    assert best == grid_search(X, y, folds)  # deterministic


def test_grid_search_beats_bad_params():
    # xor-style clusters: a near-linear kernel underfits, so the search
    # must prefer the entry that can bend the boundary
    rng = np.random.default_rng(13)
    centers = [(1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)]
    X = np.vstack([rng.normal(0, 0.2, (12, 2)) + [cx, cy] for cx, cy, _ in centers])
    y = np.array(sum(([float(s)] * 12 for _, _, s in centers), []))
    folds = FoldPlan(3, np.arange(len(y)) % 3)
    good = SvmParams(C=4.0, gamma=4.0)
    bad = SvmParams(C=0.25, gamma=1e-6)
    grid = [bad, good]
    assert best_point(grid, cv_scores(X, y, folds, grid), y, folds) == 1


def test_grid_search_empty_grid():
    X, y = _blobs(6)
    folds = FoldPlan(2, np.arange(len(y)) % 2)
    with pytest.raises(ConfigurationError, match="empty parameter grid"):
        cv_scores(X, y, folds, [])


@pytest.mark.parametrize("n_plan", [30, 50])
def test_fold_plan_must_cover_the_rows(monkeypatch, n_plan):
    # on 40 rows a 30-row plan once trained on the first 30 rows only, and a
    # 50-row plan raised IndexError
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    X, y = _blobs(20)
    folds = FoldPlan(3, np.arange(n_plan) % 3)
    message = f"fold plan covers {n_plan} rows, part has 40"
    with pytest.raises(DataError, match=message):
        cv_scores(X, y, folds, default_grid())
    with pytest.raises(DataError, match=message):
        grid_search(X, y, folds)


def _naive_scores(X, y, folds, grid):
    """Reference for cv_scores: one fit on raw rows per point and fold, then
    (held-out scores, per-fold accuracies)."""
    scores = np.full((len(grid), len(y)), np.nan)
    accs = np.empty((len(grid), folds.k))
    for pi, params in enumerate(grid):
        for f in range(folds.k):
            train_idx, test_idx = folds.split(f)
            m = svm_fit(X[train_idx], y[train_idx], params)
            scores[pi, test_idx] = m.decision_function(X[test_idx])
            pred = np.where(scores[pi, test_idx] >= 0, 1.0, -1.0)
            accs[pi, f] = np.mean(pred == y[test_idx])
    return scores, accs


_HAND_GRID = [  # gamma values repeated and out of order
    SvmParams(C=1.0, gamma=0.5),
    SvmParams(C=4.0, gamma=0.1),
    SvmParams(C=2.0, gamma=0.05),
    SvmParams(C=0.5, gamma=2.0),
    SvmParams(C=1.0, gamma=0.5),
    SvmParams(C=8.0, gamma=0.05),
]


@pytest.mark.parametrize("grid", [None, _HAND_GRID], ids=["default", "hand_grid"])
def test_grid_search_matches_naive_loop(grid):
    X, y = _blobs(30, gap=0.35, d=8, seed=21)
    folds = FoldPlan(3, np.arange(len(y)) % 3)
    points = default_grid() if grid is None else grid
    want_scores, want = _naive_scores(X, y, folds, points)
    got_scores = cv_scores(X, y, folds, points)
    assert len(np.unique(want.mean(axis=1))) > 1  # the points do differ
    for got_row, want_row in zip(got_scores, want_scores, strict=True):
        assert np.array_equal(got_row, want_row)  # bit for bit
    got = np.array([[np.mean(np.where(row[folds.split(f)[1]] >= 0, 1.0, -1.0)
                             == y[folds.split(f)[1]]) for f in range(folds.k)]
                    for row in got_scores])
    assert np.array_equal(got, want)
    pick = min(range(len(points)), key=lambda pi: (-np.mean(want[pi]), points[pi].C,
                                                   points[pi].gamma))
    assert best_point(points, got_scores, y, folds) == pick
    if grid is None:
        assert grid_search(X, y, folds) == points[pick]


@pytest.mark.parametrize("n, d", [(48, 576), (96, 1475), (96, 512)])
def test_fold_distances_give_the_direct_kernel(n, d):
    # the solver's kernel rows, cut from the fold's memo, must be bit-identical
    # to kernels computed directly on the same rows, with K(i, i) = 1
    rng = np.random.default_rng(n + d)
    fold = _Fold(rng.random((n, d)), np.where(np.arange(n) % 2, 1.0, -1.0))
    gather = _Gather([(fold, SvmParams(C=1.0, gamma=0.1))])
    X = fold.padded()[: len(fold)]
    for gamma in GRID_GAMMA:
        for i in (0, n // 2, n - 1):
            want = np.exp(-gamma * _sq_dists(X[i : i + 1], X))
            want[0, i] = 1.0
            assert np.array_equal(np.exp(-gamma * gather.d2_rows(0, np.array([i]))), want)


def _structured(n, d, seed):
    """Two overlapping 2-D blobs embedded in d dimensions, so that the support
    sets differ across grid points."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2, 1.0, -1.0)
    Z = rng.normal(0, 1, (n, 2)) + y[:, None]
    return Z @ rng.normal(0, 1, (2, d)) + rng.normal(0, 0.1, (n, d)), y


@pytest.mark.parametrize("d", [576, 1475])
def test_cv_scores_equal_decision_function_in_high_dims(d):
    X, y = _structured(60, d, seed=d)
    folds = FoldPlan(3, np.arange(len(y)) % 3)
    grid = [SvmParams(C=c, gamma=g) for c in (0.25, 4.0) for g in (0.01, 0.1)]
    train_idx = folds.split(0)[0]
    supports = {len(svm_fit(X[train_idx], y[train_idx], p).dual_coefs) for p in grid}
    assert len(supports) > 1  # the support sets do differ
    want, _ = _naive_scores(X, y, folds, grid)
    assert np.array_equal(cv_scores(X, y, folds, grid), want)  # bit for bit


# The pad-to-4 rule of `_sq_dists` makes a cross term's bits independent of its
# row's position in B. These pin it on the BLAS that numpy uses here: if a BLAS
# update breaks it, they fail rather than the bits changing silently.
_PAD_DIMS = [8, 512, 576, 1475]


@pytest.mark.parametrize("d", _PAD_DIMS)
def test_distances_to_a_subset_of_rows_are_its_columns(d):
    rng = np.random.default_rng(d)
    T, B = rng.random((9, d)), rng.random((181, d))
    full = _sq_dists(T, B)
    for size in range(1, 14):
        S = rng.choice(len(B), size, replace=False)
        assert np.array_equal(full.take(S, axis=1), _sq_dists(T, B[S])), size


@pytest.mark.parametrize("d", _PAD_DIMS)
def test_dense_fold_block_equals_its_lru_and_direct_rows(monkeypatch, d):
    # 181 rows: at d = 1475 each row's products are cut into blocks of 176 rows
    n = 181
    rng = np.random.default_rng(d + 1)
    fold = _Fold(rng.random((n, d)), np.where(np.arange(n) % 3, 1.0, -1.0))
    rows = np.arange(n)
    dense = _Gather([(fold, SvmParams(C=1.0, gamma=0.1))]).d2_rows(0, rows)
    monkeypatch.setattr(svm_module, "_DENSE_BYTES", 0)
    lru = _Gather([(fold, SvmParams(C=1.0, gamma=0.1))]).d2_rows(0, rows)
    assert np.array_equal(dense, lru)
    assert np.array_equal(dense, _memo_rows(fold, rows))
    Xs = fold.padded()[: len(fold)]
    full = _sq_dists(Xs, Xs)  # every pair computed, none mirrored
    np.fill_diagonal(full, 0.0)
    assert np.array_equal(dense, full)


@pytest.mark.parametrize("d", _PAD_DIMS)
def test_padded_cross_terms_are_symmetric(d):
    # the dense fill computes each pair once and mirrors it: (P @ x_i)[j] == (P @ x_j)[i]
    n = 37
    rng = np.random.default_rng(d + 2)
    P = _Fold(rng.random((n, d)), np.where(np.arange(n) % 2, 1.0, -1.0)).padded()
    cross = np.array([(P[:40] @ P[i])[:n] for i in range(n)])
    assert not P[n:].any()
    assert np.array_equal(cross, cross.T)


@pytest.mark.parametrize("dense_bytes", [svm_module._DENSE_BYTES, 0], ids=["block", "lru"])
def test_cv_scores_score_each_folds_held_out_rows_once(monkeypatch, dense_bytes):
    # k folds x G points: one held-out block per fold when it fits _DENSE_BYTES,
    # else each job's distances to its support rows; bit for bit the same scores
    monkeypatch.setattr(pool, "_cores", lambda: 1)  # one process: the spy sees every call
    X, y = _structured(50, 576, seed=8)
    folds = FoldPlan(5, np.arange(len(y)) % 5)
    grid = [SvmParams(C=c, gamma=g) for c in (0.25, 4.0) for g in (0.01, 0.05, 0.1)]
    want, _ = _naive_scores(X, y, folds, grid)
    held_out = []
    real = svm_module._sq_dists

    def spy(A, B, *args, **kwargs):
        if A is not None and kwargs.get("B_sq") is None:  # not a fill or an LRU row
            held_out.append(len(A))
        return real(A, B, *args, **kwargs)

    monkeypatch.setattr(svm_module, "_sq_dists", spy)
    monkeypatch.setattr(svm_module, "_DENSE_BYTES", dense_bytes)
    assert np.array_equal(cv_scores(X, y, folds, grid), want)
    per_fold = [len(folds.split(f)[1]) for f in range(folds.k)]
    assert held_out == (per_fold if dense_bytes else [m for m in per_fold for _ in grid])


_THREADS_SCRIPT = """
import sys
import numpy as np
from facestack import (FirstStageSpec, SvmModel, SvmParams, make_folds, save_model,
                       save_stacked, stack_fit, svm, svm_fit)
from facestack.svm import _sq_dists

out = sys.argv[1]
rng = np.random.default_rng(0)
n, d = 300, 576
y = np.where(np.arange(n) % 2, 1.0, -1.0)
views = [rng.normal(0, 1, (n, 2)) + y[:, None] for _ in range(2)]
views = [Z @ rng.normal(0, 1, (2, d)) + rng.normal(0, 0.1, (n, d)) for Z in views]
params = SvmParams(C=4.0, gamma=0.01)
save_model(out + "/c1.fsvm", svm_fit(views[0], y, params))
specs = [FirstStageSpec(s, "custom", "raw") for s in ("C1", "C2")]
save_stacked(out + "/s.fstk", stack_fit(views, y, make_folds(y, 3, seed=0), specs,
                                        params=params))
# above the size at which OpenBLAS splits one matrix-vector product across threads
B = rng.random((1001, 512))
np.save(out + "/d2.npy", _sq_dists(B[:40], B))
np.save(out + "/d2_sub.npy", _sq_dists(B[:40], B[::3]))  # a subset of B's rows
sv = rng.random((1001, 8))
model = SvmModel(sv, rng.normal(0, 1, 1001), 0.0, params, np.zeros(8), np.ones(8))
np.save(out + "/scores.npy", model.decision_function(rng.random((1001, 8))))
# a dense fold wider than _BLAS_ELEMS // d rows: its fill cuts each row's products into blocks
wide_rng, y_wide = np.random.default_rng(1), np.where(np.arange(600) % 2, 1.0, -1.0)
wide = wide_rng.normal(0, 1, (600, 2)) + y_wide[:, None]
wide = wide @ wide_rng.normal(0, 1, (2, d)) + wide_rng.normal(0, 0.1, (600, d))
save_model(out + "/wide.fsvm", svm_fit(wide, y_wide, params))
svm._DENSE_BYTES = 100 * n * 8  # an LRU fold: its 100 cached rows are computed on demand
save_model(out + "/lru.fsvm", svm_fit(views[1], y, params))
"""


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    """SVM models (dense and LRU folds), stacked models, distances and scores
    have the same bytes under 1 and 2 BLAS threads. `:pcaN` stages are the exception, and not
    tested here: `pca_fit` and its transform (gemm and `eigh`) give
    different bytes under 1 and 2 threads."""
    src = os.path.dirname(os.path.dirname(facestack.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["c1.fsvm", "d2.npy", "d2_sub.npy", "lru.fsvm", "s.fstk",
                                  "scores.npy", "wide.fsvm"]
    for name, data in outputs[0].items():
        assert outputs[1][name] == data, name


def test_grid_search_solves_one_batch(monkeypatch):
    monkeypatch.setattr(pool, "_cores", lambda: 1)  # one process: the spy sees every solve
    X, y = _blobs(15, gap=1.0, seed=23)
    folds = FoldPlan(3, np.arange(len(y)) % 3)
    batches = []
    real_solve = svm_module._solve

    def spy(problems):
        batches.append(problems)
        return real_solve(problems)

    monkeypatch.setattr(svm_module, "_solve", spy)
    grid = default_grid()
    grid_search(X, y, folds)
    assert len(batches) == 1
    problems = batches[0]
    assert len(problems) == len(grid) * folds.k
    assert len({id(fold) for fold, _ in problems}) == folds.k  # one prepared fold each
    assert [params for _, params in problems] == grid * folds.k


def test_iteration_cap_warns(monkeypatch):
    X, y = _blobs(30, gap=0.8, seed=3)
    monkeypatch.setattr(svm_module, "_MAX_ITER", 1)
    with pytest.warns(RuntimeWarning, match="1-iteration cap with gap m - M"):
        svm_fit(X, y, SvmParams(C=1.0, gamma=0.5))


def test_groups_are_contiguous_and_balanced():
    assert pool._groups(list("abcde"), [1] * 5, 2) == [["a", "b"], ["c", "d", "e"]]
    assert pool._groups(list("abcde"), [9, 1, 1, 1, 1], 2) == [["a"], ["b", "c", "d", "e"]]
    assert pool._groups(list("abc"), [100, 1, 1], 3) == [["a"], ["b", "c"]]  # none empty
    assert pool._groups(list("ab"), [1, 1], 4) == [["a"], ["b"]]  # at most one per item
    assert pool._groups([], [], 0) == []


def test_cv_table_does_not_depend_on_the_worker_count(monkeypatch, forks, assert_reaped):
    X, y = _blobs(20, gap=1.0, seed=24)
    folds = FoldPlan(4, np.arange(len(y)) % 4)
    tables = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(pool, "_cores", lambda: cores)
        before = len(forks)
        tables.append(cv_scores(X, y, folds, default_grid()))
        assert len(forks) - before == cores - 1
    assert all(oracles.same_bits(table, tables[0]) for table in tables)
    assert_reaped()


def test_lru_parts_do_not_depend_on_the_worker_count(monkeypatch, forks, assert_reaped):
    monkeypatch.setattr(svm_module, "_DENSE_BYTES", 40 * 40 * 8)  # 64 and 50 rows are LRU
    jobs = _jobs(_mixed_fits())  # n = 24, 64, 40, 50, 34
    models = []
    for cores in (1, 2):
        monkeypatch.setattr(pool, "_cores", lambda: cores)
        models.append(_solve(jobs))
    assert forks
    _assert_same_models(*models)
    assert_reaped()


def test_empty_and_one_part_phases_do_not_fork(monkeypatch):
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert solve_jobs([]) == []
    part = Part(*_blobs(10))
    assert len(_solve([(part, [SvmParams(C=1.0, gamma=g) for g in (0.1, 0.5)])])) == 2


def test_a_job_with_no_params_has_no_results():
    part = Part(*_blobs(10))
    assert solve_jobs([(part, [])]) == [[]]
    jobs = [(part, []), (part, [SvmParams(C=1.0, gamma=0.5)])]
    assert [len(results) for results in solve_jobs(jobs)] == [0, 1]


def test_without_fork_or_affinity_a_phase_runs_in_process(monkeypatch):
    want = _solve(_jobs(_mixed_fits()))
    monkeypatch.delattr(os, "fork")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pool._cores() == 1
    _assert_same_models(_solve(_jobs(_mixed_fits())), want)


@pytest.mark.parametrize("error", [DataError, ConfigurationError, ZeroDivisionError])
def test_a_worker_error_is_raised_in_the_caller(monkeypatch, forks, error, assert_reaped):
    jobs = _jobs(_mixed_fits())  # n = 24 in the caller's group, the rest in a worker's
    last, real = jobs[-1][0].X, svm_module._Fold

    def fold(X, y, rows=None):
        if X is last:
            raise error(f"no fold on {len(X)} rows")
        return real(X, y, rows)

    monkeypatch.setattr(svm_module, "_Fold", fold)
    raised = []
    for cores in (1, 2):
        monkeypatch.setattr(pool, "_cores", lambda: cores)
        with pytest.raises(error) as info:
            solve_jobs(jobs)
        raised.append((type(info.value), str(info.value)))
    assert forks and raised == [(error, "no fold on 34 rows")] * 2
    assert_reaped()


def test_an_error_in_the_callers_group_kills_the_workers(monkeypatch, forks, assert_reaped):
    caller = os.getpid()

    def run(*args):
        if os.getpid() != caller:
            time.sleep(60)
        raise DataError("the caller's group failed")

    monkeypatch.setattr(svm_module, "_solve_run", run)
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    start = time.monotonic()
    with pytest.raises(DataError, match="caller's group"):
        solve_jobs(_jobs(_mixed_fits()))
    assert forks and time.monotonic() - start < 30  # the worker was killed, not waited out
    assert_reaped()


def test_a_worker_that_dies_fails_the_call(monkeypatch, forks, assert_reaped):
    caller, real = os.getpid(), svm_module._solve_run

    def run(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(svm_module, "_solve_run", run)
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    with pytest.raises(ChildProcessError, match="wait status 9 "):
        solve_jobs(_jobs(_mixed_fits()))
    assert forks
    assert_reaped()


def test_a_result_that_cannot_be_pickled_fails_in_the_caller(monkeypatch, forks, tmp_path,
                                                             assert_reaped):
    caller, real = os.getpid(), svm_module._solve_run

    def run(*args):
        out = real(*args)
        return out if os.getpid() == caller else [[lambda: None] for _ in out]

    monkeypatch.setattr(svm_module, "_solve_run", run)
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    with pytest.raises(pickle.PicklingError, match="could not be pickled"):
        solve_jobs(_jobs(_mixed_fits()))
    (tmp_path / str(os.getpid())).touch()  # a worker that ran on into this test would, too
    assert forks and [p.name for p in tmp_path.iterdir()] == [str(caller)]
    assert_reaped()


def test_worker_warnings_are_reissued_in_order(monkeypatch, forks):
    monkeypatch.setattr(svm_module, "_MAX_ITER", 1)
    jobs = _jobs(_mixed_fits())
    seen = []
    for cores in (1, 2):
        monkeypatch.setattr(pool, "_cores", lambda: cores)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_jobs(jobs)
        seen.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
    assert forks and seen[0] == seen[1]
    assert len(seen[0]) == len(jobs) and all("1-iteration cap" in w[0] for w in seen[0])


def test_a_worker_warning_meets_the_callers_filters(monkeypatch, forks, assert_reaped):
    # only the worker's problem hits the cap; this module turns RuntimeWarning into an error
    monkeypatch.setattr(svm_module, "_MAX_ITER", 1)
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    params = SvmParams(C=1.0, gamma=0.5)
    two_rows = Part(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]))  # solved in one step
    solve_jobs([(two_rows, [params])])
    jobs = [(two_rows, [params]), (Part(*_blobs(30, gap=0.8, seed=3)), [params])]
    with pytest.raises(RuntimeWarning, match="1-iteration cap"):
        solve_jobs(jobs)
    assert forks
    assert_reaped()


def _ref_pairs(rows):
    """ref_pair_update of each row of (ai, aj, Ci, Cj, yi, yj, Gi, Gj, quad) -> (ai, aj)."""
    return tuple(np.array(v) for v in zip(*(oracles.ref_pair_update(*row) for row in rows)))


def _pair_update(rows):
    """svm._pair_update of the same rows, whose Ci and Cj are equal."""
    ai, aj, Ci, Cj, *rest = np.array(rows, dtype=np.float64).T
    assert np.array_equal(Ci, Cj)
    return svm_module._pair_update(ai, aj, Ci, *rest)


# (ai, aj, Ci, Cj, yi, yj, Gi, Gj, quad) -> the (ai, aj) LIBSVM's ladder ends at;
# Ci == Cj, as in every pair `_solve` updates
PAIR_BRANCHES = [
    # yi != yj: ai - aj = diff is kept
    ((0.5, 0.2, 1.0, 1.0, 1, -1, 0.5, 0.5, 1.0), (0.3, 0.0)),     # diff > 0, aj < 0
    ((0.2, 0.5, 1.0, 1.0, -1, 1, 0.5, 0.5, 1.0), (0.0, 0.3)),     # diff <= 0, ai < 0
    ((0.5, 0.2, 1.0, 1.0, 1, -1, -0.5, -0.5, 1.0), (1.0, 0.7)),   # diff > Ci - Cj, ai > Ci
    ((0.2, 0.5, 1.0, 1.0, -1, 1, -0.5, -0.5, 1.0), (0.7, 1.0)),   # diff <= Ci - Cj, aj > Cj
    ((0.5, 0.2, 1.0, 1.0, 1, -1, -0.1, -0.1, 1.0), (0.7, 0.4)),   # no clip
    ((0.3, 0.3, 1.0, 1.0, 1, -1, 0.5, 0.5, 1.0), (0.0, -0.0)),    # diff = 0: aj = -diff
    ((0.3, 0.3, 1.0, 1.0, 1, -1, -0.5, -0.5, 1.0), (1.0, 1.0)),   # diff = Ci - Cj: aj = Cj
    # yi == yj: ai + aj = total is kept
    ((0.8, 0.6, 1.0, 1.0, 1, 1, -0.5, 0.5, 1.0), (1.0, 0.4)),     # total > Ci, ai > Ci
    ((0.3, 0.2, 1.0, 1.0, -1, -1, -0.5, 0.5, 1.0), (0.5, 0.0)),   # total <= Ci, aj < 0
    ((0.8, 0.6, 1.0, 1.0, 1, 1, 0.5, -0.5, 1.0), (0.4, 1.0)),     # total > Cj, aj > Cj
    ((0.3, 0.2, 1.0, 1.0, -1, -1, 0.5, -0.5, 1.0), (0.0, 0.5)),   # total <= Cj, ai < 0
    ((0.3, 0.2, 1.0, 1.0, 1, 1, -0.1, 0.1, 1e-12), (0.5, 0.0)),   # quad at _TAU, aj < 0
]


def test_pair_update_reaches_every_clip_of_libsvm():
    rows = [row for row, _ in PAIR_BRANCHES]
    got, want = _pair_update(rows), _ref_pairs(rows)
    assert oracles.same_bits(got[0], want[0]) and oracles.same_bits(got[1], want[1])
    np.testing.assert_allclose(np.array(got).T, [end for _, end in PAIR_BRANCHES], atol=1e-15)


def test_pair_update_equals_the_scalar_ladder():
    # one C per pair, passed to LIBSVM's ladder as both Ci and Cj; alphas often sit at a bound
    rng = np.random.default_rng(60)
    n = 4000
    C = rng.choice([0.25, 1.0, 3.0, 8.0], (n, 1))
    alpha = np.where(rng.random((n, 2)) < 0.3, rng.choice([0.0, 1.0], (n, 2)),
                     rng.random((n, 2))) * C
    y = rng.choice([-1.0, 1.0], (n, 2))
    G = rng.normal(0, 2, (n, 2))
    quad = np.where(rng.random(n) < 0.05, 1e-12, rng.random(n) * 4)
    rows = np.column_stack([alpha, C, C, y, G, quad])
    got, want = _pair_update(rows), _ref_pairs(rows.tolist())
    assert oracles.same_bits(got[0], want[0]) and oracles.same_bits(got[1], want[1])


def test_violators_mark_I_up_and_I_low():
    rng = np.random.default_rng(61)
    y = rng.choice([-1.0, 0.0, 1.0], (6, 50))
    C = np.where(y == 0, 0.0, rng.choice([0.5, 2.0], y.shape))  # y = 0 is padding
    alpha = np.where(rng.random(y.shape) < 0.5, rng.choice([0.0, 1.0], y.shape),
                     rng.random(y.shape)) * C
    G = rng.normal(size=y.shape)
    up, low = svm_module._violators(y, alpha, G, np.where(y > 0, C, 0.0), np.where(y > 0, 0.0, -C))
    in_up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    in_low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
    assert oracles.same_bits(up, np.where(in_up, -y * G, -np.inf))
    assert oracles.same_bits(low, np.where(in_low, -y * G, np.inf))


def test_checked_problem_that_runs_on_keeps_its_bits(monkeypatch):
    # The steps' kernel rows are off by a factor 1 + 1e-3, the exact gradient of a
    # check is not, so an incremental gap below _TOL can be an exact gap above
    # it, and the problem runs on from the check. (At 1 + 1e-9 no problem here
    # does.) It must step in the same pass and keep its bits in any batch.
    monkeypatch.setattr(pool, "_cores", lambda: 1)  # one process: the spy sees every solve
    real_call, real_rows = _Gather.__call__, _Gather.d2_rows
    checks = []

    def spy(self, a, idx):
        checks.append(a)
        return real_rows(self, a, idx)

    monkeypatch.setattr(_Gather, "__call__", lambda self, rows: real_call(self, rows) * (1 + 1e-3))
    monkeypatch.setattr(_Gather, "d2_rows", spy)
    fits = _mixed_fits()
    batched = _solve(_jobs(fits))
    assert len(checks) > len(fits)  # one check ends each problem; the others ran on
    _assert_same_models(batched, [svm_fit(*fit) for fit in fits])


@pytest.mark.parametrize("scale", [1.0, 1 + 1e-3], ids=["exact", "drifting"])
def test_solve_equals_the_scalar_wss2_oracle(monkeypatch, scale):
    # every problem of a lockstep batch takes the steps of LIBSVM's scalar loop,
    # also when kernel rows that drift from the exact gradient make checks run on
    real_call = _Gather.__call__
    monkeypatch.setattr(_Gather, "__call__", lambda self, rows: real_call(self, rows) * scale)
    problems = [(_Fold(X, y), params) for X, y, params in _mixed_fits()]
    for (fold, params), (alpha, bias) in zip(problems, svm_module._solve(problems)):
        alone = _Gather([(fold, params)])
        C = np.full(len(fold), params.C)
        want, G = oracles.ref_wss2(
            lambda i: alone(np.array([i]))[0],
            lambda sv: np.exp(-params.gamma * alone.d2_rows(0, sv)),
            fold.y, C, _TOL, svm_module._TAU)
        assert oracles.same_bits(alpha, want)
        assert bias == svm_module._bias(fold.y, want, C, G)
