import numpy as np
import pytest

import oracles
from facestack import svm as svm_module
from facestack import (
    ConfigurationError,
    DataError,
    FeatureMatrix,
    ScoreMatrix,
    SvmParams,
    default_grid,
    grid_search,
    load_model,
    load_scores,
    save_model,
    save_scores,
    svm_fit,
    svm_score,
)
from facestack.dataset import FoldPlan
from facestack.svm import (GRID_C, GRID_GAMMA, _Fold, _grid_accuracies, _kernel_block,
                           _scale_fit, derive_seed, rbf_kernel)

# a solve that stops at the sweep cap warns; no test here may do so unasked
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
    with pytest.raises(ConfigurationError):
        SvmParams(C=1.0, gamma=0.1, tolerance=0)
    with pytest.raises(ConfigurationError):
        SvmParams(C=1.0, gamma=0.1, kernel="poly")


def test_rbf_kernel_values():
    assert rbf_kernel([0.0, 0.0], [0.0, 0.0], 0.5) == 1.0
    assert rbf_kernel([0.0], [2.0], 0.25) == pytest.approx(np.exp(-1.0))


def test_two_point_case():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([-1.0, 1.0])
    m = svm_fit(X, y, SvmParams(C=1.0, gamma=0.1))
    assert len(m.dual_coefs) == 2
    assert abs(m.dual_coefs.sum()) <= 1e-6
    s = m.decision_function(X)
    assert s[0] < 0 < s[1]
    assert svm_score(m, X[1]) == pytest.approx(s[1])


def test_blobs_match_qp_oracle():
    X, y = _blobs(20)
    params = SvmParams(C=1.0, gamma=0.5)
    m = svm_fit(X, y, params, seed=1)
    assert _accuracy(m, X, y) == 1.0

    _, _, Xs = _scale_fit(np.asarray(X, dtype=np.float64))
    K = _kernel_block(params, Xs, Xs)
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
    m = svm_fit(X, y, params, seed=2)
    _, _, Xs = _scale_fit(np.asarray(X, dtype=np.float64))
    alpha = _alphas_by_row(m, Xs)
    bad = oracles.kkt_violations(alpha, y, m.decision_function(X), params.C, params.tolerance)
    assert bad == []


def test_model_invariants():
    X, y = _blobs(25, gap=0.5, seed=4)
    params = SvmParams(C=2.0, gamma=1.0)
    m = svm_fit(X, y, params, seed=0)
    assert (np.abs(m.dual_coefs) <= params.C + 1e-12).all()
    assert abs(m.dual_coefs.sum()) <= 1e-6
    assert (m.dual_coefs > 0).any() and (m.dual_coefs < 0).any()  # one SV per class


def test_xor_needs_rbf():
    rng = np.random.default_rng(7)
    centers = [(1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)]
    X = np.vstack([rng.normal(0, 0.18, (20, 2)) + [cx, cy] for cx, cy, _ in centers])
    y = np.array(sum(([float(s)] * 20 for _, _, s in centers), []))
    rbf = svm_fit(X, y, SvmParams(C=4.0, gamma=4.0))
    lin = svm_fit(X, y, SvmParams(C=4.0, gamma=1.0, kernel="linear"))
    assert _accuracy(rbf, X, y) == 1.0
    assert _accuracy(lin, X, y) <= 0.75


def test_row_order_invariance():
    X, y = _blobs(25, gap=1.0, seed=5)
    params = SvmParams(C=1.0, gamma=0.5)
    m1 = svm_fit(X, y, params, seed=9)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(y))
    m2 = svm_fit(X[perm], y[perm], params, seed=9)
    probe = rng.normal(0, 1.5, (40, 2))
    assert np.array_equal(m1.support_vectors, m2.support_vectors)
    assert np.array_equal(m1.decision_function(probe), m2.decision_function(probe))


def test_duplication_leaves_held_out_scores():
    X, y = _blobs(20, gap=2.5, seed=6)
    # wide margin and generous C keep every alpha interior, where doubling
    # each sample leaves the solution unchanged
    params = SvmParams(C=10.0, gamma=0.5)
    m1 = svm_fit(X, y, params, seed=1)
    m2 = svm_fit(np.vstack([X, X]), np.r_[y, y], params, seed=1)
    probe = np.random.default_rng(1).normal(0, 2.0, (50, 2))
    np.testing.assert_allclose(m1.decision_function(probe),
                               m2.decision_function(probe), atol=1e-6)


def test_seed_changes_nothing_but_pair_order():
    X, y = _blobs(20, gap=1.5, seed=8)
    params = SvmParams(C=1.0, gamma=0.5)
    s1 = svm_fit(X, y, params, seed=1).decision_function(X)
    s2 = svm_fit(X, y, params, seed=2).decision_function(X)
    np.testing.assert_allclose(s1, s2, atol=1e-3)  # same optimum either way


def test_class_weight_shifts_boundary():
    rng = np.random.default_rng(11)
    X = np.vstack([rng.normal(0, 1, (80, 2)) + 0.7, rng.normal(0, 1, (20, 2)) - 0.7])
    y = np.r_[np.ones(80), -np.ones(80 // 4)]
    params = SvmParams(C=1.0, gamma=0.5)
    plain = svm_fit(X, y, params)
    weighted = svm_fit(X, y, params, class_weight={-1: 4.0, 1: 1.0})
    minority = y == -1
    rec_plain = np.mean(plain.decision_function(X[minority]) < 0)
    rec_weighted = np.mean(weighted.decision_function(X[minority]) < 0)
    assert rec_weighted > rec_plain


def test_feature_matrix_carries_descriptor_id():
    X, y = _blobs(10)
    fm = FeatureMatrix(X.astype(np.float32), "hog")
    m = svm_fit(fm, y, SvmParams(C=1.0, gamma=0.5))
    assert m.descriptor_id == "hog"


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
    m = svm_fit(X, y, SvmParams(C=2.0, gamma=0.095), descriptor_id="lbpu2")
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
    np.testing.assert_array_equal(back.column("C3"), [-1.25, 0.125])
    with pytest.raises(DataError):
        back.column("C9")


def test_score_matrix_validation():
    with pytest.raises(DataError):
        ScoreMatrix(np.zeros((2, 3)), ("C1", "C2"))
    with pytest.raises(DataError):
        ScoreMatrix(np.zeros((2, 2)), ("C1", "C2"), np.array([0, 1, 2]))


def test_default_grid_layout():
    grid = default_grid()
    assert len(grid) == len(GRID_C) * len(GRID_GAMMA)
    assert grid[0].C == GRID_C[0] and grid[0].gamma == GRID_GAMMA[0]
    assert {p.C for p in grid} == set(GRID_C)


def test_grid_search_picks_sensible_params():
    X, y = _blobs(30, gap=1.2, seed=13)
    folds = FoldPlan(3, np.arange(len(y)) % 3, 0, "by_sample")
    best = grid_search(X, y, folds, seed=5)
    assert best in default_grid()
    assert best == grid_search(X, y, folds, seed=5)  # deterministic


def test_grid_search_beats_bad_params():
    # xor-style clusters: a near-linear kernel underfits, so the search
    # must prefer the entry that can bend the boundary
    rng = np.random.default_rng(13)
    centers = [(1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)]
    X = np.vstack([rng.normal(0, 0.2, (12, 2)) + [cx, cy] for cx, cy, _ in centers])
    y = np.array(sum(([float(s)] * 12 for _, _, s in centers), []))
    folds = FoldPlan(3, np.arange(len(y)) % 3, 0, "by_sample")
    good = SvmParams(C=4.0, gamma=4.0)
    bad = SvmParams(C=0.25, gamma=1e-6)
    assert grid_search(X, y, folds, grid=[bad, good], seed=0) == good


def test_grid_search_empty_grid():
    X, y = _blobs(6)
    folds = FoldPlan(2, np.arange(len(y)) % 2, 0, "by_sample")
    with pytest.raises(ConfigurationError):
        grid_search(X, y, folds, grid=[])


def _naive_accuracies(X, y, folds, grid, seed, class_weight=None):
    """Reference for _grid_accuracies: one fit on raw rows per point and fold."""
    accs = np.empty((len(grid), folds.k))
    for pi, params in enumerate(grid):
        for f in range(folds.k):
            train_idx, test_idx = folds.split(f)
            m = svm_fit(X[train_idx], y[train_idx], params, seed=derive_seed(seed, pi, f),
                        class_weight=class_weight)
            pred = np.where(m.decision_function(X[test_idx]) >= 0, 1.0, -1.0)
            accs[pi, f] = np.mean(pred == y[test_idx])
    return accs


_HAND_GRID = [  # a linear point, and gamma values repeated and out of order
    SvmParams(C=1.0, gamma=0.5),
    SvmParams(C=4.0, gamma=0.1, kernel="linear"),
    SvmParams(C=2.0, gamma=0.05),
    SvmParams(C=0.5, gamma=2.0),
    SvmParams(C=1.0, gamma=0.5),
    SvmParams(C=8.0, gamma=0.05),
]


@pytest.mark.parametrize("grid, class_weight", [
    (None, None),
    (None, {-1: 3.0, 1: 1.0}),
    (_HAND_GRID, None),
], ids=["default", "class_weight", "hand_grid"])
def test_grid_search_matches_naive_loop(grid, class_weight):
    X, y = _blobs(30, gap=0.35, d=8, seed=21)
    folds = FoldPlan(3, np.arange(len(y)) % 3, 0, "by_sample")
    points = default_grid() if grid is None else grid
    want = _naive_accuracies(X, y, folds, points, 7, class_weight)
    got = _grid_accuracies(X, y, folds, points, 7, class_weight)
    assert len(np.unique(want.mean(axis=1))) > 1  # the points do differ
    assert np.array_equal(got, want)
    pick = min(range(len(points)), key=lambda pi: (-np.mean(want[pi]), points[pi].C,
                                                   points[pi].gamma))
    assert grid_search(X, y, folds, grid=grid, seed=7, class_weight=class_weight) == points[pick]


def test_fit_on_prepared_fold_matches_raw_rows():
    X, y = _blobs(25, gap=0.8, d=5, seed=22)
    params = SvmParams(C=2.0, gamma=0.3)
    fold = _Fold(X, y)
    a = svm_fit(fold, None, params, seed=4, class_weight={-1: 2.0})
    b = svm_fit(X, y, params, seed=4, class_weight={-1: 2.0})
    for name in ("support_vectors", "dual_coefs", "feature_min", "feature_max"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.bias == b.bias
    assert np.array_equal(fold.X[fold.support], a.support_vectors)


@pytest.mark.parametrize("n, d", [(48, 576), (96, 1475), (96, 512)])
def test_fold_distances_give_the_direct_kernel(n, d):
    # rows cut from the fold's memo and block must be bit-identical to
    # kernels computed directly on the same rows
    rng = np.random.default_rng(n + d)
    fold = _Fold(rng.random((n, d)), np.where(np.arange(n) % 2, 1.0, -1.0))
    Xt, d2 = fold.held_out(rng.random((40, d)))  # two row chunks at d=1475
    cols = np.sort(rng.choice(n, n // 2, replace=False))
    for gamma in GRID_GAMMA:
        p = SvmParams(C=1.0, gamma=gamma)
        assert np.array_equal(_kernel_block(p, Xt, fold.X[cols], d2[:, cols]),
                              _kernel_block(p, Xt, fold.X[cols]))
        for i in (0, n // 2, n - 1):
            row = fold.X[i : i + 1]
            assert np.array_equal(_kernel_block(p, fold.X, row, fold.d2_row(i)[:, None]),
                                  _kernel_block(p, fold.X, row))


def test_grid_search_fits_through_svm_fit(monkeypatch):
    X, y = _blobs(15, gap=1.0, seed=23)
    folds = FoldPlan(3, np.arange(len(y)) % 3, 0, "by_sample")
    calls = []

    def spy(*args, **kwargs):
        calls.append((args[0], kwargs["seed"]))
        return svm_fit(*args, **kwargs)

    monkeypatch.setattr(svm_module, "svm_fit", spy)
    grid = default_grid()
    grid_search(X, y, folds, grid=grid, seed=1)
    assert len(calls) == len(grid) * folds.k
    assert len({id(fold) for fold, _ in calls}) == folds.k  # one prepared fold each
    assert sorted(seed for _, seed in calls) == sorted(
        derive_seed(1, pi, f) for pi in range(len(grid)) for f in range(folds.k))


def test_sweep_cap_warns(monkeypatch):
    X, y = _blobs(30, gap=0.8, seed=3)
    monkeypatch.setattr(svm_module, "_SWEEP_CAP", 1)
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        svm_fit(X, y, SvmParams(C=1.0, gamma=0.5), seed=2)
