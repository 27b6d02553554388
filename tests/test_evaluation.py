import json
import tracemalloc

import numpy as np
import pytest

import oracles
from facestack import (
    ConfigurationError,
    DataError,
    FirstStageSpec,
    Sample,
    StageData,
    SvmParams,
    auc_trapezoid,
    error_breakdown,
    evaluate,
    mean_pattern,
    roc_curve,
    run_crossdb,
    run_kfold,
    save_report,
    save_roc,
)
from facestack import evaluation
from facestack import pool
from facestack import svm as svm_module
from facestack.pca import pca_fit
from facestack.stacking import oof_scores, save_stacked, stack_fit, stack_scores
from facestack.svm import (cv_scores, default_grid, derive_seed, grid_search, save_model,
                           svm_fit)
from facestack.dataset import make_folds

PARAMS = SvmParams(C=1.0, gamma=0.095)


def test_evaluate_perfect_split():
    r = evaluate([-2.0, -1.0, 1.0, 2.0], [-1, -1, 1, 1])
    assert r.accuracy == 1.0
    assert r.accuracy_female == 1.0 and r.accuracy_male == 1.0
    assert r.confusion.tolist() == [[2, 0], [0, 2]]
    assert r.auc == 1.0
    assert r.n_samples == 4


def test_evaluate_mixed_case():
    # pred: -1, +1, -1, +1 against true -1, -1, +1, +1
    r = evaluate([-1.0, 2.0, -3.0, 0.5], [-1, -1, 1, 1])
    assert r.accuracy == 0.5
    assert r.confusion.tolist() == [[1, 1], [1, 1]]
    assert r.accuracy_female == 0.5 and r.accuracy_male == 0.5


def test_zero_score_is_male():
    r = evaluate([0.0, -0.1], [1, -1])
    assert r.accuracy == 1.0


def test_evaluate_guards():
    with pytest.raises(DataError):
        evaluate([], [])
    with pytest.raises(DataError):
        evaluate([1.0, 2.0], [1, 1])  # single class
    with pytest.raises(DataError):
        evaluate([1.0], [1, -1])
    with pytest.raises(DataError):
        evaluate([np.nan, 1.0], [1, -1])
    with pytest.raises(DataError):
        evaluate([1.0, -1.0], [1, 0])


def test_roc_hand_case_with_ties():
    pts = roc_curve([3.0, 2.0, 2.0, 1.0], [1, 1, -1, -1])
    assert pts.tolist() == [[0.0, 0.0], [0.0, 0.5], [0.5, 1.0], [1.0, 1.0]]
    assert auc_trapezoid(pts) == pytest.approx(0.875)


def test_roc_starts_and_ends_at_corners():
    rng = np.random.default_rng(0)
    scores = rng.normal(0, 1, 50)
    labels = np.where(rng.random(50) < 0.4, 1, -1)
    pts = roc_curve(scores, labels)
    assert pts[0].tolist() == [0.0, 0.0]
    assert pts[-1].tolist() == [1.0, 1.0]
    assert (np.diff(pts[:, 0]) >= 0).all() and (np.diff(pts[:, 1]) >= 0).all()


def test_roc_needs_both_classes():
    with pytest.raises(DataError):
        roc_curve([1.0, 2.0], [1, 1])


def test_auc_agrees_with_rank_statistic():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(10, 80))
        scores = np.round(rng.normal(0, 1, n), 1 if trial % 2 else 6)  # force ties half the time
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        if len(np.unique(labels)) < 2:
            continue
        auc = auc_trapezoid(roc_curve(scores, labels))
        assert auc == pytest.approx(oracles.auc_mannwhitney(scores, labels), abs=1e-9)


def _stagedata(n, seed=0, informative=True, pca=0, width=4):
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    X = rng.normal(0, 1, (n, width))
    if informative:
        X[:, 0] = y * 1.5 + rng.normal(0, 0.4, n)
    return StageData(FirstStageSpec("C1", "custom", "raw"), X, pca), y


def test_run_kfold_pooled_equals_weighted_fold_mean():
    stage, y = _stagedata(103, seed=2)
    report, pooled = run_kfold([stage], y, k=5, seed=4, params=PARAMS)
    folds = make_folds(y, 5, seed=derive_seed(4, 77))
    sizes = np.bincount(folds.assignments, minlength=5)
    weighted = float(np.dot(report.per_fold_accuracies, sizes) / sizes.sum())
    assert report.accuracy == pytest.approx(weighted, abs=1e-12)
    assert len(pooled) == 103
    assert report.accuracy > 0.9


def test_run_kfold_deterministic():
    stage, y = _stagedata(60, seed=3)
    r1, p1 = run_kfold([stage], y, k=3, seed=11, params=PARAMS)
    r2, p2 = run_kfold([stage], y, k=3, seed=11, params=PARAMS)
    assert np.array_equal(p1, p2)
    assert r1.accuracy == r2.accuracy
    assert r1.per_fold_accuracies == r2.per_fold_accuracies


def test_run_kfold_two_seeds_agree_on_separable_data():
    # fold assignment is the only seed-dependent step, so on cleanly
    # separable data different seeds should land on near-identical accuracy
    rng = np.random.default_rng(14)
    n = 120
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    X = rng.normal(0, 1, (n, 4))
    X[:, 0] = y * 2.5 + rng.normal(0, 0.3, n)
    stage = StageData(FirstStageSpec("C1", "custom", "raw"), X)
    r1, _ = run_kfold([stage], y, k=5, seed=0, params=PARAMS)
    r2, _ = run_kfold([stage], y, k=5, seed=1, params=PARAMS)
    assert abs(r1.accuracy - r2.accuracy) <= 0.02
    assert r1.accuracy > 0.9


def test_run_kfold_with_explicit_folds_and_guards():
    stage, y = _stagedata(30, seed=5)
    folds = make_folds(y, 3, seed=9)
    report, _ = run_kfold([stage], y, folds=folds, params=PARAMS)
    assert len(report.per_fold_accuracies) == 3
    with pytest.raises(ConfigurationError):
        run_kfold([], y)
    with pytest.raises(DataError):
        run_kfold([stage], y[:-1], params=PARAMS)
    short = make_folds(y[:-2], 3, seed=9)
    with pytest.raises(DataError):
        run_kfold([stage], y, folds=short, params=PARAMS)


def test_run_kfold_stacked_on_complementary_views():
    rng = np.random.default_rng(6)
    n = 150
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    half = rng.random(n) < 0.5
    a = rng.normal(0, 1, (n, 3))
    b = rng.normal(0, 1, (n, 3))
    a[half, 0] = y[half] * 2 + rng.normal(0, 0.3, half.sum())
    b[~half, 0] = y[~half] * 2 + rng.normal(0, 0.3, (~half).sum())
    stages = [StageData(FirstStageSpec("C1", "custom", "raw"), a),
              StageData(FirstStageSpec("C3", "custom", "raw"), b)]
    stacked, _ = run_kfold(stages, y, k=3, seed=1, params=PARAMS)
    single, _ = run_kfold(stages[:1], y, k=3, seed=1, params=PARAMS)
    assert stacked.accuracy > single.accuracy


def test_pca_stage_fits_on_training_rows_only(monkeypatch):
    seen = []
    real = evaluation.pca_fit

    def spy(X, k):
        seen.append(len(X))
        return real(X, k)

    monkeypatch.setattr(evaluation, "pca_fit", spy)
    stage, y = _stagedata(60, seed=7, pca=3, width=8)
    report, _ = run_kfold([stage], y, k=3, seed=0, params=PARAMS)
    assert seen and all(n == 40 for n in seen)  # 2/3 of 60, never all rows
    assert report.accuracy > 0.8


def test_run_crossdb_basic():
    tr, ytr = _stagedata(80, seed=8)
    te, yte = _stagedata(50, seed=9)
    report, scores = run_crossdb([tr], [te], ytr, yte, params=PARAMS)
    assert report.accuracy > 0.85
    assert len(scores) == 50
    # deterministic
    report2, scores2 = run_crossdb([tr], [te], ytr, yte, params=PARAMS)
    assert np.array_equal(scores, scores2)


def test_run_crossdb_rejects_mismatched_stages():
    tr, ytr = _stagedata(20, seed=11)
    te, yte = _stagedata(20, seed=12)
    other = StageData(FirstStageSpec("C9", "custom", "raw"), te.features)
    with pytest.raises(ConfigurationError):
        run_crossdb([tr], [other], ytr, yte, params=PARAMS)
    narrow = StageData(te.spec, te.features[:, :2])
    with pytest.raises(DataError):
        run_crossdb([tr], [narrow], ytr, yte, params=PARAMS)


def test_run_crossdb_pca_sees_training_rows_only(monkeypatch):
    seen = []
    real = evaluation.pca_fit

    def spy(X, k):
        seen.append(len(X))
        return real(X, k)

    monkeypatch.setattr(evaluation, "pca_fit", spy)
    tr, ytr = _stagedata(70, seed=13, pca=3, width=8)
    te, yte = _stagedata(40, seed=14, pca=3, width=8)
    run_crossdb([tr], [te], ytr, yte, params=PARAMS)
    assert seen == [70]


def _views(n, seed, widths):
    """One noisy view per width, each informative through a shared 2-D signal."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2, 1.0, -1.0)[rng.permutation(n)]
    views = []
    for d in widths:
        Z = rng.normal(0, 1, (n, 2)) + 0.7 * y[:, None]
        views.append(Z @ rng.normal(0, 1, (2, d)) + rng.normal(0, 0.8, (n, d)))
    return views, y


def _stages(views, pca, rows=slice(None)):
    return [StageData(FirstStageSpec(f"C{s + 1}", "custom", "raw"), X[rows], p)
            for s, (X, p) in enumerate(zip(views, pca))]


# (stage widths, PCA components per stage, params)
EVAL_CASES = [
    pytest.param((6,), (0,), PARAMS, id="single-fixed"),
    pytest.param((6,), (0,), None, id="single-grid"),
    pytest.param((8,), (3,), PARAMS, id="single-pca"),
    pytest.param((6, 8, 5), (0, 4, 0), SvmParams(C=4.0, gamma=0.3), id="stack3-fixed-pca"),
    pytest.param((6, 8, 5), (0, 4, 0), None, id="stack3-grid-pca"),
]


@pytest.mark.parametrize("widths, pca, params", EVAL_CASES)
def test_run_kfold_equals_the_naive_loop(widths, pca, params):
    views, y = _views(36, 31, widths)
    seed, k = 5, 3
    _, pooled = run_kfold(_stages(views, pca), y, k=k, seed=seed, params=params)
    folds = make_folds(y, k, derive_seed(seed, 77))
    grid = default_grid() if params is None else [params]
    want = np.full(len(y), np.nan)
    for f in range(k):
        train, test = folds.split(f)
        inner = make_folds(y[train], 5, derive_seed(derive_seed(seed, 5, f), 101))
        want[test] = oracles.ref_fit_and_score(
            [X[train] for X in views], y[train], [X[test] for X in views],
            [inner.split(i) for i in range(inner.k)], grid, svm_fit, pca_fit, pca)
    assert np.array_equal(pooled, want)  # bit for bit


@pytest.mark.parametrize("widths, pca, params", [EVAL_CASES[1], EVAL_CASES[2], EVAL_CASES[3]])
def test_run_crossdb_equals_the_naive_loop(widths, pca, params):
    views, y = _views(56, 32, widths)
    tr, te = slice(0, 30), slice(30, None)
    seed = 3
    _, scores = run_crossdb(_stages(views, pca, tr), _stages(views, pca, te), y[tr], y[te],
                            seed=seed, params=params)
    inner = make_folds(y[tr], 5, derive_seed(derive_seed(seed, 9), 101))
    want = oracles.ref_fit_and_score(
        [X[tr] for X in views], y[tr], [X[te] for X in views],
        [inner.split(i) for i in range(inner.k)],
        default_grid() if params is None else [params], svm_fit, pca_fit, pca)
    assert np.array_equal(scores, want)  # bit for bit


def _saved(save, obj, path):
    save(path, obj)
    return path.read_bytes()


def _kfold_outputs(pca, params):
    def outputs(mats, y, folds, tmp_path):
        report, pooled = run_kfold(_stages(mats, pca), y, k=3, seed=5, params=params)
        return [pooled.tobytes(), json.dumps(report.to_dict())]
    return outputs


def _specs(mats):
    return [FirstStageSpec(f"C{s + 1}", "custom", "raw") for s in range(len(mats))]


def _svm_outputs(mats, y, folds, tmp_path):
    model = svm_fit(mats[0], y, PARAMS)
    return [_saved(save_model, model, tmp_path / "m.fsvm"),
            model.decision_function(mats[0]).tobytes(), model.decision_function(mats[0][0])]


def _cv_outputs(mats, y, folds, tmp_path):
    return [cv_scores(mats[0], y, folds, default_grid()[::7]).tobytes(),
            grid_search(mats[0], y, folds)]


def _stack_outputs(mats, y, folds, tmp_path):
    model = stack_fit(mats, y, folds, _specs(mats), params=PARAMS)
    return [_saved(save_stacked, model, tmp_path / "m.fstk"),
            stack_scores(model, mats).tobytes()]


def _crossdb_outputs(mats, y, folds, tmp_path):
    tr, te = slice(0, 40), slice(40, None)
    report, scores = run_crossdb(_stages(mats, (0, 4), tr), _stages(mats, (0, 4), te),
                                 y[tr], y[te], seed=3, params=None)
    return [scores.tobytes(), json.dumps(report.to_dict())]


@pytest.mark.parametrize("outputs", [
    pytest.param(_svm_outputs, id="svm_fit"),
    pytest.param(_cv_outputs, id="cv_scores-grid_search"),
    pytest.param(lambda mats, y, folds, tmp_path: [
        oof_scores(mats, y, folds, _specs(mats), params=PARAMS).scores.tobytes()],
        id="oof_scores"),
    pytest.param(_stack_outputs, id="stack_fit"),
    pytest.param(_kfold_outputs((0, 0), PARAMS), id="run_kfold-fixed"),
    pytest.param(_kfold_outputs((0, 0), None), id="run_kfold-grid"),
    pytest.param(_kfold_outputs((3, 0), PARAMS), id="run_kfold-pca"),
    pytest.param(_crossdb_outputs, id="run_crossdb"),
])
def test_float32_features_give_the_bytes_of_their_float64_copies(outputs, tmp_path):
    # rows widen exactly where they are scaled, so a float32 matrix (what
    # .fsfm stores) and its float64 copy give the same models and scores
    views, y = _views(60, 41, (12, 9))
    mats = [X.astype(np.float32) for X in views]
    folds = make_folds(y, 3, seed=1)
    got = outputs(mats, y, folds, tmp_path)
    assert got == outputs([X.astype(np.float64) for X in mats], y, folds, tmp_path)


def _five_stages(n=120, widths=(576, 576, 256, 256, 128), seed=0, dtype=np.float64):
    """Five stages of C1-like widths on n rows, as in S5."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2, 1.0, -1.0)
    stages = []
    for s, d in enumerate(widths):
        Z = rng.normal(0, 1, (n, 2)) + 0.6 * y[:, None]
        X = Z @ rng.normal(0, 1, (2, d)) + rng.normal(0, 0.5, (n, d))
        stages.append(StageData(FirstStageSpec(f"C{s + 1}", "custom", "raw"), X.astype(dtype)))
    return stages, y


def test_five_stage_kfold_solves_by_phase(monkeypatch):
    monkeypatch.setattr(pool, "_cores", lambda: 1)  # one process: the spy sees every solve
    stages, y = _five_stages()
    sizes = []
    real = svm_module._solve

    def counted(problems):
        sizes.append(len(problems))
        return real(problems)

    monkeypatch.setattr(svm_module, "_solve", counted)
    run_kfold(stages, y, k=5, seed=7, params=PARAMS)
    # per outer fold: 5 inner-CV problems per stage, 5 deployed stages, 1 meta
    # SVM. A solve per stage and outer fold, plus one for the deployed stages
    # and one for the meta SVM, made 5 x 7 = 35 solves.
    assert sum(sizes) == 5 * (5 * 5 + 5 + 1)
    assert len(sizes) <= 8


def test_five_stage_kfold_does_not_depend_on_the_worker_count(monkeypatch, forks):
    stages, y = _five_stages()
    pooled = []
    for cores in (1, 2):
        monkeypatch.setattr(pool, "_cores", lambda: cores)
        pooled.append(run_kfold(stages, y, k=5, seed=7, params=PARAMS)[1])
        assert bool(forks) == (cores > 1)
    assert oracles.same_bits(*pooled)


def _kfold_peak(dtype=None):
    """tracemalloc peak of the S5-like run_kfold of this file, its stages
    built in dtype inside the traced window or, if dtype is None, before it."""
    warm, y_warm = _five_stages(n=30, widths=(8, 8))
    run_kfold(warm, y_warm, k=3, seed=7, params=PARAMS)  # lazy imports and caches
    stages, y = _five_stages() if dtype is None else (None, None)
    tracemalloc.start()
    try:
        if dtype is not None:
            stages, y = _five_stages(dtype=dtype)
        run_kfold(stages, y, k=5, seed=7, params=PARAMS)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_kfold_peak_memory_does_not_rise():
    # tracemalloc peak of this run, measured on the same fixture with phase
    # batching under _BATCH_BYTES and folds that keep no scaled rows: 4,351,300
    # and 4,335,308 bytes on 1 and 2 cores (4,758,668 with the earlier one
    # solve per stage and outer fold)
    assert _kfold_peak() <= 1.05 * 4_351_300


def test_float32_stages_take_half_the_matrix_memory():
    # the stage matrices are the only input-sized term: kept float32 to the
    # folds, the run holds no float64 copy of them
    f32_bytes = sum(s.features.nbytes for s in _five_stages(dtype=np.float32)[0])
    saved = _kfold_peak(np.float64) - _kfold_peak(np.float32)
    assert saved >= 0.8 * f32_bytes


def test_sub_batches_and_lru_folds_change_no_bit(monkeypatch, tmp_path):
    monkeypatch.setattr(pool, "_cores", lambda: 1)  # one process: the spy sees every solve
    views, y = _views(30, 33, (6, 8))
    folds = make_folds(y, 3, seed=0)  # training parts of 20 rows
    specs = [FirstStageSpec(f"C{s + 1}", "custom", "raw") for s in range(2)]

    def fit(name):
        save_stacked(tmp_path / name, stack_fit(views, y, folds, specs, params=PARAMS))

    def kfold():
        return run_kfold(_stages(views, (0, 0)), y, k=3, seed=2, params=PARAMS)[1]

    fit("want.fstk")
    want = kfold()
    solves = []
    real = svm_module._solve

    def spy(problems):
        distinct = {id(fold): fold for fold, _ in problems}.values()
        solves.append([not svm_module._dense(len(fold)) for fold in distinct])
        return real(problems)

    monkeypatch.setattr(svm_module, "_solve", spy)
    # 20-row folds are dense, 30-row folds LRU with 13 rows cached: evicts rows along the way
    monkeypatch.setattr(svm_module, "_DENSE_BYTES", 20 * 20 * 8)
    monkeypatch.setattr(svm_module, "_BATCH_BYTES", 2 * 20 * 20 * 8)  # two dense 20-row memos
    fit("got.fstk")
    *first_phase, meta = solves
    assert len(first_phase) >= 3 and meta == [True]
    assert any(any(lru) for lru in first_phase)
    assert all(lru == [True] for lru in solves if any(lru))  # each LRU fold solves alone
    assert (tmp_path / "got.fstk").read_bytes() == (tmp_path / "want.fstk").read_bytes()
    assert np.array_equal(kfold(), want)
    assert len(solves) > 3 + 1 + 2  # each phase of the k-fold run cut too


def test_error_breakdown():
    samples = [
        Sample("p", "i1", "female", "20-36", (0.0, 0.0), (26.0, 0.0)),
        Sample("p", "i2", "female", "20-36", (0.0, 0.0), (26.0, 0.0)),
        Sample("p", "i3", "male", "66+", (0.0, 0.0), (26.0, 0.0)),
    ]
    cells = error_breakdown(samples, [-1.0, 1.0, 1.0])
    assert cells[("female", "20-36")] == {"n": 2, "errors": 1, "rate": 0.5}
    assert cells[("male", "66+")] == {"n": 1, "errors": 0, "rate": 0.0}
    assert ("male", "20-36") not in cells
    with pytest.raises(DataError):
        error_breakdown(samples, [1.0])


def test_mean_pattern_rounds_half_up():
    a = np.zeros((2, 2), dtype=np.uint8)
    b = np.ones((2, 2), dtype=np.uint8)
    assert mean_pattern([a, b]).tolist() == [[1, 1], [1, 1]]
    with pytest.raises(DataError):
        mean_pattern([])
    with pytest.raises(DataError):
        mean_pattern([a, np.zeros((3, 3), dtype=np.uint8)])


def test_save_report_and_roc(tmp_path):
    r = evaluate([-2.0, -1.0, 0.5, 2.0], [-1, -1, 1, 1], per_fold_accuracies=(1.0, 0.9))
    rp = tmp_path / "report.json"
    save_report(rp, r, extra={"protocol": "none", "accuracy": 0.0})
    doc = json.loads(rp.read_text())
    assert doc["accuracy"] == 1.0  # extra keys never override the report
    assert doc["protocol"] == "none"
    assert doc["per_fold_accuracies"] == [1.0, 0.9]
    assert doc["confusion"] == [[2, 0], [0, 2]]

    cp = tmp_path / "roc.csv"
    save_roc(cp, r)
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "fpr,tpr"
    pts = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(pts, r.roc_points)
