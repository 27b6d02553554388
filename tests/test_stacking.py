from dataclasses import replace

import numpy as np
import pytest

from facestack import (
    CANONICAL_STAGES,
    ConfigurationError,
    DataError,
    FirstStageSpec,
    S_CONFIGS,
    ScoreMatrix,
    StackedModel,
    SvmParams,
    default_grid,
    grid_search,
    load_stacked,
    make_folds,
    oof_scores,
    save_stacked,
    stack_fit,
    stack_scores,
    svm_fit,
)
from facestack import pool
from facestack import svm as svm_module
from facestack.records import pack_str
from facestack.stacking import DEFAULT_STAGE_PARAMS

PARAMS = SvmParams(C=1.0, gamma=0.095)


def test_canonical_tables():
    assert [CANONICAL_STAGES[c].pattern for c in ("C1", "C2", "C3", "C4", "C5")] == \
        ["F", "HS64", "F", "F", "HS64"]
    assert [CANONICAL_STAGES[c].descriptor for c in ("C1", "C2", "C3", "C4", "C5")] == \
        ["hog", "hog", "lbpu2", "losib", "losib"]
    assert S_CONFIGS == {
        "S1": ("C1", "C3"),
        "S2": ("C1", "C3", "C4"),
        "S3": ("C4", "C5"),
        "S4": ("C1", "C2", "C3"),
        "S5": ("C1", "C2", "C3", "C4", "C5"),
    }
    assert DEFAULT_STAGE_PARAMS.C == 1.0
    assert DEFAULT_STAGE_PARAMS.gamma == 0.095


def _specs(k):
    return [FirstStageSpec(f"C{i + 1}", "custom", "raw") for i in range(k)]


def _views(n, seed=0):
    """Two feature views, each informative on a complementary half."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    half = rng.random(n) < 0.5
    a = rng.normal(0, 1, (n, 3))
    b = rng.normal(0, 1, (n, 3))
    a[half, 0] = y[half] * 2 + rng.normal(0, 0.3, half.sum())
    b[~half, 0] = y[~half] * 2 + rng.normal(0, 0.3, (~half).sum())
    return [a, b], y


def test_oof_scores_shape_and_columns():
    views, y = _views(60)
    folds = make_folds(y, 3, seed=1)
    sm = oof_scores(views, y, folds, _specs(2), params=PARAMS)
    assert sm.scores.shape == (60, 2)
    assert sm.column_ids == ("C1", "C2")


def test_oof_scores_come_from_excluded_fold_models():
    views, y = _views(45, seed=3)
    folds = make_folds(y, 3, seed=4)
    sm = oof_scores(views, y, folds, _specs(2), params=PARAMS)
    # rebuild one fold model by hand and match its scores bit for bit
    train, test = folds.split(1)
    m = svm_fit(views[0][train], y[train], PARAMS)
    np.testing.assert_array_equal(sm.scores[test, 0], m.decision_function(views[0][test]))


def test_oof_scores_equal_one_fit_per_fold():
    views, y = _views(51, seed=18)
    folds = make_folds(y, 4, seed=2)
    # fixed params, and under None each view's own grid-search winner
    for params in (PARAMS, SvmParams(C=4.0, gamma=0.5), None):
        sm = oof_scores(views, y, folds, _specs(2), params=params)
        want = np.full((51, 2), np.nan)
        for si, X in enumerate(views):
            p = params or grid_search(X, y, folds)
            for f in range(folds.k):
                train, test = folds.split(f)
                m = svm_fit(X[train], y[train], p)
                want[test, si] = m.decision_function(X[test])
        assert np.array_equal(sm.scores, want)


def test_oof_scores_on_noise_stay_modest():
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, (120, 4))
    y = np.where(rng.random(120) < 0.5, 1.0, -1.0)
    folds = make_folds(y, 4, seed=0)
    sm = oof_scores([X], y, folds, _specs(1), params=PARAMS)
    acc = np.mean(np.where(sm.scores[:, 0] >= 0, 1, -1) == y)
    assert acc < 0.68  # resubstitution would be near 1.0 here


def test_stack_beats_single_stages_on_complementary_views():
    views, y = _views(240, seed=8)
    tr = np.arange(160)
    te = np.arange(160, 240)
    folds = make_folds(y[tr], 4, seed=2)
    model = stack_fit([v[tr] for v in views], y[tr], folds, _specs(2),
                      params=PARAMS)
    stacked = np.mean(np.where(stack_scores(model, [v[te] for v in views]) >= 0, 1, -1) == y[te])
    singles = []
    for v in views:
        m = svm_fit(v[tr], y[tr], PARAMS)
        singles.append(np.mean(np.where(m.decision_function(v[te]) >= 0, 1, -1) == y[te]))
    assert stacked >= max(singles) + 0.05


def test_external_oracle_column_dominates():
    rng = np.random.default_rng(9)
    n = 90
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    noise = [rng.normal(0, 1, (n, 3))]
    ext = ScoreMatrix(np.c_[y * 3.0], ("EXT",))
    folds = make_folds(y, 3, seed=0)
    model = stack_fit(noise, y, folds, _specs(1), external_scores=ext, params=PARAMS)
    assert model.column_ids == ("C1", "EXT")
    assert model.external_ids == ("EXT",)
    scores = stack_scores(model, noise, external={"EXT": y * 3.0})
    assert np.mean(np.where(scores >= 0, 1, -1) == y) >= 0.97


def test_external_join_by_row_index():
    rng = np.random.default_rng(10)
    n = 30
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    # external matrix stored in scrambled order must still line up by id:
    # training row i joins the row whose row_index is i
    shuffle = rng.permutation(n)
    ext = ScoreMatrix(np.c_[y[shuffle] * 2.0], ("EXT",), shuffle)
    folds = make_folds(y, 3, seed=1)
    model = stack_fit([rng.normal(0, 1, (n, 2))], y, folds, _specs(1),
                      external_scores=ext, params=PARAMS)
    scores = stack_scores(model, [rng.normal(0, 1, (n, 2))], external={"EXT": y * 2.0})
    assert np.mean(np.where(scores >= 0, 1, -1) == y) >= 0.9


def test_external_missing_row_index():
    rng = np.random.default_rng(11)
    n = 20
    y = np.r_[np.ones(10), -np.ones(10)]
    ext = ScoreMatrix(np.zeros((n - 1, 1)), ("EXT",), np.arange(n - 1))
    folds = make_folds(y, 2, seed=0)
    with pytest.raises(DataError, match="row_index"):
        stack_fit([rng.normal(0, 1, (n, 2))], y, folds, _specs(1),
                  external_scores=ext, params=PARAMS)


def test_one_score_column_is_not_a_stack(monkeypatch):
    # one column would train a one-dimensional meta SVM that no eval measures
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    views, y = _views(30, seed=19)
    folds = make_folds(y, 3, seed=0)
    for params in (PARAMS, None):
        with pytest.raises(ConfigurationError, match="two or more score columns"):
            stack_fit([views[0]], y, folds, _specs(1), params=params)


def test_stack_scores_requires_external_columns():
    views, y = _views(40, seed=12)
    ext = ScoreMatrix(np.c_[y * 2.0], ("EXT",))
    folds = make_folds(y, 2, seed=0)
    model = stack_fit([views[0]], y, folds, _specs(1), external_scores=ext, params=PARAMS)
    with pytest.raises(DataError, match="EXT"):
        stack_scores(model, [views[0]])
    with pytest.raises(DataError, match="aligned"):
        stack_scores(model, [views[0]], external={"EXT": np.zeros(3)})


def test_random_labels_stay_at_chance():
    rng = np.random.default_rng(13)
    n_tr, n_te = 120, 240
    X = rng.normal(0, 1, (n_tr + n_te, 5))
    y = np.where(rng.random(n_tr + n_te) < 0.5, 1.0, -1.0)
    folds = make_folds(y[:n_tr], 4, seed=1)
    model = stack_fit([X[:n_tr], X[:n_tr, :3]], y[:n_tr], folds, _specs(2),
                      params=PARAMS)
    acc = np.mean(np.where(stack_scores(model, [X[n_tr:], X[n_tr:, :3]]) >= 0, 1, -1) == y[n_tr:])
    assert 0.38 <= acc <= 0.62


def _stack_fit_by_refits(views, y, folds, specs):
    """stack_fit(params=None) built from separate steps: a grid search per
    stage, k fold fits per stage for its out-of-fold column, the deployed
    first stages, then a grid search and a fit on the meta columns."""
    plist = [grid_search(X, y, folds) for X in views]
    oof = np.zeros((len(y), len(views)))
    for si, (X, p) in enumerate(zip(views, plist)):
        for f in range(folds.k):
            train, test = folds.split(f)
            oof[test, si] = svm_fit(X[train], y[train], p).decision_function(X[test])
    first = [replace(svm_fit(X, y, p), descriptor_id=spec.descriptor)
             for spec, X, p in zip(specs, views, plist)]
    meta = replace(svm_fit(oof, y, grid_search(oof, y, folds)), descriptor_id="scores")
    return StackedModel(tuple(zip(specs, first)), meta, tuple(s.id for s in specs))


def test_stack_fit_grid_searches_each_stage_then_the_meta_svm(monkeypatch, tmp_path):
    monkeypatch.setattr(pool, "_cores", lambda: 1)  # one process: the spy sees every solve
    views, y = _views(48, seed=17)
    folds = make_folds(y, 3, seed=0)
    specs = _specs(2)
    save_stacked(tmp_path / "want.fstk", _stack_fit_by_refits(views, y, folds, specs))
    batches = []
    real_solve = svm_module._solve

    def solve_spy(problems):
        batches.append(problems)
        return real_solve(problems)

    monkeypatch.setattr(svm_module, "_solve", solve_spy)
    model = stack_fit(views, y, folds, specs, params=None)

    # three phases: the k x 30 search of every stage; the meta search with
    # the deployed first stages; the meta fit. No batch of k refits for the
    # out-of-fold columns
    sizes = [len(folds.split(f)[0]) for f in range(folds.k)]
    search = [(n, p) for n in sizes for p in default_grid()]
    shapes = [[(len(fold), params) for fold, params in b] for b in batches]
    assert shapes == [search + search,
                      search + [(48, m.params) for _, m in model.first_stage],
                      [(48, model.meta.params)]]
    save_stacked(tmp_path / "got.fstk", model)
    assert (tmp_path / "got.fstk").read_bytes() == (tmp_path / "want.fstk").read_bytes()


def test_stack_fit_does_not_depend_on_the_worker_count(monkeypatch, forks, tmp_path):
    views, y = _views(48, seed=17)
    folds = make_folds(y, 3, seed=0)
    for cores in (1, 2):
        monkeypatch.setattr(pool, "_cores", lambda: cores)
        save_stacked(tmp_path / f"{cores}.fstk", stack_fit(views, y, folds, _specs(2), params=None))
    assert forks
    assert (tmp_path / "1.fstk").read_bytes() == (tmp_path / "2.fstk").read_bytes()


def test_stacked_roundtrip(tmp_path):
    views, y = _views(60, seed=15)
    ext = ScoreMatrix(np.c_[y * 1.5], ("EXT",))
    folds = make_folds(y, 3, seed=0)
    model = stack_fit(views, y, folds, _specs(2), external_scores=ext, params=PARAMS)
    p = tmp_path / "stack.bin"
    save_stacked(p, model)
    back = load_stacked(p)
    assert back.column_ids == model.column_ids
    assert [s.id for s, _ in back.first_stage] == ["C1", "C2"]
    ext_scores = {"EXT": y * 1.5}
    np.testing.assert_array_equal(stack_scores(back, views, external=ext_scores),
                                  stack_scores(model, views, external=ext_scores))


def test_load_stacked_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"FSTKxxxx")
    with pytest.raises(DataError):
        load_stacked(p)
    with pytest.raises(DataError, match="cannot read"):
        load_stacked(tmp_path / "missing.fstk")


def test_load_stacked_rejects_a_repeated_column_id(tmp_path):
    # column ids ('C1', 'C1'): what `stack` saved before stack_fit rejected an
    # external column named like a first stage
    views, y = _views(30, seed=17)
    model = stack_fit([views[0]], y, make_folds(y, 3, seed=0), _specs(1),
                      external_scores=ScoreMatrix(np.c_[y], ("X1",)), params=PARAMS)
    p = tmp_path / "stack.fstk"
    save_stacked(p, model)
    data = p.read_bytes()
    assert data.count(b"X1") == 1
    p.write_bytes(data.replace(b"X1", b"C1"))
    with pytest.raises(DataError, match="repeated score column id"):
        load_stacked(p)
    with pytest.raises(DataError):
        StackedModel(model.first_stage, model.meta, ("C1", "C1"))


def test_load_stacked_rejects_a_first_stage_id_missing_from_the_columns(tmp_path):
    # a malformed .fstk is a data error, as every other bad record is
    views, y = _views(30, seed=18)
    model = stack_fit(views, y, make_folds(y, 3, seed=0), _specs(2), params=PARAMS)
    p = tmp_path / "stack.fstk"
    save_stacked(p, model)
    data, tag = p.read_bytes(), pack_str("C1")
    at = data.index(tag, data.index(tag) + 1)  # the first stage's id, after the column ids
    p.write_bytes(data[:at] + pack_str("Q1") + data[at + len(tag):])
    with pytest.raises(DataError, match="column_ids must start with the ids"):
        load_stacked(p)
    with pytest.raises(DataError, match="column_ids must start with the ids"):
        StackedModel((), model.meta, model.column_ids)  # no first stage
    with pytest.raises(DataError, match="meta model dimension"):
        StackedModel(model.first_stage, model.meta, ("C1",))


@pytest.mark.parametrize("n_plan", [27, 33])
def test_fold_plan_must_cover_the_rows(monkeypatch, n_plan):
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    views, y = _views(30, seed=19)
    folds = make_folds(np.zeros(n_plan), 3, seed=0)
    for params in (PARAMS, None):
        with pytest.raises(DataError, match=f"fold plan covers {n_plan} rows"):
            oof_scores(views, y, folds, _specs(2), params=params)
        with pytest.raises(DataError, match=f"fold plan covers {n_plan} rows"):
            stack_fit(views, y, folds, _specs(2), params=params)


def test_misaligned_inputs():
    views, y = _views(30, seed=16)
    folds = make_folds(y, 3, seed=0)
    with pytest.raises(DataError):
        oof_scores(views, y[:-1], folds, _specs(2), params=PARAMS)
    with pytest.raises(DataError):
        oof_scores([views[0], views[1][:-2]], y, folds, _specs(2), params=PARAMS)
    with pytest.raises(ConfigurationError):
        oof_scores(views[:0], y, folds, [], params=PARAMS)

