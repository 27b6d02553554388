"""Two-stage score fusion: per-descriptor SVMs feeding a meta SVM.

First-stage classifiers are named C1..C5 over fixed pattern/descriptor
pairs. Their signed scores, produced out-of-fold so the meta stage never
sees a score from a model that trained on that sample, become the feature
columns of a small second-stage SVM, with any external score columns (e.g.
from a network trained elsewhere): training row i joins row_index i. Two or
more columns stack; one is a plain SVM. Stacked models serialize as
`.fstk` files in the shared layout of `records`.

`oof_scores` and `stack_fit` take one `params`: an `SvmParams` used for
every SVM, or None to grid-search each first stage (and then the meta SVM)
on the fold plan given. A stage's column is one row of its cross-validated
scores (`svm.cv_jobs`): under None the search's own held-out scores for
the winner, with no refit. `_fit_plan` lays one fit out in phases for
`svm.solve_plans`, so the evaluation of many training parts solves each
phase once. The solver's models are unnamed; `stack_fit` names each
deployed first stage by its spec's descriptor and the meta SVM "scores",
the names its `.fstk` records carry.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError
from .records import (check_end, open_binary, pack_str, read_header, read_str, read_struct,
                      write_header)
from .svm import (Part, ScoreMatrix, SvmParams, best_point, cv_jobs, cv_table, default_grid,
                  read_model, solve_plans, write_model)
from .svm import svm_fit  # noqa: F401  (perfbench's tracer patches it in every namespace)

# hyper-parameters when no grid search is requested: mid grid
DEFAULT_STAGE_PARAMS = SvmParams(C=1.0, gamma=0.095)

_STACK_MAGIC = b"FSTK"
_STACK_VERSION = 1


@dataclass(frozen=True)
class FirstStageSpec:
    id: str
    pattern: str      # F, HS, HS64, HS32, HS16
    descriptor: str


CANONICAL_STAGES = {
    "C1": FirstStageSpec("C1", "F", "hog"),
    "C2": FirstStageSpec("C2", "HS64", "hog"),
    "C3": FirstStageSpec("C3", "F", "lbpu2"),
    "C4": FirstStageSpec("C4", "F", "losib"),
    "C5": FirstStageSpec("C5", "HS64", "losib"),
}

S_CONFIGS = {
    "S1": ("C1", "C3"),
    "S2": ("C1", "C3", "C4"),
    "S3": ("C4", "C5"),
    "S4": ("C1", "C2", "C3"),
    "S5": ("C1", "C2", "C3", "C4", "C5"),
}


def _matrices(X_per_spec, n=None):
    """X_per_spec as float64 2-D arrays of n rows (the first's if None) -> (mats, n)."""
    if not len(X_per_spec):
        raise ConfigurationError("no stages: need at least one first-stage feature matrix")
    mats = []
    for X in X_per_spec:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DataError("feature matrices must be 2-D")
        if n is None:
            n = len(X)
        elif len(X) != n:
            raise DataError(f"features and labels are not row-aligned: {len(X)} rows, not {n}")
        mats.append(X)
    return mats, n


def _checked(X_per_spec, y, specs):
    """Checked inputs -> (specs, mats, y). The fold plan is checked where
    it is split (`svm.cv_jobs`)."""
    specs = list(specs)
    y = np.asarray(y, dtype=np.float64)
    mats, _ = _matrices(X_per_spec, len(y))
    if len(mats) != len(specs):
        raise DataError("need one feature matrix per first-stage spec")
    return specs, mats, y


def _columns_plan(parts, y, folds, params, extra=()):
    """Plan (see `svm.solve_plans`) of each part's out-of-fold column, with
    the jobs `extra` in the same phase -> (each part's params, the (n,
    len(parts)) columns or None, the result lists of extra).

    parts are svm.Parts over the same rows, which y labels and folds splits.
    A column is the row of the part's cv table, over [params] or over
    default_grid() when params is None, at the point best_point picks.
    """
    grid = default_grid() if params is None else [params]
    got = yield [job for part in parts for job in cv_jobs(part, folds, grid)] + list(extra)
    chosen, cols = [], []
    for p in range(len(parts)):  # cv_jobs gives one job per fold
        scores = cv_table(got[p * folds.k : (p + 1) * folds.k], folds, grid)
        g = best_point(grid, scores, y, folds)
        chosen.append(grid[g])
        cols.append(scores[g])
    return chosen, np.column_stack(cols) if cols else None, got[len(parts) * folds.k :]


def _fit_plan(parts, y, folds, params, external=None):
    """Plan (see `svm.solve_plans`) of one fit on a training part ->
    (first-stage results, meta result).

    parts holds one svm.Part per first stage, all over the same rows, which
    y labels and folds splits, and all with test rows or none. Each
    deployed first stage returns its SvmModel, or its scores of its part's
    test rows. With two or more score columns (stages and `external`
    columns), the meta SVM trains on the out-of-fold columns plus the
    external ones, and returns its model or its scores of the stages' test
    scores; with one, the meta result is None. params is one SvmParams for
    every SVM, or None to grid-search each first stage on folds and then
    the meta SVM. The phases: the searches and, with params fixed, the
    deployed stages; under None, the deployed stages and the meta search;
    the meta fit.
    """
    def deploy(chosen):
        return [(part, [p]) for part, p in zip(parts, chosen)]

    stacked = len(parts) + (0 if external is None else external.shape[1]) > 1
    chosen, cols, first = yield from _columns_plan(
        parts if stacked or params is None else [], y, folds, params,
        [] if params is None else deploy([params] * len(parts)))
    meta = Part(cols if external is None else np.hstack([cols, external]), y) if stacked else None
    meta_params = [params]
    if params is None:
        meta_params, _, first = yield from _columns_plan(
            [meta] if stacked else [], y, folds, None, deploy(chosen))
    first = [result for (result,) in first]
    if not stacked:
        return first, None
    if parts[0].test is not None:
        meta = replace(meta, test=(np.column_stack(first), None))
    ((result,),) = yield [(meta, meta_params)]
    return first, result


def oof_scores(X_per_spec, y, folds, specs, params=DEFAULT_STAGE_PARAMS):
    """Out-of-fold first-stage scores, one column per spec (in spec order).

    Every sample is scored by the fold model whose training part excluded
    it, so the columns are usable as leak-free meta training features.
    params is one SvmParams for every spec, or None to grid-search each
    spec on `folds` and keep the winner's held-out scores.
    """
    specs, mats, y = _checked(X_per_spec, y, specs)
    plan = _columns_plan([Part(X, y) for X in mats], y, folds, params)
    _, cols, _ = solve_plans([plan])[0]
    return ScoreMatrix(scores=cols, column_ids=tuple(s.id for s in specs))


def _join_external(n, external):
    pos = {int(r): i for i, r in enumerate(external.row_indices)}
    try:
        take = [pos[r] for r in range(n)]
    except KeyError as exc:
        raise DataError(f"external scores missing row_index {exc.args[0]}") from None
    return external.scores[take]


@dataclass(frozen=True)
class StackedModel:
    first_stage: tuple   # ((FirstStageSpec, SvmModel), ...)
    meta: object         # SvmModel over the score columns
    column_ids: tuple

    def __post_init__(self):
        if self.meta.n_dims != len(self.column_ids):
            raise DataError("meta model dimension != number of score columns")
        stage_ids = tuple(spec.id for spec, _ in self.first_stage)
        if not stage_ids or self.column_ids[: len(stage_ids)] != stage_ids:
            raise DataError("column_ids must start with the ids of one or more first stages")
        if len(set(self.column_ids)) != len(self.column_ids):
            raise DataError(f"repeated score column id in {tuple(self.column_ids)}")

    @property
    def external_ids(self):
        return self.column_ids[len(self.first_stage):]


def stack_fit(X_per_spec, y, folds, specs, external_scores=None, params=DEFAULT_STAGE_PARAMS):
    """Train the two-stage model on two or more score columns (one is one SVM).

    Meta training consumes out-of-fold first-stage scores plus any external
    columns, training row i joined to row_index i; the deployed first-stage
    models are trained on all rows. params is one SvmParams for every SVM; None
    grid-searches each first stage on `folds`, taking its out-of-fold column
    from that search's held-out scores for the winner, then the meta SVM on
    the score columns with the same plan. The fits run in the phases of
    `_fit_plan`.
    """
    specs, mats, y = _checked(X_per_spec, y, specs)
    column_ids, external = [s.id for s in specs], None
    if external_scores is not None:
        repeated = [cid for cid in external_scores.column_ids if cid in column_ids]
        if repeated:
            raise DataError(f"external score column {repeated[0]!r} repeats a first-stage id")
        external = _join_external(len(y), external_scores)
        column_ids += list(external_scores.column_ids)
    if len(column_ids) < 2:
        raise ConfigurationError(f"stacking needs two or more score columns, got only "
                                 f"{column_ids[0]}; one column is one SVM, which `train` trains")
    plan = _fit_plan([Part(X, y) for X in mats], y, folds, params, external=external)
    first, meta = solve_plans([plan])[0]
    first = [replace(m, descriptor_id=s.descriptor) for s, m in zip(specs, first)]
    return StackedModel(first_stage=tuple(zip(specs, first)),
                        meta=replace(meta, descriptor_id="scores"), column_ids=tuple(column_ids))


def stack_scores(model, X_per_spec, external=None):
    """Meta scores for row-aligned feature matrices (one per first stage).

    external maps column id -> per-row score array for any non-first-stage
    columns the meta model was trained with.
    """
    if len(X_per_spec) != len(model.first_stage):
        raise DataError("need one feature matrix per first-stage spec")
    mats, n = _matrices(X_per_spec)
    cols = [m.decision_function(X) for (_, m), X in zip(model.first_stage, mats)]
    external = external or {}
    for cid in model.external_ids:
        if cid not in external:
            raise DataError(f"model needs external score column {cid!r}")
        col = np.asarray(external[cid], dtype=np.float64)
        if col.shape != (n,):
            raise DataError(f"external column {cid!r} not aligned with rows")
        cols.append(col)
    return model.meta.decision_function(np.column_stack(cols))


def save_stacked(path, model):
    with open(path, "wb") as fh:
        write_header(fh, _STACK_MAGIC, _STACK_VERSION)
        fh.write(struct.pack("<I", len(model.column_ids)))
        for cid in model.column_ids:
            fh.write(pack_str(cid))
        fh.write(struct.pack("<I", len(model.first_stage)))
        for spec, m in model.first_stage:
            fh.write(pack_str(spec.id))
            fh.write(pack_str(spec.pattern))
            fh.write(pack_str(spec.descriptor))
            write_model(fh, m)
        write_model(fh, model.meta)


def load_stacked(path):
    path = str(path)
    with open_binary(path, "stacked model file") as fh:
        read_header(fh, path, _STACK_MAGIC, _STACK_VERSION, "stacked model file")
        (n_cols,) = read_struct(fh, "<I", path)
        column_ids = tuple(read_str(fh, path) for _ in range(n_cols))
        (n_stage,) = read_struct(fh, "<I", path)
        first = []
        for _ in range(n_stage):
            spec = FirstStageSpec(*(read_str(fh, path) for _ in range(3)))
            first.append((spec, read_model(fh, path)))
        meta = read_model(fh, path)
        check_end(fh, path)
    return StackedModel(first_stage=tuple(first), meta=meta, column_ids=column_ids)
