"""Two-stage score fusion: per-descriptor SVMs feeding a meta SVM.

First-stage classifiers are named C1..C5 over fixed pattern/descriptor
pairs. Their signed scores, produced out-of-fold so the meta stage never
sees a score from a model that trained on that sample, become the feature
columns of a small second-stage SVM. External score columns (e.g. from a
network trained elsewhere) can join by row index. Stacked models
serialize as `.fstk` files in the shared layout of `records`.

`stack_fit` takes one `params`: an `SvmParams` used for every SVM (each
first stage and the meta SVM), or None to grid-search each first stage
and then the meta SVM on the fold plan it is given.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .dataset import make_folds
from .errors import ConfigurationError, DataError
from .records import (check_end, open_binary, pack_str, read_header, read_str, read_struct,
                      write_header)
from .svm import (ScoreMatrix, SvmParams, derive_seed, grid_search, read_model,
                  svm_fit, write_model)

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


def _as_matrices(X_per_spec, specs, n=None):
    if len(X_per_spec) != len(specs):
        raise DataError("need one feature matrix per first-stage spec")
    mats = []
    for X in X_per_spec:
        if hasattr(X, "descriptor_id"):  # FeatureMatrix
            X = X.data
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DataError("feature matrices must be 2-D")
        if n is None:
            n = len(X)
        elif len(X) != n:
            raise DataError("feature matrices are not row-aligned")
        mats.append(X)
    return mats, n


def _stage_inputs(X_per_spec, y, folds, specs):
    """Checked (specs, matrices, labels, n) for a fit over `folds`."""
    specs = list(specs)
    if not specs:
        raise ConfigurationError("no first-stage specs")
    mats, n = _as_matrices(X_per_spec, specs)
    y = np.asarray(y, dtype=np.float64)
    if len(y) != n:
        raise DataError("labels not aligned with feature rows")
    if folds.assignments.shape != (n,):
        raise DataError("fold plan not aligned with feature rows")
    return specs, mats, y, n


def oof_scores(X_per_spec, y, folds, specs, seed=0, params=DEFAULT_STAGE_PARAMS,
               class_weight=None):
    """Out-of-fold first-stage scores, one column per spec (in spec order).

    Every sample is scored by the fold model whose training part excluded
    it, so the columns are usable as leak-free meta training features.
    params is one SvmParams for every spec or a list of one per spec.
    """
    specs, mats, y, n = _stage_inputs(X_per_spec, y, folds, specs)
    plist = [params] * len(specs) if isinstance(params, SvmParams) else list(params)
    if len(plist) != len(specs):
        raise ConfigurationError("need one SvmParams per first-stage spec")
    scores = np.zeros((n, len(specs)))
    for si, (spec, X, p) in enumerate(zip(specs, mats, plist)):
        for fold in range(folds.k):
            train_idx, test_idx = folds.split(fold)
            model = svm_fit(X[train_idx], y[train_idx], p,
                            seed=derive_seed(seed, si, fold), class_weight=class_weight)
            scores[test_idx, si] = model.decision_function(X[test_idx])
    return ScoreMatrix(scores=scores, column_ids=tuple(s.id for s in specs))


def _join_external(row_indices, external):
    pos = {int(r): i for i, r in enumerate(external.row_indices)}
    try:
        take = [pos[int(r)] for r in row_indices]
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
            raise ConfigurationError("meta model dimension != number of score columns")
        stage_ids = tuple(spec.id for spec, _ in self.first_stage)
        if self.column_ids[: len(stage_ids)] != stage_ids:
            raise ConfigurationError("column_ids must start with the first-stage ids")

    @property
    def external_ids(self):
        return self.column_ids[len(self.first_stage):]


def stack_fit(X_per_spec, y, folds, specs, external_scores=None,
              params=DEFAULT_STAGE_PARAMS, seed=0, row_indices=None, class_weight=None):
    """Train the two-stage model.

    Meta training consumes out-of-fold first-stage scores plus any external
    columns joined by row index; the deployed first-stage models are then
    retrained on all rows. params is one SvmParams for every SVM; None
    grid-searches each first stage on `folds`, then the meta SVM on the
    score columns with the same plan.

    Seed keys under `seed`: first stage si fits fold f's OOF model with
    (si, f), its deployed model with (si, k) and, under None, grid-searches
    with (si, k + 1); the meta SVM grid-searches with (n_specs, 1) and fits
    with (n_specs, 0).
    """
    specs, mats, y, n = _stage_inputs(X_per_spec, y, folds, specs)
    if row_indices is None:
        row_indices = np.arange(n)
    if params is None:
        plist = [grid_search(X, y, folds, seed=derive_seed(seed, si, folds.k + 1),
                             class_weight=class_weight)
                 for si, X in enumerate(mats)]
    else:
        plist = [params] * len(specs)
    oof = oof_scores(mats, y, folds, specs, seed=seed, params=plist,
                     class_weight=class_weight)
    meta_X = oof.scores
    column_ids = list(oof.column_ids)
    if external_scores is not None:
        meta_X = np.hstack([meta_X, _join_external(row_indices, external_scores)])
        column_ids += list(external_scores.column_ids)

    first = []
    for si, (spec, X, p) in enumerate(zip(specs, mats, plist)):
        model = svm_fit(X, y, p, seed=derive_seed(seed, si, folds.k),
                        class_weight=class_weight, descriptor_id=spec.descriptor)
        first.append((spec, model))

    if params is None:
        params = grid_search(meta_X, y, folds, seed=derive_seed(seed, len(specs), 1),
                             class_weight=class_weight)
    meta = svm_fit(meta_X, y, params, seed=derive_seed(seed, len(specs), 0),
                   class_weight=class_weight, descriptor_id="scores")
    return StackedModel(first_stage=tuple(first), meta=meta, column_ids=tuple(column_ids))


def stack_scores(model, X_per_spec, external=None):
    """Meta scores for row-aligned feature matrices (one per first stage).

    external maps column id -> per-row score array for any non-first-stage
    columns the meta model was trained with.
    """
    mats, n = _as_matrices(X_per_spec, [spec for spec, _ in model.first_stage])
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


def stack_predict(model, x_per_spec, external=None):
    """Predict one sample: returns (label, meta_score) with +1 = male."""
    ext = None
    if external is not None:
        ext = {cid: np.asarray([val], dtype=np.float64) for cid, val in external.items()}
    score = float(stack_scores(model, [np.asarray(x)[None, :] for x in x_per_spec], ext)[0])
    return (1 if score >= 0 else -1), score


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


def inner_folds(y, k=5, seed=0):
    """Convenience fold plan over bare labels for meta-score generation."""
    return make_folds(y, k, seed)
