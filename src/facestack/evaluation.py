"""Evaluation protocols and metrics for the gender classifiers.

Scores are signed (+1 = male); a sample is predicted male when its score is
>= 0. In-database evaluation is k-fold with pooled test predictions;
cross-database evaluation trains on one manifest and tests on another with
nothing test-side (scaling, PCA, hyper-parameter search) entering training.
Both take one `params`: an SvmParams for every SVM, or None to grid-search
on an inner fold plan of each training part.
"""

import json
from dataclasses import dataclass

import numpy as np

from .dataset import make_folds
from .errors import ConfigurationError, DataError
from .geometry import _require_gray, _round_u8
from .pca import pca_fit
from .stacking import DEFAULT_STAGE_PARAMS, FirstStageSpec, _fit_plan, _matrices
from .svm import Part, derive_seed, solve_plans
from .svm import svm_fit  # noqa: F401  (perfbench's tracer patches it in every namespace)


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    accuracy_female: float
    accuracy_male: float
    confusion: np.ndarray          # rows true (female, male) x cols predicted
    per_fold_accuracies: tuple
    roc_points: np.ndarray         # (k, 2) fpr,tpr from (0,0) to (1,1)
    auc: float

    @property
    def n_samples(self):
        return int(self.confusion.sum())

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "accuracy_female": self.accuracy_female,
            "accuracy_male": self.accuracy_male,
            "confusion": self.confusion.tolist(),
            "per_fold_accuracies": list(self.per_fold_accuracies),
            "roc_points": self.roc_points.tolist(),
            "auc": self.auc,
            "n_samples": self.n_samples,
        }


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if len(scores) == 0:
        raise DataError("no predictions to evaluate")
    if len(scores) != len(labels):
        raise DataError("scores and labels differ in length")
    if not np.all(np.isfinite(scores)):
        raise DataError("non-finite score")
    labels = labels.astype(np.float64)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise DataError("labels must be -1 or +1")
    return scores, labels


def roc_curve(scores, labels):
    """ROC points sweeping the decision threshold from +inf downward.

    One point per distinct score (groups of tied scores move diagonally),
    prefixed with (0,0); the final point is (1,1).
    """
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(np.sum(labels > 0))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    pos = labels[order] > 0
    # cumulative counts at each end of a run of equal scores
    boundary = np.nonzero(np.diff(s))[0]
    steps = np.append(boundary, len(s) - 1)
    tp = np.cumsum(pos)[steps]
    fp = (steps + 1) - tp
    points = np.empty((len(steps) + 1, 2))
    points[0] = (0.0, 0.0)
    points[1:, 0] = fp / n_neg
    points[1:, 1] = tp / n_pos
    return points


def auc_trapezoid(points):
    x = points[:, 0]
    y = points[:, 1]
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * (x[1:] - x[:-1])))


def evaluate(scores, labels, per_fold_accuracies=()):
    """Full metric sheet for signed scores against -1/+1 labels."""
    scores, labels = _check_scores_labels(scores, labels)
    if not ((labels > 0).any() and (labels < 0).any()):
        raise DataError("per-class metrics undefined: only one class present")
    pred = np.where(scores >= 0, 1.0, -1.0)
    confusion = np.bincount(2 * (labels > 0) + (pred > 0), minlength=4).reshape(2, 2)
    points = roc_curve(scores, labels)
    return EvalReport(
        accuracy=float(np.trace(confusion) / confusion.sum()),
        accuracy_female=float(confusion[0, 0] / confusion[0].sum()),
        accuracy_male=float(confusion[1, 1] / confusion[1].sum()),
        confusion=confusion,
        per_fold_accuracies=tuple(float(a) for a in per_fold_accuracies),
        roc_points=points,
        auc=auc_trapezoid(points),
    )


_INNER_K = 5  # folds of the inner plan that grid search and stacking train on


@dataclass(frozen=True)
class StageData:
    """One first-stage input: a spec plus its row-aligned feature matrix."""

    spec: FirstStageSpec
    features: np.ndarray
    pca_components: int = 0  # 0 disables the PCA step


def _check_pca(stages, mats, n_train):
    """ConfigurationError for a stage whose PCA asks for more components than
    a training part of n_train rows of its matrix supports: min(width, n_train - 1)."""
    for stage, X in zip(stages, mats):
        most = min(X.shape[1], n_train - 1)
        if stage.pca_components > most:
            raise ConfigurationError(
                f"stage {stage.spec.id}: pca{stage.pca_components} asks for more components "
                f"than a training part of {n_train} rows of {X.shape[1]} dims "
                f"supports (at most {most})")


def _fit_and_score(stages, mats, y, test_mats, train_idx, test_idx, seed, params):
    """Plan (see `svm.solve_plans`) of one training part -> its test scores.

    Each stage's svm.Part trains on rows train_idx of its matrix in mats
    (all rows if None), labelled by y, and scores rows test_idx of its test
    matrix (all if None); PCA sees training rows only. One stage is a plain
    SVM, more are stacked. params=None grid-searches on an inner fold plan
    over the training rows.
    """
    ytr = y if train_idx is None else y[train_idx]
    parts = []
    for stage, X, Xt in zip(stages, mats, test_mats):
        if X.shape[1] != Xt.shape[1]:
            raise DataError(f"stage {stage.spec.id}: train/test feature widths differ")
        if stage.pca_components:
            A = X if train_idx is None else X[train_idx]
            model = pca_fit(A, stage.pca_components)
            test = model.transform(Xt if test_idx is None else Xt[test_idx])
            parts.append(Part(model.transform(A), ytr, None, (test, None)))
        else:
            parts.append(Part(X, y, train_idx, (Xt, test_idx)))
    inner = make_folds(ytr, min(_INNER_K, len(ytr)), derive_seed(seed, 101))
    first, meta = yield from _fit_plan(parts, ytr, inner, params)
    return first[0] if meta is None else meta


def run_kfold(stages, labels, k=5, seed=0, folds=None, params=DEFAULT_STAGE_PARAMS):
    """k-fold evaluation with pooled test scores.

    A single stage trains a plain SVM; multiple stages train the stacked
    model per fold. params is one SvmParams for every SVM, or None to
    grid-search inside each outer training fold. The fits of every outer
    fold run together, one solve per phase of `stacking._fit_plan`. Returns
    (EvalReport, pooled score per row).
    """
    stages = list(stages)
    y = np.asarray(labels, dtype=np.float64)
    mats, n = _matrices([s.features for s in stages], len(y))
    if folds is None:
        folds = make_folds(y, k, derive_seed(seed, 77))
    if folds.assignments.shape != (n,):
        raise DataError("fold plan not aligned with labels")
    splits = [folds.split(f) for f in range(folds.k)]
    _check_pca(stages, mats, min(len(train_idx) for train_idx, _ in splits))
    plans = [_fit_and_score(stages, mats, y, mats, train_idx, test_idx,
                            derive_seed(seed, 5, f), params)
             for f, (train_idx, test_idx) in enumerate(splits)]
    pooled = np.zeros(n)
    fold_accs = []
    for (_, test_idx), scores in zip(splits, solve_plans(plans)):
        pooled[test_idx] = scores
        pred = np.where(scores >= 0, 1.0, -1.0)
        fold_accs.append(float(np.mean(pred == y[test_idx])))
    report = evaluate(pooled, y, per_fold_accuracies=fold_accs)
    return report, pooled


def run_crossdb(train_stages, test_stages, train_labels, test_labels, seed=0,
                params=DEFAULT_STAGE_PARAMS):
    """Train on one dataset, test on another.

    Nothing from the test side (scaling statistics, PCA basis, grid search)
    participates in training; params is as for run_kfold. Returns
    (EvalReport, test scores).
    """
    train_stages = list(train_stages)
    test_stages = list(test_stages)
    if [s.spec for s in train_stages] != [s.spec for s in test_stages]:
        raise ConfigurationError("train and test stages must list the same specs")
    y = np.asarray(train_labels, dtype=np.float64)
    train_mats, _ = _matrices([s.features for s in train_stages], len(y))
    test_mats, _ = _matrices([s.features for s in test_stages], len(test_labels))
    _check_pca(train_stages, train_mats, len(y))
    plan = _fit_and_score(train_stages, train_mats, y, test_mats, None, None,
                          derive_seed(seed, 9), params)
    (scores,) = solve_plans([plan])
    report = evaluate(scores, np.asarray(test_labels, dtype=np.float64))
    return report, scores


def error_breakdown(samples, predictions):
    """Error rate per (gender, age_group) cell; absent cells are omitted."""
    samples = list(samples)
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    if len(samples) != len(predictions):
        raise DataError("predictions not aligned with samples")
    cells = {}
    for s, p in zip(samples, predictions):
        key = (s.gender, s.age_group)
        cell = cells.setdefault(key, {"n": 0, "errors": 0})
        cell["n"] += 1
        cell["errors"] += int(p != s.label)
    for cell in cells.values():
        cell["rate"] = cell["errors"] / cell["n"]
    return cells


def mean_pattern(images):
    """Per-pixel mean of same-sized gray patterns, rounded half up."""
    images = list(images)
    if not images:
        raise DataError("empty image subset")
    first = _require_gray(images[0])
    acc = np.zeros(first.shape, dtype=np.float64)
    for img in images:
        img = _require_gray(img)
        if img.shape != first.shape:
            raise DataError("patterns differ in size")
        acc += img
    return _round_u8(acc / len(images))


def save_report(path, report, extra=None):
    doc = report.to_dict()
    if extra:
        for key, val in extra.items():
            if key not in doc:
                doc[key] = val
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_roc(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in report.roc_points:
            fh.write(f"{float(fpr)!r},{float(tpr)!r}\n")
