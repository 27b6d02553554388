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

from .errors import ConfigurationError, DataError
from .geometry import _require_gray, _round_u8
from .pca import pca_fit
from .stacking import (DEFAULT_STAGE_PARAMS, FirstStageSpec, inner_folds,
                       stack_fit, stack_scores)
from .svm import derive_seed, grid_search, svm_fit


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
    if len(np.unique(labels)) < 2:
        raise DataError("per-class metrics undefined: only one class present")
    pred = np.where(scores >= 0, 1.0, -1.0)
    confusion = np.zeros((2, 2), dtype=np.int64)
    for true_i, true_lab in enumerate((-1.0, 1.0)):
        for pred_j, pred_lab in enumerate((-1.0, 1.0)):
            confusion[true_i, pred_j] = np.sum((labels == true_lab) & (pred == pred_lab))
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


def _fit_and_score(stages, train_sets, ytr, test_sets, seed, params, class_weight):
    """Train on each stage's training rows, score its test rows; PCA sees training rows only.

    params=None grid-searches on an inner fold plan over the training rows.
    """
    Xtr, Xte = [], []
    for stage, a, b in zip(stages, train_sets, test_sets):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape[1] != b.shape[1]:
            raise DataError(f"stage {stage.spec.id}: train/test feature widths differ")
        if stage.pca_components:
            model = pca_fit(a, stage.pca_components)
            a, b = model.transform(a), model.transform(b)
        Xtr.append(a)
        Xte.append(b)
    specs = [s.spec for s in stages]
    inner = inner_folds(ytr, k=min(_INNER_K, len(ytr)), seed=derive_seed(seed, 101))
    if len(specs) > 1:
        model = stack_fit(Xtr, ytr, inner, specs, params=params, seed=derive_seed(seed, 2),
                          class_weight=class_weight)
        return stack_scores(model, Xte)
    if params is None:
        params = grid_search(Xtr[0], ytr, inner, seed=derive_seed(seed, 11, 0),
                             class_weight=class_weight)
    model = svm_fit(Xtr[0], ytr, params, seed=derive_seed(seed, 1),
                    class_weight=class_weight, descriptor_id=specs[0].descriptor)
    return model.decision_function(Xte[0])


def run_kfold(stages, labels, k=5, seed=0, folds=None, params=DEFAULT_STAGE_PARAMS,
              class_weight=None):
    """k-fold evaluation with pooled test scores.

    A single stage trains a plain SVM; multiple stages train the stacked
    model per fold. params is one SvmParams for every SVM, or None to
    grid-search inside each outer training fold. Returns (EvalReport,
    pooled score per row).
    """
    stages = list(stages)
    if not stages:
        raise ConfigurationError("no stages to evaluate")
    y = np.asarray(labels, dtype=np.float64)
    n = len(y)
    if any(len(s.features) != n for s in stages):
        raise DataError("stage features not aligned with labels")
    if folds is None:
        folds = inner_folds(y, k=k, seed=derive_seed(seed, 77))
    if folds.assignments.shape != (n,):
        raise DataError("fold plan not aligned with labels")
    pooled = np.zeros(n)
    fold_accs = []
    for fold in range(folds.k):
        train_idx, test_idx = folds.split(fold)
        scores = _fit_and_score(stages, [s.features[train_idx] for s in stages], y[train_idx],
                                [s.features[test_idx] for s in stages],
                                derive_seed(seed, 5, fold), params, class_weight)
        pooled[test_idx] = scores
        pred = np.where(scores >= 0, 1.0, -1.0)
        fold_accs.append(float(np.mean(pred == y[test_idx])))
    report = evaluate(pooled, y, per_fold_accuracies=fold_accs)
    return report, pooled


def run_crossdb(train_stages, test_stages, train_labels, test_labels,
                train_name, test_name, seed=0, params=DEFAULT_STAGE_PARAMS,
                class_weight=None):
    """Train on one dataset, test on a different one.

    Nothing from the test side (scaling statistics, PCA basis, grid search)
    participates in training; params is as for run_kfold. Returns
    (EvalReport, test scores).
    """
    if train_name == test_name:
        raise ConfigurationError(
            f"cross-database run needs two distinct datasets, both are {train_name!r}")
    train_stages = list(train_stages)
    test_stages = list(test_stages)
    if [s.spec for s in train_stages] != [s.spec for s in test_stages]:
        raise ConfigurationError("train and test stages must list the same specs")
    scores = _fit_and_score(train_stages, [s.features for s in train_stages],
                            np.asarray(train_labels, dtype=np.float64),
                            [s.features for s in test_stages], derive_seed(seed, 9),
                            params, class_weight)
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
