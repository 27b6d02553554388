"""Annotated image manifests, protocol filters and fold plans.

Manifest CSV format (header required):

    path,identity,gender,age_group,eye_lx,eye_ly,eye_rx,eye_ry

with gender in {f,m}, age_group in {0-19,20-36,37-65,66+,unknown} and eye
coordinates in floating-point pixels of the source image. Image paths are
resolved relative to the manifest file. Fold plans serialize as
``row_index,fold`` CSV.
"""

import csv
import heapq
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, ParseError
from .records import read_csv

GENDERS = ("female", "male")
GENDER_TOKENS = {"f": "female", "m": "male"}
AGE_GROUPS = ("0-19", "20-36", "37-65", "66+", "unknown")
ADULT_GROUPS = frozenset({"20-36", "37-65", "66+"})

MANIFEST_HEADER = ["path", "identity", "gender", "age_group",
                   "eye_lx", "eye_ly", "eye_rx", "eye_ry"]

DAGO_MIN_EYE_DISTANCE = 20.0


@dataclass(frozen=True)
class Sample:
    image_path: str
    identity_id: str
    gender: str  # "female" or "male"
    age_group: str
    eye_left: tuple
    eye_right: tuple

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise DataError(f"unknown gender {self.gender!r}")
        if self.age_group not in AGE_GROUPS:
            raise DataError(f"unknown age group {self.age_group!r}")
        if not all(math.isfinite(v) for v in (*self.eye_left, *self.eye_right)):
            raise DataError("eye coordinates must be finite")
        if not self.eye_left[0] < self.eye_right[0]:
            raise DataError("left eye must lie left of the right eye")

    @property
    def inter_eye_distance(self):
        return math.dist(self.eye_left, self.eye_right)

    @property
    def label(self):
        """+1 for male, -1 for female (the classifier convention)."""
        return 1 if self.gender == "male" else -1


@dataclass(frozen=True)
class Manifest:
    samples: tuple

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def labels(self):
        return np.array([s.label for s in self.samples], dtype=np.float64)

    def subset(self, indices):
        return Manifest(tuple(self.samples[i] for i in indices))


def load_manifest(path, check_files=True):
    """Parse a manifest CSV."""
    base = os.path.dirname(os.path.abspath(path))

    _, rows = read_csv(path, "manifest", MANIFEST_HEADER)
    samples = []
    for lineno, row in rows:
        rel, identity, gender_tok, age_group = (c.strip() for c in row[:4])
        if gender_tok not in GENDER_TOKENS:
            raise ParseError(f"{path}: row {lineno}: unknown gender token {gender_tok!r}")
        try:
            lx, ly, rx, ry = (float(c) for c in row[4:])
        except ValueError:
            raise ParseError(f"{path}: row {lineno}: non-numeric eye coordinate") from None
        image_path = rel if os.path.isabs(rel) else os.path.join(base, rel)
        try:
            samples.append(Sample(image_path, identity, GENDER_TOKENS[gender_tok],
                                  age_group, (lx, ly), (rx, ry)))
        except DataError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None

    if check_files:
        for (lineno, _), s in zip(rows, samples):
            if not os.path.isfile(s.image_path):
                raise DataError(f"{path}: row {lineno}: image not found: {s.image_path}")
    return Manifest(tuple(samples))


def save_manifest(manifest, path):
    """Write a manifest CSV with image paths relative to the output file."""
    base = os.path.dirname(os.path.abspath(path))
    gender_back = {v: k for k, v in GENDER_TOKENS.items()}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for s in manifest.samples:
            writer.writerow([
                os.path.relpath(s.image_path, base), s.identity_id,
                gender_back[s.gender], s.age_group,
                repr(s.eye_left[0]), repr(s.eye_left[1]),
                repr(s.eye_right[0]), repr(s.eye_right[1]),
            ])


def dago_mask(manifest):
    """True where the inter-eye distance strictly exceeds 20 pixels."""
    return np.array([s.inter_eye_distance > DAGO_MIN_EYE_DISTANCE for s in manifest.samples])


def adults_mask(manifest):
    """True for the three adult age groups; 0-19 and unknown are excluded."""
    return np.array([s.age_group in ADULT_GROUPS for s in manifest.samples])


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray  # per-sample fold index in [0, k)

    def split(self, fold):
        """(train_indices, test_indices) for one held-out fold."""
        test = self.assignments == fold
        return np.flatnonzero(~test), np.flatnonzero(test)


def make_folds(manifest, k, seed, grouping="by_sample"):
    """Deterministic seeded partition into k folds.

    The rows form groups: one row each for by_sample, one identity each
    (numbered by first appearance) for by_identity. The groups are shuffled
    and each goes whole to the currently smallest fold, the lowest fold on a
    tie. by_sample fold sizes thus differ by at most one, and it only needs
    len(manifest), so any sequence (such as a label array) will do.
    """
    if k < 2:
        raise ConfigurationError("k must be at least 2")
    if grouping == "by_sample":
        group = np.arange(len(manifest))
    elif grouping == "by_identity":
        ids = {}
        group = np.array([ids.setdefault(s.identity_id, len(ids)) for s in manifest.samples],
                         dtype=np.int64)
    else:
        raise ConfigurationError(f"unknown grouping {grouping!r}")
    counts = np.bincount(group).tolist()
    if len(counts) < k:
        raise ConfigurationError(f"cannot make {k} folds from {len(counts)} groups")
    heap = list(range(k))  # entries fold + k * size: heap[0] is the smallest fold, lowest on a tie
    fold_of = [0] * len(counts)
    for g in np.random.default_rng(seed).permutation(len(counts)).tolist():
        fold_of[g] = heap[0] % k
        heapq.heapreplace(heap, heap[0] + k * counts[g])
    return FoldPlan(k, np.array(fold_of, dtype=np.int64)[group])


def save_folds(plan, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_index", "fold"])
        for i, f in enumerate(plan.assignments):
            writer.writerow([i, int(f)])


def load_folds(path):
    _, rows = read_csv(path, "fold plan", ["row_index", "fold"])
    pairs = []
    for lineno, (row_index, fold) in rows:
        try:
            pairs.append((int(row_index), int(fold)))
        except ValueError:
            raise ParseError(f"{path}: row {lineno}: bad fold entry") from None
    pairs.sort()
    if [i for i, _ in pairs] != list(range(len(pairs))):
        raise ParseError(f"{path}: row indices must cover 0..{len(pairs) - 1}")
    if not pairs:
        raise ParseError(f"{path}: empty fold plan")
    ids = set(f for _, f in pairs)
    k = max(ids) + 1
    if min(ids) < 0 or k < 2 or len(ids) != k:  # every fold in [0, k) holds a row
        raise ParseError(f"{path}: fold ids must cover 0..k-1 with k >= 2, got {sorted(ids)}")
    return FoldPlan(k, np.array([f for _, f in pairs], dtype=np.int64))
