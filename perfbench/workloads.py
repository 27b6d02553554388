"""Benchmark workloads: the synthetic corpus, the CLI commands, and the checks.

Every workload is generated from the input seed alone: `synth` builds the
corpus with that seed and every later command gets the same `--seed`. The
input seed is the run's `--seed` modulo CALIBRATED_SEEDS, so that every run
is checked against the reference stored for its own corpus. Paths
in the commands are relative to the pass directory, so the outputs of two
passes can be compared byte for byte (`report.json` echoes the `--stage`
arguments).
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

# canonical first-stage columns: stage id -> (pattern, descriptor, c01 width)
STAGES = {
    "C1": ("F", "hog", 576),
    "C2": ("HS64", "hog", 576),
    "C3": ("F", "lbpu2", 1475),
    "C4": ("F", "losib", 512),
    "C5": ("HS64", "losib", 512),
}

CORPUS = "corpus"
CORPUS_MANIFEST = "corpus/manifest.csv"
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Tolerances of the reference checks. Accuracy may move by about two
# borderline samples, as a solver converging to the same KKT tolerance can
# flip them; a 1e-9 relative change to the kernel flipped one on grid_c1 and
# moved AUC by 3e-4. A 1.3x kernel-width mismatch between training and
# scoring moved grid_c1's AUC by 0.01-0.02, which AUC_TOL catches. Column
# means may move by float32 summation-order noise only.
ACCURACY_TOL = 0.03
AUC_TOL = 0.005
MEAN_RTOL = 1e-4
MEAN_ATOL = 1e-6
MEAN_BLOCKS = 16

# reference.json holds one entry per input seed 0 .. CALIBRATED_SEEDS - 1
CALIBRATED_SEEDS = 32


def input_seed(seed):
    """The seed the corpus and every command are made from."""
    return seed % CALIBRATED_SEEDS


@dataclass(frozen=True)
class Command:
    command: str   # CLI subcommand: synth, prepare, extract or eval
    argv: tuple
    out_dir: str   # created before the command runs; holds its run.json


@dataclass(frozen=True)
class Workload:
    name: str
    per_class: int
    variance: float      # gaussian noise variance given to prepare
    stages: tuple        # stage ids extracted, in order
    eval_args: tuple     # extra `eval kfold` flags; () runs no eval
    why: str

    @property
    def n_images(self):
        return 2 * self.per_class

    @property
    def patterns(self):
        return tuple(dict.fromkeys(STAGES[s][0] for s in self.stages))

    def setup_command(self, seed):
        return Command("synth", ("--seed", str(seed), "--out", CORPUS, "synth",
                                 "--per-class", str(self.per_class)), CORPUS)

    def commands(self, seed):
        """The timed commands, in order; each writes into its own directory."""
        s = str(seed)
        cmds = []
        for p in self.patterns:
            out = f"prepare_{p}"
            cmds.append(Command("prepare", (
                "--seed", s, "--out", out, "prepare", "--manifest", CORPUS_MANIFEST,
                "--pattern", p, "--noise", "gaussian", "--variance", repr(self.variance)), out))
        for sid in self.stages:
            pattern, descriptor, _ = STAGES[sid]
            out = f"extract_{sid}"
            cmds.append(Command("extract", (
                "--seed", s, "--out", f"{out}/{sid}.fsfm", "extract",
                "--manifest", f"prepare_{pattern}/manifest.csv",
                "--descriptor", descriptor), out))
        if self.eval_args:
            argv = ["--seed", s, "--out", "eval", "eval", "kfold", "--manifest", CORPUS_MANIFEST]
            for sid in self.stages:
                argv += ["--stage", f"{sid}=extract_{sid}/{sid}.fsfm"]
            cmds.append(Command("eval", tuple(argv) + self.eval_args, "eval"))
        return cmds

    def feature_files(self):
        return {sid: f"extract_{sid}/{sid}.fsfm" for sid in self.stages}


ALL_STAGES = tuple(STAGES)

# Sizes are scaled so that one pass of the timed commands takes a few seconds
# on a 2-core machine, which leaves room for several passes per run.
WORKLOADS = {w.name: w for w in (
    Workload(
        "grid_c1", per_class=45, variance=0.06, stages=("C1",),
        eval_args=("--k", "3", "--grid"),
        why="C1 with a 30-point C x gamma grid per outer fold: nearly all time is "
            "svm fits and scoring, where distance sharing and warm starts act"),
    Workload(
        "stack_s5", per_class=60, variance=0.1, stages=ALL_STAGES,
        eval_args=("--k", "5", "--C", "8", "--gamma", "0.04"),
        why="S5 stacking at one fixed (C, gamma): svm fits and OOF scoring with no "
            "grid to share work across; the only workload running stacking"),
    Workload(
        "featurize", per_class=100, variance=0.1, stages=ALL_STAGES, eval_args=(),
        why="prepare F and HS64 and extract C1-C5 with no svm at all: the control "
            "for svm changes and the target of descriptor batching"),
)}


# ---------------------------------------------------------------- checks

def tree_digest(root, names):
    """sha256 over (relative path, bytes) of the given files under root."""
    h = hashlib.sha256()
    for rel in sorted(names):
        h.update(rel.encode("utf-8") + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def corpus_files(root):
    """Every file synth wrote (images and manifest), relative to root."""
    out = []
    for dirpath, _, files in os.walk(os.path.join(root, CORPUS)):
        out += [os.path.relpath(os.path.join(dirpath, f), root)
                for f in files if f != "run.json"]
    return out


def output_files(wl):
    """The artifacts that must be byte-identical across same-seed passes."""
    names = list(wl.feature_files().values())
    if wl.eval_args:
        names.append("eval/report.json")
    return names


def block_means(data, blocks=MEAN_BLOCKS):
    """Per-column means of a feature matrix, averaged over contiguous blocks."""
    means = np.asarray(data, dtype=np.float64).mean(axis=0)
    return [float(b.mean()) for b in np.array_split(means, blocks)]


def centroid_probe(mats, labels, k=5):
    """(accuracy, auc) of a nearest-class-mean classifier over the matrices.

    Benchmark-side probe for the featurize workload, which trains no SVM:
    it shows whether the extracted features still carry the class signal.
    Rows are dealt round-robin into k folds; features are min-max scaled.
    """
    from facestack.evaluation import evaluate

    X = np.hstack([np.asarray(m, dtype=np.float64) for m in mats])
    span = X.max(axis=0) - X.min(axis=0)
    X = (X - X.min(axis=0)) / np.where(span > 0, span, 1.0)
    y = np.asarray(labels, dtype=np.float64)
    fold = np.arange(len(y)) % k
    scores = np.empty(len(y))
    for f in range(k):
        tr, te = fold != f, fold == f
        mu_pos = X[tr & (y > 0)].mean(axis=0)
        mu_neg = X[tr & (y < 0)].mean(axis=0)
        scores[te] = (((X[te] - mu_neg) ** 2).sum(axis=1)
                      - ((X[te] - mu_pos) ** 2).sum(axis=1))
    report = evaluate(scores, y)
    return report.accuracy, report.auc


def load_reference(path=REFERENCE_FILE):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _within(value, ref, atol, rtol=0.0):
    return abs(value - ref) <= atol + rtol * abs(ref)


def check_outcome(wl, seed, outcome, reference):
    """Compare one pass's accuracy, AUC and column means with the reference
    stored for its input seed. Returns a list of failure messages."""
    exact = reference.get(wl.name, {}).get("seeds", {}).get(str(seed))
    if exact is None:
        return [f"{wl.name}: reference.json has no entry for seed {seed}; "
                f"run perfbench/calibrate.py --workload {wl.name}"]
    errors = []
    for key, tol in (("accuracy", ACCURACY_TOL), ("auc", AUC_TOL)):
        if not _within(outcome[key], exact[key], tol):
            errors.append(f"{key} {outcome[key]!r} differs from reference {exact[key]!r} "
                          f"by more than {tol}")
    if wl.eval_args and outcome["accuracy"] >= 1.0:
        errors.append("accuracy reached 1.0, so solver drift would not show")
    for sid, got in outcome.get("block_means", {}).items():
        bad = [i for i, (g, w) in enumerate(zip(got, exact["block_means"][sid]))
               if not _within(g, w, MEAN_ATOL, MEAN_RTOL)]
        if bad:
            errors.append(f"{sid}: column-mean blocks {bad[:5]} off reference")
    return errors


def read_outcome(wl, root):
    """Accuracy, AUC and (featurize) column means of one pass, plus matrix checks.

    Returns (outcome dict, list of failure messages).
    """
    from facestack.dataset import load_manifest
    from facestack.features import load_features

    errors = []
    n = wl.n_images
    mats = {}
    for sid, rel in wl.feature_files().items():
        fm = load_features(os.path.join(root, rel))
        width = STAGES[sid][2]
        if fm.data.shape != (n, width):
            errors.append(f"{sid}: matrix is {fm.data.shape}, expected ({n}, {width})")
        elif not np.isfinite(fm.data).all():
            errors.append(f"{sid}: non-finite feature values")
        mats[sid] = fm.data
    outcome = {"feature_widths": {sid: int(m.shape[1]) for sid, m in mats.items()}}
    if errors:
        return outcome, errors
    if wl.eval_args:
        with open(os.path.join(root, "eval", "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        outcome["accuracy"], outcome["auc"] = float(report["accuracy"]), float(report["auc"])
    else:
        labels = load_manifest(os.path.join(root, CORPUS_MANIFEST), check_files=False).labels()
        outcome["accuracy"], outcome["auc"] = centroid_probe(list(mats.values()), labels)
        outcome["block_means"] = {sid: block_means(m) for sid, m in mats.items()}
    return outcome, errors
