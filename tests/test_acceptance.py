"""Acceptance gate: one numbered criterion per test, one pass/fail line each.

Run `python3 tests/test_acceptance.py` (or pytest -s) to see the lines as
they print. Every test also enforces its own wall-clock budget. Criterion 10
compares against reference accuracies on the GROUPS corpus and only runs
when FACESTACK_GROUPS_DIR points at a copy with eye/age annotations.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from facestack import (
    NoiseSpec,
    ScoreMatrix,
    StageData,
    SvmParams,
    U2_TABLE,
    extract_descriptor,
    make_folds,
    jarque_bera,
    kruskal_wallis,
    lbp_code_map,
    nilbp_code_map,
    lsp_code_map,
    auc_trapezoid,
    prepare_pattern,
    roc_curve,
    run_kfold,
    stack_fit,
    stack_scores,
    svm_fit,
    synth_corpus,
    synth_sample,
)
from facestack.cli import main
from facestack.pgm import load_gray
from facestack.stacking import FirstStageSpec
from facestack.svm import _scale_fit, _sq_dists


@contextmanager
def _gate(num, name, tolerance, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {name} | tolerance {tolerance} | "
              f"{time.perf_counter() - t0:.2f}s of {budget_s:.0f}s budget")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget_s else "FAIL"
    print(f"[{status}] criterion {num}: {name} | tolerance {tolerance} | "
          f"{elapsed:.2f}s of {budget_s:.0f}s budget")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_c01_descriptor_dimensions():
    with _gate(1, "pattern/descriptor dimensions", "exact", 1.0):
        rng = np.random.default_rng(0)
        f = rng.integers(0, 256, (65, 59), dtype=np.uint8)
        hs64 = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        assert extract_descriptor(f, "hog").shape == (576,)
        assert extract_descriptor(f, "lbpu2").shape == (1475,)
        assert extract_descriptor(f, "losib").shape == (512,)
        assert extract_descriptor(hs64, "hog").shape == (576,)


def test_c02_coder_oracle_equivalence():
    with _gate(2, "LBP/LBP-u2/NILBP/LSP vs naive reference, 50 random 32x32",
               "exact", 10.0):
        rng = np.random.default_rng(2)
        for _ in range(50):
            img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
            lbp = lbp_code_map(img)
            assert np.array_equal(lbp, oracles.ref_lbp(img))
            assert np.array_equal(U2_TABLE[lbp], oracles.ref_u2_map()[oracles.ref_lbp(img)])
            assert np.array_equal(nilbp_code_map(img), oracles.ref_nilbp(img))
            assert np.array_equal(lsp_code_map(img), oracles.ref_lsp(img, 0))


def _qp_datasets():
    rng = np.random.default_rng(33)
    sets = []
    for i in range(20):
        n = int(rng.integers(16, 61))
        d = int(rng.integers(2, 11))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        kind = i % 4
        if kind == 0:  # well separated blobs
            X = rng.normal(0, 1, (n, d)) + y[:, None] * 2.0
        elif kind == 1:  # heavy class overlap
            X = rng.normal(0, 1, (n, d)) + y[:, None] * 0.4
        elif kind == 2:  # ring against center
            u = rng.normal(0, 1, (n, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            X = u * np.where(y > 0, 2.0, 0.5)[:, None] + rng.normal(0, 0.2, (n, d))
        else:  # pure noise labels
            X = rng.normal(0, 1, (n, d))
        C = float(rng.choice([0.25, 1.0, 4.0, 16.0]))
        gamma = float(rng.choice([0.05, 0.2, 1.0]))
        sets.append((X, y, C, gamma))
    return sets


def _full_alpha(model, Xs):
    lookup = {sv.tobytes(): i for i, sv in enumerate(model.support_vectors)}
    alpha = np.zeros(len(Xs))
    for j, row in enumerate(Xs):
        i = lookup.get(row.tobytes())
        if i is not None:
            alpha[j] = abs(model.dual_coefs[i])
    return alpha


def test_c03_smo_matches_qp_oracle():
    with _gate(3, "SMO dual vs projected-gradient QP on 20 datasets",
               "rel gap <= 1e-3, KKT at 1e-3", 60.0):
        for X, y, C, gamma in _qp_datasets():
            params = SvmParams(C=C, gamma=gamma)
            model = svm_fit(X, y, params)
            _, _, Xs = _scale_fit(np.asarray(X, dtype=np.float64))
            K = np.exp(-gamma * _sq_dists(Xs, Xs))
            alpha = _full_alpha(model, Xs)
            obj = oracles.dual_objective(K, y, alpha)
            _, obj_ref = oracles.qp_reference(K, y, C)
            assert obj >= obj_ref - 1e-3 * max(1.0, abs(obj_ref))
            bad = oracles.kkt_violations(alpha, y, model.decision_function(X), C, 1e-3)
            assert bad == []


def _complementary_fixture(seed, n):
    """Two feature views, each informative on a disjoint half of the rows."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    half = rng.random(n) < 0.5
    a = rng.normal(0, 1, (n, 4))
    b = rng.normal(0, 1, (n, 4))
    a[half, 0] = y[half] * 2 + rng.normal(0, 0.3, half.sum())
    b[~half, 0] = y[~half] * 2 + rng.normal(0, 0.3, (~half).sum())
    return [a, b], y


def _acc(pred, y):
    return float(np.mean(pred == y))


def test_c04_stacking_complementarity():
    with _gate(4, "stacked beats every single first-stage model",
               ">= 5 accuracy points", 60.0):
        mats, y = _complementary_fixture(5, 400)
        train = np.arange(400) < 240
        specs = [FirstStageSpec("C1", "custom", "raw"), FirstStageSpec("C3", "custom", "raw")]
        params = SvmParams(C=1.0, gamma=0.095)
        folds = make_folds(y[train], 5, seed=1)

        singles = []
        for X in mats:
            m = svm_fit(X[train], y[train], params)
            singles.append(_acc(np.where(m.decision_function(X[~train]) >= 0, 1, -1), y[~train]))

        stacked = stack_fit([X[train] for X in mats], y[train], folds, specs,
                            params=params)
        s = stack_scores(stacked, [X[~train] for X in mats])
        acc_stack = _acc(np.where(s >= 0, 1, -1), y[~train])
        print(f"    singles={[round(a, 3) for a in singles]} stacked={acc_stack:.3f}")
        for a in singles:
            assert acc_stack >= a + 0.05

        # oracle-column variant: a perfect external score column is ingested
        # through the same path and lifts the stack to near-perfect accuracy
        ext = ScoreMatrix(y[train, None] * 3.0, ("EXT",))
        with_ext = stack_fit([X[train] for X in mats], y[train], folds, specs,
                             external_scores=ext, params=params)
        s2 = stack_scores(with_ext, [X[~train] for X in mats],
                          external=ScoreMatrix(y[~train, None] * 3.0, ("EXT",)))
        assert _acc(np.where(s2 >= 0, 1, -1), y[~train]) >= 0.97


def test_c05_stacking_leak_freedom():
    with _gate(5, "randomized labels give chance-level stacked accuracy",
               "held-out accuracy in [0.45, 0.55] over 1000 samples", 60.0):
        rng = np.random.default_rng(12)
        n_train, n_test = 300, 1000
        y_tr = np.where(rng.random(n_train) < 0.5, 1.0, -1.0)
        y_te = np.where(rng.random(n_test) < 0.5, 1.0, -1.0)
        tr = [rng.normal(0, 1, (n_train, 6)) for _ in range(2)]
        te = [rng.normal(0, 1, (n_test, 6)) for _ in range(2)]
        specs = [FirstStageSpec("C1", "custom", "raw"), FirstStageSpec("C3", "custom", "raw")]
        params = SvmParams(C=8.0, gamma=0.5)  # deliberately overfit-prone
        model = stack_fit(tr, y_tr, make_folds(y_tr, 5, seed=0), specs,
                          params=params)
        s = stack_scores(model, te)
        acc = _acc(np.where(s >= 0, 1, -1), y_te)
        print(f"    held-out accuracy {acc:.3f}")
        assert 0.45 <= acc <= 0.55


def test_c06_noise_monotonicity(tmp_path):
    with _gate(6, "face-window accuracy vs gaussian variance sweep",
               "non-increasing within 2 points per step", 300.0):
        man = synth_corpus(tmp_path, 200, seed=0)
        imgs = [load_gray(s.image_path) for s in man.samples]
        y = man.labels()
        spec = FirstStageSpec("C1", "F", "hog")
        params = SvmParams(C=8.0, gamma=0.04)
        accs = []
        for li, var in enumerate((0.0, 0.025, 0.05, 0.1)):
            feats = []
            for row, (img, s) in enumerate(zip(imgs, man.samples)):
                noise = None if var == 0 else NoiseSpec(
                    "gaussian", var,
                    seed=int(np.random.SeedSequence(entropy=0, spawn_key=(li, row))
                             .generate_state(1)[0]))
                pat = prepare_pattern(img, s.eye_left, s.eye_right, "F", noise=noise)
                feats.append(extract_descriptor(pat, "hog"))
            report, _ = run_kfold([StageData(spec, np.asarray(feats))], y, k=5,
                                  seed=0, params=params)
            accs.append(report.accuracy)
        print(f"    sweep accuracies {[round(a, 4) for a in accs]}")
        assert accs[0] >= 0.9  # generator calibration: clean corpus is learnable
        for prev, cur in zip(accs, accs[1:]):
            assert cur <= prev + 0.02


def test_c07_statistics_reference_values():
    with _gate(7, "rank test reproduces published example; normality test sims",
               "H and p within 1e-3", 30.0):
        # worked example from Kruskal & Wallis (1952), section 7: three
        # machines, measurements per machine
        a = [340.0, 345.0, 330.0, 342.0, 338.0]
        b = [339.0, 333.0, 344.0]
        c = [347.0, 343.0, 349.0, 355.0]
        r = kruskal_wallis([a, b, c])
        assert abs(r.statistic - 5.656410256410254) <= 1e-3
        assert abs(r.p_value - 0.059118869289796) <= 1e-3

        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if jarque_bera(rng.normal(0, 1, 10_000)).p_value > 0.01:
                hits += 1
        assert hits >= 19  # >= 95% of seeded repetitions
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            assert jarque_bera(rng.exponential(1.0, 10_000)).p_value < 0.01


def test_c08_auc_dual_computation():
    with _gate(8, "trapezoid AUC vs rank-sum AUC on 100 score sets", "1e-9", 10.0):
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(20, 150))
            labels = np.where(rng.random(n) < 0.5, 1, -1)
            if len(np.unique(labels)) < 2:
                labels[:2] = (1, -1)
            scores = rng.normal(0, 1, n) + 0.5 * labels
            if trial % 2:
                scores = np.round(scores, 1)  # force tie runs
            auc = auc_trapezoid(roc_curve(scores, labels))
            assert abs(auc - oracles.auc_mannwhitney(scores, labels)) <= 1e-9


def _run_pipeline():
    cmds = [
        ["--seed", "7", "--out", "corpus", "synth", "--per-class", "30"],
        ["--out", "folds.csv", "folds", "--manifest", "corpus/manifest.csv", "--k", "3"],
        ["--out", "fpat", "prepare", "--manifest", "corpus/manifest.csv",
         "--pattern", "F"],
        ["--out", "hog.fsfm", "extract", "--manifest", "fpat/manifest.csv",
         "--descriptor", "hog"],
        ["--out", "losib.fsfm", "extract", "--manifest", "fpat/manifest.csv",
         "--descriptor", "losib"],
        ["--seed", "7", "--out", "model.fsvm", "train", "--features", "hog.fsfm",
         "--manifest", "corpus/manifest.csv", "--folds", "folds.csv",
         "--C", "8.0", "--gamma", "0.04"],
        ["--seed", "7", "--out", "stack.fstk", "stack",
         "--manifest", "corpus/manifest.csv", "--stage", "C1=hog.fsfm",
         "--stage", "C4=losib.fsfm", "--folds", "folds.csv",
         "--C", "8.0", "--gamma", "0.04"],
        ["--seed", "7", "--out", "eval", "eval", "kfold",
         "--manifest", "corpus/manifest.csv", "--stage", "C1=hog.fsfm",
         "--stage", "C4=losib.fsfm", "--k", "3", "--C", "8.0", "--gamma", "0.04"],
    ]
    for argv in cmds:
        assert main(argv) == 0


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "run.json"}


def test_c09_end_to_end_determinism(tmp_path, monkeypatch):
    with _gate(9, "synth->prepare->extract->train->stack->eval twice, same seed",
               "byte-identical artifacts", 300.0):
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            monkeypatch.chdir(root)
            _run_pipeline()
        ta = _tree_bytes(tmp_path / "a")
        tb = _tree_bytes(tmp_path / "b")
        assert sorted(ta) == sorted(tb)
        diff = [k for k in ta if ta[k] != tb[k]]
        assert diff == []


GROUPS_ENV = "FACESTACK_GROUPS_DIR"


@pytest.mark.skipif(GROUPS_ENV not in os.environ,
                    reason=f"{GROUPS_ENV} not set; needs the annotated GROUPS corpus")
def test_c10_groups_reference_accuracies():
    """Reference accuracies on the GROUPS corpus under the >20px-eye protocol.

    Expects $FACESTACK_GROUPS_DIR/manifest.csv plus images. Grid-searched,
    so expect hours of wall time at full corpus scale.
    """
    from facestack import load_manifest, dago_mask, adults_mask, make_folds

    root = os.environ[GROUPS_ENV]
    manifest = load_manifest(os.path.join(root, "manifest.csv"))
    stage_defs = (("C1", "F", "hog"), ("C2", "HS64", "hog"), ("C3", "F", "lbpu2"),
                  ("C4", "F", "losib"), ("C5", "HS64", "losib"))

    def features_for(sub, pattern, descriptor):
        rows = []
        for s in sub.samples:
            img = load_gray(s.image_path)
            pat = prepare_pattern(img, s.eye_left, s.eye_right, pattern)
            rows.append(extract_descriptor(pat, descriptor))
        return np.asarray(rows)

    def run(mask, stages, target, label):
        idx = np.flatnonzero(mask)
        sub = manifest.subset(idx)
        y = sub.labels()
        data = [StageData(FirstStageSpec(sid, pat, desc), features_for(sub, pat, desc))
                for sid, pat, desc in stages]
        folds = make_folds(sub, 5, seed=0)
        report, _ = run_kfold(data, y, folds=folds, seed=0, params=None)
        print(f"    {label}: accuracy {report.accuracy:.4f} (target {target} +/- 0.02)")
        assert abs(report.accuracy - target) <= 0.02

    with _gate(10, "GROUPS protocol reference accuracies", "+/- 2.0 points", 1e9):
        dago = dago_mask(manifest)
        run(dago, stage_defs[:1], 0.8823, "single F-HOG")
        run(dago, stage_defs, 0.9165, "5-column stack")
        run(dago & adults_mask(manifest), stage_defs, 0.9428, "adults stack")


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([os.path.abspath(__file__), "-v", "-s"]))
