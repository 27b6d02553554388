import numpy as np
import pytest

from facestack import (
    AGE_GROUPS,
    ConfigurationError,
    SvmParams,
    extract_descriptor,
    load_manifest,
    prepare_pattern,
    svm_fit,
    synth_corpus,
    synth_sample,
)


def test_corpus_writes_loadable_manifest(tmp_path):
    manifest = synth_corpus(tmp_path, n_per_class=3, seed=0)
    loaded = load_manifest(tmp_path / "manifest.csv", check_files=True)
    assert loaded.dataset_name == "manifest"  # name comes from the file stem
    assert manifest.dataset_name == "synth"
    assert len(loaded.samples) == 6
    genders = [s.gender for s in loaded.samples]
    assert genders.count("female") == 3 and genders.count("male") == 3
    assert all(s.age_group in AGE_GROUPS for s in loaded.samples)


def test_corpus_guard(tmp_path):
    with pytest.raises(ConfigurationError):
        synth_corpus(tmp_path, n_per_class=0)


def test_eye_geometry():
    rng = np.random.default_rng(3)
    for gender in ("female", "male"):
        for _ in range(10):
            img, el, er, age = synth_sample(rng, gender)
            d = float(np.hypot(er[0] - el[0], er[1] - el[1]))
            assert 28.0 <= d <= 38.0
            # ground-truth eyes sit on the rendered pupils
            for ex, ey in (el, er):
                assert img[round(ey), round(ex)] < 90
            assert img.shape == (270, 260)
            assert age in AGE_GROUPS


def test_corpus_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_corpus(a, n_per_class=2, seed=7)
    synth_corpus(b, n_per_class=2, seed=7)
    assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
    for name in ("f00000", "m00001"):
        assert (a / "images" / f"{name}.pgm").read_bytes() == \
               (b / "images" / f"{name}.pgm").read_bytes()
    c = tmp_path / "c"
    synth_corpus(c, n_per_class=2, seed=8)
    assert (a / "images" / "f00000.pgm").read_bytes() != \
           (c / "images" / "f00000.pgm").read_bytes()


def test_classes_separable_from_face_window():
    rng = np.random.default_rng(11)
    feats, labels = [], []
    for i in range(30):
        for gender, y in (("female", -1.0), ("male", 1.0)):
            img, el, er, _ = synth_sample(rng, gender)
            pat = prepare_pattern(img, el, er, "F")
            feats.append(extract_descriptor(pat, "hog"))
            labels.append(y)
    X = np.array(feats)
    y = np.array(labels)
    train = np.arange(len(y)) < 40
    model = svm_fit(X[train], y[train], SvmParams(C=4.0, gamma=0.095))
    acc = float(np.mean(np.sign(model.decision_function(X[~train])) == y[~train]))
    assert acc >= 0.9
