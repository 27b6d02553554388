import hashlib
import itertools

import numpy as np
import pytest

import oracles
from facestack import pool, synth
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
    assert loaded == manifest
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


def _tree(root):
    """Every file under root, by relative path -> its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_corpus_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_corpus(a, n_per_class=3, seed=7)
    synth_corpus(b, n_per_class=3, seed=7)
    assert _tree(a) == _tree(b)
    # pinned bytes: reordering a draw in `_draws` changes them
    digest = hashlib.sha256()
    for name, data in _tree(a).items():
        digest.update(name.encode() + b"\0" + data)
    assert digest.hexdigest() == "9a8df48e6f4a97cac99b1bbd38b8cfc6e03bcd7d4d7fb9d7b93eea1b82667706"
    c = tmp_path / "c"
    synth_corpus(c, n_per_class=3, seed=8)
    assert (a / "images" / "f00000.pgm").read_bytes() != \
           (c / "images" / "f00000.pgm").read_bytes()


def test_corpus_does_not_depend_on_the_core_count(tmp_path, monkeypatch, forks, assert_reaped):
    trees, forked = [], []
    for cores in (1, 2, 3):
        monkeypatch.setattr(pool, "_cores", lambda: cores)
        before = len(forks)
        synth_corpus(tmp_path / str(cores), n_per_class=5, seed=3)
        forked.append(len(forks) - before)
        trees.append(_tree(tmp_path / str(cores)))
    assert trees[0] == trees[1] == trees[2]
    assert len(trees[0]) == 11  # 10 PGMs and the manifest
    assert forked == [0, 1, 2]
    assert_reaped()


def test_draws_is_the_one_draw_order():
    # the skip-ahead of a worker group makes exactly a rendered sample's draws
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    noise = np.empty((270, 260))
    for gender in ("female", "male", "male", "female", "female"):
        synth_sample(rng_a, gender)
        synth._draws(rng_b, noise)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _assert_renders_like_the_oracle(rng, twin, gender):
    """synth_sample from rng against ref_render of the same draws from twin,
    an rng in the same state, bit for bit."""
    noise = np.empty((synth.CANVAS_H, synth.CANVAS_W))
    img, el, er, age = synth_sample(rng, gender)
    want = oracles.ref_render(synth._draws(twin, noise), noise, gender)
    assert oracles.same_bits(img, want[0])
    assert (el, er, age) == want[1:]


def test_windowed_render_equals_the_full_canvas_oracle():
    for seed in (0, 7, 21):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(30):
            _assert_renders_like_the_oracle(rng, twin, ("female", "male")[i % 2])


def test_windowed_render_equals_the_oracle_at_extreme_poses(monkeypatch):
    # every corner of the pose range, where the windows are largest, most
    # rotated, and the shoulders' window runs off the canvas; and upright at
    # scale 1, where box edges fall on pixel rows and columns
    draws = synth._draws
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    for d, theta, ox, oy in itertools.product((28.0, 32.0, 38.0), (-0.06, 0.0, 0.06),
                                              (-3.0, 3.0), (-3.0, 3.0)):
        def posed(rng, noise, pose=(d, theta, 130.0 + ox, 96.0 + oy)):
            return pose + draws(rng, noise)[4:]

        monkeypatch.setattr(synth, "_draws", posed)
        for gender in ("female", "male"):
            _assert_renders_like_the_oracle(rng, twin, gender)


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
