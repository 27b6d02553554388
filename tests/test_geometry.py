import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from facestack import ConfigurationError, geometry
from facestack.geometry import (
    F_PATTERN,
    HS_PATTERN,
    PATTERN_VARIANTS,
    NoiseSpec,
    PatternSpec,
    add_noise,
    downscale,
    eye_transform,
    normalize_pattern,
    pattern_eyes,
    prepare_pattern,
    to_gray,
)
from facestack.geometry import _bilinear_sample


def test_pattern_constants():
    assert (F_PATTERN.width, F_PATTERN.height) == (59, 65)
    assert F_PATTERN.eye_left == (16.0, 17.0)
    assert F_PATTERN.eye_right == (42.0, 17.0)
    assert (HS_PATTERN.width, HS_PATTERN.height) == (159, 155)
    assert HS_PATTERN.eye_left == (66.0, 47.0)
    assert HS_PATTERN.eye_right == (92.0, 47.0)
    # both anchor pairs sit 26px apart on the same row
    for spec in (F_PATTERN, HS_PATTERN):
        assert spec.eye_right[0] - spec.eye_left[0] == 26.0
        assert spec.eye_left[1] == spec.eye_right[1]


def test_pattern_spec_validation():
    with pytest.raises(ConfigurationError):
        PatternSpec(10, 10, (12.0, 5.0), (15.0, 5.0))
    with pytest.raises(ConfigurationError):
        PatternSpec(30, 30, (20.0, 5.0), (10.0, 5.0))


def test_to_gray_rec601():
    px = np.zeros((1, 3, 3), dtype=np.uint8)
    px[0, 0] = (255, 0, 0)
    px[0, 1] = (0, 255, 0)
    px[0, 2] = (0, 0, 255)
    assert to_gray(px).tolist() == [[76, 150, 29]]
    # equal channels pass through unchanged
    flat = np.full((2, 2, 3), 137, dtype=np.uint8)
    assert np.array_equal(to_gray(flat), np.full((2, 2), 137, dtype=np.uint8))


def test_bilinear_interior_and_outside():
    img = np.array([[0.0, 100.0], [200.0, 255.0]])
    xs = np.array([0.5, 0.25, -1.0, 5.0])
    ys = np.array([0.5, 0.0, 0.0, 0.0])
    got = _bilinear_sample(img, xs, ys)
    assert got[0] == pytest.approx(138.75)
    assert got[1] == pytest.approx(25.0)
    assert got[2] == 0.0  # out of raster reads as zero
    assert got[3] == 0.0


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_bilinear_sample_matches_masked_oracle(dtype):
    rng = np.random.default_rng(11)
    for h, w in ((1, 1), (2, 3), (37, 52)):
        img = rng.integers(0, 256, (h, w)).astype(dtype)
        if dtype == np.float64:
            img += rng.random((h, w))
        xs = rng.uniform(-4 * w - 10, 4 * w + 10, 3000)
        ys = rng.uniform(-4 * h - 10, 4 * h + 10, 3000)
        # integer points on and next to the raster edges, and far off it
        xs[:300] = rng.integers(-3, w + 3, 300)
        ys[:300] = rng.integers(-3, h + 3, 300)
        xs[300:304] = (-1e6, 1e6, 0.5, -2.5)
        ys[300:304] = (0.5, -1e6, 1e6, h + 1.5)
        want = oracles.ref_bilinear_sample(img.astype(np.float64), xs, ys)
        assert oracles.same_bits(_bilinear_sample(img, xs, ys), want)
        grid = (xs[:2400].reshape(40, 60), ys[:2400].reshape(40, 60))
        assert oracles.same_bits(_bilinear_sample(img, *grid),
                          oracles.ref_bilinear_sample(img.astype(np.float64), *grid))


@pytest.mark.parametrize("pattern_id", sorted(PATTERN_VARIANTS))
def test_prepare_pattern_matches_masked_sampler(pattern_id, monkeypatch):
    rng = np.random.default_rng(12)
    img = rng.integers(0, 256, (120, 100), dtype=np.uint8)
    eyes = (
        ((40.0, 50.0), (62.0, 53.0)),            # window inside the image
        ((3.5, 4.25), (30.2, -2.0)),             # partly above and left of it
        ((90.0, 110.0), (130.5, 150.0)),         # partly below and right of it
        ((-400.0, -300.0), (-360.0, -310.0)),    # wholly outside
    )
    noises = (None, NoiseSpec("gaussian", 0.05, seed=4),
              NoiseSpec("motion", 7))
    got = [prepare_pattern(img, el, er, pattern_id, noise)
           for el, er in eyes for noise in noises]
    assert not got[-3].any()  # the wholly outside window reads zeros
    monkeypatch.setattr(geometry, "_bilinear_sample",  # downscale's corners are ignored
                        lambda src, xs, ys, corners=None: oracles.ref_bilinear_sample(
                            src.astype(np.float64), xs, ys))
    want = [prepare_pattern(img, el, er, pattern_id, noise)
            for el, er in eyes for noise in noises]
    for g, w in zip(got, want):
        assert oracles.same_bits(g, w)


def test_eye_transform_hits_anchors():
    rng = np.random.default_rng(3)
    for _ in range(20):
        el = tuple(rng.uniform(20, 100, 2))
        er = (el[0] + rng.uniform(5, 80), el[1] + rng.uniform(-40, 40))
        t = eye_transform(el, er, F_PATTERN)
        np.testing.assert_allclose(t.apply(el), F_PATTERN.eye_left, atol=1e-9)
        np.testing.assert_allclose(t.apply(er), F_PATTERN.eye_right, atol=1e-9)
        back = t.inverse().apply(t.apply((7.0, 11.0)))
        np.testing.assert_allclose(back, (7.0, 11.0), atol=1e-9)


def test_eye_transform_rejects_coincident_eyes():
    with pytest.raises(ConfigurationError):
        eye_transform((5.0, 5.0), (5.0, 5.0), F_PATTERN)


@pytest.mark.parametrize("eye_left, eye_right", [
    ((0.0, 0.0), (1e200, 0.0)),       # squared distance overflows: the inverse divides by 0
    ((0.0, 0.0), (1e-320, 0.0)),      # squared distance underflows to 0
    ((0.0, 0.0), (3e-162, 0.0)),      # the square of the scale overflows
    ((1e300, 0.0), (1e300, 1e-150)),  # the translation overflows
])
def test_eye_transform_rejects_a_degenerate_or_infinite_transform(eye_left, eye_right):
    with pytest.raises(ConfigurationError, match="eye coordinates"):
        eye_transform(eye_left, eye_right, HS_PATTERN)


def test_normalize_identity_when_already_anchored():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (F_PATTERN.height, F_PATTERN.width), dtype=np.uint8)
    out = normalize_pattern(img, F_PATTERN.eye_left, F_PATTERN.eye_right, F_PATTERN)
    assert np.array_equal(out, img)


def test_normalize_rotated_dots_land_on_anchors():
    img = np.zeros((120, 120), dtype=np.uint8)
    el, er = (30.0, 50.0), (50.0, 30.0)  # 45 degrees, distance ~28.3
    img[50, 30] = 255
    img[30, 50] = 255
    out = normalize_pattern(img, el, er, F_PATTERN)
    assert out.shape == (F_PATTERN.height, F_PATTERN.width)
    assert out[17, 16] == 255
    assert out[17, 42] == 255
    assert out[:5, :5].max() == 0  # corner maps outside the lit pixels


def test_normalize_zero_fills_outside_source():
    img = np.full((40, 40), 200, dtype=np.uint8)
    # eyes near the top edge: pattern rows above/below the 40px source band
    # must read as zero while the band itself keeps the flat value
    out = normalize_pattern(img, (7.0, 5.0), (33.0, 5.0), F_PATTERN)
    assert out[5].max() == 0     # source row -7
    assert out[60].max() == 0    # source row 48
    assert out[30, 25] == 200    # source (16, 18), interior


def test_downscale_pixel_center_mapping():
    img = (10 * np.arange(4, dtype=np.uint8))[None, :].repeat(4, axis=0)
    out = downscale(img, 2, 2)
    # targets sample source x = 0.5 and 2.5
    assert out.tolist() == [[5, 25], [5, 25]]


def test_downscale_same_size_is_copy():
    # the general path's corner weights are exactly (1, 0, 0, 0)
    rng = np.random.default_rng(2)
    for h, w in ((1, 1), (1, 5), (7, 1), (3, 4), (16, 16), (65, 59), (155, 159), (64, 64)):
        img = rng.permutation(np.resize(np.arange(256, dtype=np.uint8), h * w)).reshape(h, w)
        out = downscale(img, w, h)
        assert np.array_equal(out, img)
        assert out is not img


def test_downscale_rounds_half_up():
    img = np.array([[0, 1]], dtype=np.uint8)
    assert downscale(img, 1, 1).tolist() == [[1]]  # mean 0.5 rounds up


def test_corners_are_defined_for_every_finite_coordinate():
    # an int64 cast of a coordinate at or above 2**63 is undefined and warns,
    # which the RuntimeWarning filter turns into an error; the corners clip first
    rng = np.random.default_rng(14)
    img = rng.integers(0, 256, (9, 7), dtype=np.uint8)
    near = np.array([2.0**62, -(2.0**62), 1e18, -1e18, 3.5, 2.25])
    far = np.array([2.0**63, -(2.0**63), 1e30, -1e30, 1.7976931348623157e308, -1e308])
    for xs, ys in ((near, near[::-1]), (near, far), (far, near), (far, far[::-1])):
        got = _bilinear_sample(img, xs, ys)
        in_range = (np.abs(xs) < 2.0**63) & (np.abs(ys) < 2.0**63)
        want = oracles.ref_bilinear_sample(img.astype(np.float64), xs[in_range], ys[in_range])
        assert oracles.same_bits(got[in_range], want)
        assert not got[~in_range].any()  # far off the raster reads the zero border
    assert prepare_pattern(img, (-1e30, 5.0), (1e30, 5.0), "HS64").shape == (64, 64)


def _poses(rng, n, shape):
    """n random eye pairs on a shape = (h, w) image: any rotation, scale and
    centre, so some windows cross the border and some lie wholly beyond it."""
    h, w = shape
    for _ in range(n):
        cx, cy = rng.uniform(-0.5 * w, 1.5 * w), rng.uniform(-0.5 * h, 1.5 * h)
        r, angle = rng.uniform(2, 120), rng.uniform(-np.pi, np.pi)
        dx, dy = r * np.cos(angle), r * np.sin(angle)
        yield (float(cx - dx), float(cy - dy)), (float(cx + dx), float(cy + dy))


@pytest.mark.parametrize("pattern_id", ["HS64", "HS32", "HS16"])
def test_downscaled_hs_pattern_equals_the_full_window_path(pattern_id):
    # prepare_pattern samples only the HS pixels downscale reads
    rng = np.random.default_rng(15)
    size = PATTERN_VARIANTS[pattern_id][1]
    noises = (None, NoiseSpec("gaussian", 0.05, seed=6),
              NoiseSpec("motion", 5))
    for i, (el, er) in enumerate(_poses(rng, 210, (140, 120))):
        img = rng.integers(0, 256, (140, 120), dtype=np.uint8)
        if i < 3:  # eyes on the image's corner pixel and on its last row
            el, er = ((0.0, 0.0), (26.0, 0.0)) if i == 0 else ((i * 4.0, 139.0), (119.0, 139.0))
        noise = noises[i % 3]
        want = downscale(normalize_pattern(img, el, er, HS_PATTERN), size, size)
        if noise is not None:
            want = add_noise(want, noise)
        assert oracles.same_bits(prepare_pattern(img, el, er, pattern_id, noise), want), (el, er)


def test_read_sets_are_cached_read_only_and_what_downscale_reads():
    for size, count in ((64, 16384), (32, 4096), (16, 1024)):
        read = geometry._read_set(159, 155, size)
        assert geometry._read_set(159, 155, size) is read
        index, xs, ys = read
        assert len(index) == count and not any(a.flags.writeable for a in read)
        assert np.array_equal(index, ys.astype(np.int64) * 159 + xs.astype(np.int64))
        # a window that is zero off the read set downscales to the same bytes
        window = np.random.default_rng(size).integers(0, 256, 155 * 159, dtype=np.uint8)
        masked = np.zeros_like(window)
        masked[index] = window[index]
        assert np.array_equal(downscale(masked.reshape(155, 159), size, size),
                              downscale(window.reshape(155, 159), size, size))
        window[index] = 0
        assert not downscale(window.reshape(155, 159), size, size).any()


def test_first_hs64_prepare_imports_nothing(tmp_path):
    # np.unique's first call imports numpy.ma: about 1.6 MB resident in every
    # worker. Each stage's first call, in a fresh process, imports no module.
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from facestack.descriptors import DESCRIPTOR_IDS, extract_descriptor\n"
        "from facestack.geometry import prepare_pattern\n"
        "from facestack.synth import synth_corpus\n"
        "img = np.random.default_rng(0).integers(0, 256, (120, 100), dtype=np.uint8)\n"
        "def new(call):\n"
        "    before = set(sys.modules)\n"
        "    call()\n"
        "    return sorted(set(sys.modules) - before)\n"
        "stages = {'prepare': new(lambda: prepare_pattern(img, (40.0, 50.0), (62.0, 53.0),"
        " 'HS64')),\n"
        "          'synth': new(lambda: synth_corpus(sys.argv[1], 1, seed=0))}\n"
        "pat = prepare_pattern(img, (40.0, 50.0), (62.0, 53.0), 'F')\n"
        "for d in DESCRIPTOR_IDS:\n"
        "    stages[d] = new(lambda: extract_descriptor(pat, d))\n"
        "print(json.dumps(stages))\n")
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert len(stages) == 12  # prepare, synth and the 10 descriptors
    assert stages == {name: [] for name in stages}


def test_eval_kfold_leaves_numpy_ma_unimported(tmp_path):
    # eval checks that both classes are present without np.unique, whose first
    # call imports numpy.ma; in a fresh process, neither a one-stage grid
    # search nor a five-stage stack imports it
    script = (
        "import json, sys\n"
        "from facestack.cli import main\n"
        "d = sys.argv[1]\n"
        "def run(*argv):\n"
        "    assert main(list(argv)) == 0\n"
        "    return 'numpy.ma' in sys.modules\n"
        "loaded = {'synth': run('--out', d + '/c', 'synth', '--per-class', '8'),\n"
        "          'prepare': run('--out', d + '/p', 'prepare', '--manifest',"
        " d + '/c/manifest.csv', '--pattern', 'F')}\n"
        "for desc in ('hog', 'losib'):\n"
        "    loaded[desc] = run('--out', f'{d}/{desc}.fsfm', 'extract', '--manifest',"
        " d + '/p/manifest.csv', '--descriptor', desc)\n"
        "ev = ['eval', 'kfold', '--manifest', d + '/c/manifest.csv']\n"
        "loaded['grid'] = run('--out', d + '/e1', *ev, f'--stage=C1={d}/hog.fsfm', '--grid')\n"
        "stages = [f'--stage={s}={d}/{f}.fsfm' for s, f in"
        " [('C1', 'hog'), ('C4', 'losib'), ('a', 'hog'), ('b', 'losib'), ('c', 'hog')]]\n"
        "loaded['stack5'] = run('--out', d + '/e5', *ev, *stages)\n"
        "print(json.dumps(loaded))\n")
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {name: False for name in
                      ("synth", "prepare", "hog", "losib", "grid", "stack5")}


def test_downscale_matches_masked_sampler_and_builds_its_grid_once():
    rng = np.random.default_rng(13)
    for (h, w), (th, tw) in (((155, 159), (64, 64)), ((155, 159), (32, 32)),
                             ((155, 159), (16, 16)), ((7, 5), (3, 4)), ((3, 4), (6, 9))):
        img = rng.integers(0, 256, (h, w), dtype=np.uint8)
        xs = np.clip((np.arange(tw) + 0.5) * (w / tw) - 0.5, 0.0, w - 1.0)
        ys = np.clip((np.arange(th) + 0.5) * (h / th) - 0.5, 0.0, h - 1.0)
        want = oracles.ref_bilinear_sample(img.astype(np.float64), *np.meshgrid(xs, ys))
        assert oracles.same_bits(downscale(img, tw, th), np.clip(np.floor(want + 0.5), 0, 255)
                                 .astype(np.uint8))
    resample = geometry._resample_grid(159, 155, 64, 64)
    assert geometry._resample_grid(159, 155, 64, 64) is resample
    grid = geometry._pixel_grid(59, 65)
    assert geometry._pixel_grid(59, 65) is grid
    gx, gy, corners = resample
    assert not any(a.flags.writeable for a in (*grid, gx, gy, *(a for c in corners for a in c)))


def test_noise_spec_validation():
    with pytest.raises(ConfigurationError):
        NoiseSpec("speckle", 0.0)
    with pytest.raises(ConfigurationError):
        NoiseSpec("motion_blur", 7)  # the kinds are the CLI's --noise names
    with pytest.raises(ConfigurationError):
        NoiseSpec("gaussian", 0.2)
    with pytest.raises(ConfigurationError):
        NoiseSpec("motion", 4)
    with pytest.raises(ConfigurationError):
        NoiseSpec("motion", 23)
    for level in (7.5, 3.000001):  # a length is a whole number of pixels
        with pytest.raises(ConfigurationError, match="must be odd and in"):
            NoiseSpec("motion", level)


def test_gaussian_noise_seeded():
    img = np.full((30, 30), 128, dtype=np.uint8)
    spec = NoiseSpec("gaussian", 0.05, seed=9)
    a = add_noise(img, spec)
    b = add_noise(img, spec)
    assert np.array_equal(a, b)
    c = add_noise(img, NoiseSpec("gaussian", 0.05, seed=10))
    assert not np.array_equal(a, c)
    assert float(np.mean(a)) == pytest.approx(128, abs=4)


def test_gaussian_zero_variance_is_identity():
    img = np.arange(256, dtype=np.uint8).reshape(16, 16)  # every gray level
    out = add_noise(img, NoiseSpec("gaussian", 0.0))
    assert np.array_equal(out, img)
    assert out is not img


def test_gaussian_noise_std_matches_clipped_oracle():
    # variance 0.1 on constant 128: clipping at [0,1] shrinks the observed
    # spread, so compare against a direct simulation of the same clamp
    img = np.full((400, 400), 128, dtype=np.uint8)
    out = add_noise(img, NoiseSpec("gaussian", 0.1, seed=3))
    got = float(np.std(out / 255.0))

    rng = np.random.default_rng(123)
    sim = np.clip(128 / 255.0 + rng.normal(0, np.sqrt(0.1), 1_000_000), 0.0, 1.0)
    assert got == pytest.approx(float(np.std(sim)), rel=0.05)


def test_motion_blur_box_window():
    img = np.zeros((2, 5), dtype=np.uint8)
    img[:, 2] = 255
    out = add_noise(img, NoiseSpec("motion", 3))
    assert out.tolist() == [[0, 85, 85, 85, 0]] * 2


def test_motion_length_of_integral_float_blurs_as_its_int():
    img = np.random.default_rng(4).integers(0, 256, (6, 20), dtype=np.uint8)
    assert oracles.same_bits(add_noise(img, NoiseSpec("motion", 7.0)),
                             add_noise(img, NoiseSpec("motion", 7)))


def test_motion_blur_constant_unchanged():
    img = np.full((4, 9), 77, dtype=np.uint8)
    out = add_noise(img, NoiseSpec("motion", 7))
    assert np.array_equal(out, img)


def test_motion_blur_length_one_identity():
    img = np.arange(256, dtype=np.uint8).reshape(16, 16)  # every gray level
    out = add_noise(img, NoiseSpec("motion", 1))
    assert np.array_equal(out, img)
    assert out is not img


def test_prepare_pattern_variants():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (300, 300), dtype=np.uint8)
    eyes = ((120.0, 140.0), (172.0, 140.0))
    shapes = {"F": (65, 59), "HS": (155, 159), "HS64": (64, 64),
              "HS32": (32, 32), "HS16": (16, 16)}
    for pid, shape in shapes.items():
        assert prepare_pattern(img, *eyes, pid).shape == shape
    with pytest.raises(ConfigurationError):
        prepare_pattern(img, *eyes, "HS8")


def test_prepare_pattern_noise_routing():
    img = np.full((300, 300), 128, dtype=np.uint8)
    eyes = ((120.0, 140.0), (172.0, 140.0))
    clean = prepare_pattern(img, *eyes, "F")
    noisy = prepare_pattern(img, *eyes, "F",
                            noise=NoiseSpec("gaussian", 0.05, seed=1))
    assert not np.array_equal(clean, noisy)
    blurred = prepare_pattern(img, *eyes, "F",
                              noise=NoiseSpec("motion", 9))
    assert np.array_equal(clean, blurred)  # flat field survives a box blur


def test_pattern_eyes_remap():
    assert pattern_eyes("F") == (F_PATTERN.eye_left, F_PATTERN.eye_right)
    (lx, ly), (rx, ry) = pattern_eyes("HS64")
    assert lx == pytest.approx((66.0 + 0.5) * 64 / 159 - 0.5)
    assert ly == pytest.approx((47.0 + 0.5) * 64 / 155 - 0.5)
    # inter-eye spacing shrinks by the horizontal scale factor
    assert rx - lx == pytest.approx(26.0 * 64 / 159)
    assert ry == ly


def test_pattern_variants_table():
    assert set(PATTERN_VARIANTS) == {"F", "HS", "HS64", "HS32", "HS16"}
    assert PATTERN_VARIANTS["HS32"] == (HS_PATTERN, 32)
