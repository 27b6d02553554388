"""Procedural face-like corpus with a learnable gender signal.

Each image is a flat-shaded head over a plain background, posed by a random
similarity transform (eye distance, small rotation, translation jitter) with
the exact eye coordinates kept as ground truth. The class signal is put
where the real pipeline looks for it:

- forehead and chin bands carry a sinusoidal stripe texture, horizontal for
  the female class and vertical for the male class (drives HOG/LBP/LOSIB on
  the face window);
- the female class gets long side hair and narrower shoulders (visible only
  in the head-and-shoulders window).

Geometry is chosen so the full head-and-shoulders crop fits the canvas for
every admissible pose. Per-identity intensity/frequency/phase jitter plus
pixel noise keep the classes from being trivially separable by one pixel.
"""

import math
import os

import numpy as np

from .dataset import AGE_GROUPS, Manifest, Sample, save_manifest
from .errors import ConfigurationError
from .geometry import _round_u8
from .pgm import write_pgm

CANVAS_W = 260
CANVAS_H = 270

_EYE_HALF = 16.0       # canonical half inter-eye distance
_AGE_WEIGHTS = (0.20, 0.30, 0.30, 0.15, 0.05)  # last entry is "unknown"


class _Canvas:
    """Canvas-sized arrays that `_render` draws in, reused from image to image.

    One synth_corpus call owns one, so a corpus allocates them once, not
    about 20 canvas-sized arrays per image.
    """

    def __init__(self):
        shape = (CANVAS_H, CANVAS_W)
        self.img, self.xc, self.yc, self.t, self.u = (np.empty(shape) for _ in range(5))
        self.face, self.mask, self.m2, self.tmp = (np.empty(shape, dtype=bool)
                                                   for _ in range(4))


def _inside(v, lo, hi, out, tmp):
    """out = (v >= lo) & (v <= hi), in place."""
    np.greater_equal(v, lo, out=out)
    out &= np.less_equal(v, hi, out=tmp)
    return out


def _ellipse(cv, cx, cy, rx, ry, out):
    """out = ((xc - cx) / rx) ** 2 + ((yc - cy) / ry) ** 2 <= 1 over the
    canvas coordinates, in place."""
    t, u = cv.t, cv.u
    np.subtract(cv.xc, cx, out=t)
    t /= rx
    np.square(t, out=t)
    np.subtract(cv.yc, cy, out=u)
    u /= ry
    np.square(u, out=u)
    t += u
    return np.less_equal(t, 1.0, out=out)


def synth_sample(rng, gender):
    """Render one sample; returns (image, eye_left, eye_right, age_group)."""
    return _render(rng, gender, _Canvas())


def _render(rng, gender, cv):
    """synth_sample, drawn in the arrays of the _Canvas cv."""
    # pose: d in [28,38] keeps the HS window inside the canvas
    d = rng.uniform(28.0, 38.0)
    theta = float(np.clip(rng.normal(0.0, 0.025), -0.06, 0.06))
    mx = 130.0 + rng.uniform(-3.0, 3.0)
    my = 96.0 + rng.uniform(-3.0, 3.0)
    s = d / (2.0 * _EYE_HALF)

    # canonical coordinates of every canvas pixel (origin at eye midpoint),
    # broadcast from one row of x offsets and one column of y offsets
    dx = np.arange(CANVAS_W, dtype=np.float64) - mx
    dy = np.arange(CANVAS_H, dtype=np.float64)[:, None] - my
    ct, st = math.cos(theta), math.sin(theta)
    xc, yc, img = cv.xc, cv.yc, cv.img
    np.add(ct * dx, st * dy, out=xc)
    xc /= s
    np.add(-st * dx, ct * dy, out=yc)
    yc /= s

    # per-identity appearance jitter
    bg = rng.uniform(60.0, 80.0)
    skin = rng.uniform(160.0, 180.0)
    hair_val = rng.uniform(40.0, 60.0)
    period = rng.uniform(3.5, 6.5)
    amp = rng.uniform(24.0, 36.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)

    img.fill(bg)
    face, mask, m2, tmp = cv.face, cv.mask, cv.m2, cv.tmp
    ax = np.abs(xc, out=cv.t)

    shoulder_half = 68.0 if gender == "female" else 85.0
    _inside(yc, 95.0, 160.0, mask, tmp)
    mask &= np.less_equal(ax, shoulder_half, out=tmp)
    img[mask] = 120.0

    if gender == "female":
        _inside(ax, 56.0, 74.0, mask, tmp)
        mask &= _inside(yc, -30.0, 95.0, m2, tmp)
        img[mask] = hair_val

    _ellipse(cv, 0.0, 18.0, 52.0, 66.0, face)
    img[face] = skin

    np.less_equal(yc, -26.0, out=mask)
    mask &= face
    img[mask] = hair_val

    # the class texture: stripe direction flips with gender
    _inside(yc, -18.0, -6.0, mask, tmp)
    mask |= _inside(yc, 20.0, 36.0, m2, tmp)
    mask &= face
    coord = yc if gender == "female" else xc
    img[mask] = skin + amp * np.sin(2.0 * math.pi * coord[mask] / period + phase)

    for ex in (-_EYE_HALF, _EYE_HALF):
        t = np.subtract(xc, ex, out=cv.t)
        np.square(t, out=t)
        t += np.square(yc, out=cv.u)
        img[np.less_equal(t, 3.5 ** 2, out=mask)] = 25.0
    img[_ellipse(cv, 0.0, 44.0, 10.0, 4.0, mask)] = 90.0

    noise = rng.standard_normal(out=cv.t)
    noise *= 6.0
    img += noise
    out = _round_u8(np.clip(img, 0.0, 255.0, out=img))

    eye_left = (mx - _EYE_HALF * s * ct, my - _EYE_HALF * s * st)
    eye_right = (mx + _EYE_HALF * s * ct, my + _EYE_HALF * s * st)
    age = rng.choice(AGE_GROUPS, p=_AGE_WEIGHTS)
    return out, eye_left, eye_right, str(age)


def synth_corpus(out_dir, n_per_class, seed=0, dataset_name="synth"):
    """Write a balanced corpus (PGMs + manifest.csv); returns the Manifest.

    Byte-identical for a given (n_per_class, seed).
    """
    if n_per_class < 1:
        raise ConfigurationError("need at least 1 sample per class")
    rng = np.random.default_rng(seed)
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)
    samples = []
    canvas = _Canvas()
    # interleave so any prefix of the manifest stays near-balanced
    for i in range(n_per_class):
        for gender in ("female", "male"):
            img, el, er, age = _render(rng, gender, canvas)
            name = f"{gender[0]}{i:05d}"
            path = os.path.join(img_dir, name + ".pgm")
            write_pgm(path, img)
            samples.append(Sample(
                image_path=path, identity_id=name, gender=gender, age_group=age,
                eye_left=el, eye_right=er))
    manifest = Manifest(dataset_name=dataset_name, samples=tuple(samples))
    save_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    return manifest
