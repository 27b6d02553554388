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

A corpus is one rng stream that `_draws` reads sample after sample: its
stream order is the corpus's byte contract. Each core's group of samples
replays its predecessors' draws, unrendered, before rendering its own.
Each feature is painted only inside its own window of the canvas, with the
bits a paint over the whole canvas would give (see `_render`).
"""

import math
import os

import numpy as np

from . import pool
from .dataset import AGE_GROUPS, Manifest, Sample, save_manifest
from .errors import ConfigurationError
from .pgm import write_pgm

CANVAS_W = 260
CANVAS_H = 270

_EYE_HALF = 16.0       # canonical half inter-eye distance
_AGE_WEIGHTS = (0.20, 0.30, 0.30, 0.15, 0.05)  # last entry is "unknown"


class _Canvas:
    """The canvas and pixel-noise arrays that `_render` draws in, reused from
    image to image: each group of a synth_corpus call owns one."""

    def __init__(self):
        shape = (CANVAS_H, CANVAS_W)
        self.img, self.noise = np.empty(shape), np.empty(shape)


def synth_sample(rng, gender):
    """Render one sample; returns (image, eye_left, eye_right, age_group)."""
    return _render(rng, gender, _Canvas())


def _draws(rng, noise):
    """Every draw of one sample, in stream order: the pose and appearance
    scalars, the pixel noise (into the canvas-sized array noise), the age."""
    # pose: d in [28,38] keeps the HS window inside the canvas
    d = rng.uniform(28.0, 38.0)
    theta = float(np.clip(rng.normal(0.0, 0.025), -0.06, 0.06))
    mx = 130.0 + rng.uniform(-3.0, 3.0)
    my = 96.0 + rng.uniform(-3.0, 3.0)
    # per-identity appearance jitter
    bg = rng.uniform(60.0, 80.0)
    skin = rng.uniform(160.0, 180.0)
    hair_val = rng.uniform(40.0, 60.0)
    period = rng.uniform(3.5, 6.5)
    amp = rng.uniform(24.0, 36.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    rng.standard_normal(out=noise)
    age = rng.choice(AGE_GROUPS, p=_AGE_WEIGHTS)
    return d, theta, mx, my, bg, skin, hair_val, period, amp, phase, str(age)


def _render(rng, gender, cv):
    """synth_sample, drawn in the arrays of the _Canvas cv.

    A canvas pixel at offset (dx, dy) from the eye midpoint has the canonical
    coordinates xc = (ct*dx + st*dy)/s, yc = (-st*dx + ct*dy)/s. Each feature
    is a mask on them, and it is painted only inside a window: its canonical
    bounding box mapped through the pose, padded by 2 px and clipped to the
    canvas. The shoulders and the female side hair have one window each; the
    face window holds the face, hair cap, stripes, eyes and mouth. A mask is
    false off its window, whose padding far exceeds the rounding of xc and
    yc, and every operation is elementwise, so the canvas has the bits of one
    painted over every pixel; the stripe pixels that np.sin reads are even
    gathered in the same order, row by row.
    """
    d, theta, mx, my, bg, skin, hair_val, period, amp, phase, age = _draws(rng, cv.noise)
    s = d / (2.0 * _EYE_HALF)
    ct, st = math.cos(theta), math.sin(theta)
    dx = np.arange(CANVAS_W, dtype=np.float64) - mx
    dy = np.arange(CANVAS_H, dtype=np.float64)[:, None] - my
    img = cv.img

    def window(x0, y0, x1, y1):
        """The canvas window over the canonical box [x0, x1] x [y0, y1], as a
        view, and the canonical coordinates xc, yc of its pixels."""
        xs = [mx + s * (ct * x - st * y) for x in (x0, x1) for y in (y0, y1)]
        ys = [my + s * (st * x + ct * y) for x in (x0, x1) for y in (y0, y1)]
        rows = slice(max(math.floor(min(ys)) - 2, 0), min(math.ceil(max(ys)) + 3, CANVAS_H))
        cols = slice(max(math.floor(min(xs)) - 2, 0), min(math.ceil(max(xs)) + 3, CANVAS_W))
        wdx, wdy = dx[cols], dy[rows]
        return img[rows, cols], (ct * wdx + st * wdy) / s, (-st * wdx + ct * wdy) / s

    img.fill(bg)
    half = 68.0 if gender == "female" else 85.0  # shoulders
    win, xc, yc = window(-half, 95.0, half, 160.0)
    win[(yc >= 95.0) & (yc <= 160.0) & (np.abs(xc) <= half)] = 120.0

    if gender == "female":  # side hair
        win, xc, yc = window(-74.0, -30.0, 74.0, 95.0)
        ax = np.abs(xc)
        win[(ax >= 56.0) & (ax <= 74.0) & (yc >= -30.0) & (yc <= 95.0)] = hair_val

    win, xc, yc = window(-52.0, -48.0, 52.0, 84.0)
    face = (xc / 52.0) ** 2 + ((yc - 18.0) / 66.0) ** 2 <= 1.0
    win[face] = skin
    win[face & (yc <= -26.0)] = hair_val  # hair cap

    # the class texture: stripe direction flips with gender
    band = face & (((yc >= -18.0) & (yc <= -6.0)) | ((yc >= 20.0) & (yc <= 36.0)))
    coord = yc if gender == "female" else xc
    win[band] = skin + amp * np.sin(2.0 * math.pi * coord[band] / period + phase)

    for ex in (-_EYE_HALF, _EYE_HALF):
        win[(xc - ex) ** 2 + yc ** 2 <= 3.5 ** 2] = 25.0
    win[(xc / 10.0) ** 2 + ((yc - 44.0) / 4.0) ** 2 <= 1.0] = 90.0  # mouth

    cv.noise *= 6.0
    img += cv.noise
    np.clip(img, 0.0, 255.0, out=img)
    img += 0.5  # in [0.5, 255.5]: the cast rounds half up, as _round_u8 does
    out = img.astype(np.uint8)

    eye_left = (mx - _EYE_HALF * s * ct, my - _EYE_HALF * s * st)
    eye_right = (mx + _EYE_HALF * s * ct, my + _EYE_HALF * s * st)
    return out, eye_left, eye_right, age


def synth_corpus(out_dir, n_per_class, seed=0):
    """Write a balanced corpus (PGMs + manifest.csv); returns the Manifest.

    Byte-identical for a given (n_per_class, seed), whatever the core count.
    """
    if n_per_class < 1:
        raise ConfigurationError("need at least 1 sample per class")
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)

    def render(rows):
        """A contiguous run of rows -> their Samples, PGMs written. Row r is
        sample r // 2, female then male, so any prefix stays near-balanced."""
        rng = np.random.default_rng(seed)
        canvas = _Canvas()
        for _ in range(rows[0]):
            _draws(rng, canvas.noise)
        samples = []
        for row in rows:
            gender = ("female", "male")[row % 2]
            img, el, er, age = _render(rng, gender, canvas)
            name = f"{gender[0]}{row // 2:05d}"
            path = os.path.join(img_dir, name + ".pgm")
            write_pgm(path, img)
            samples.append(Sample(
                image_path=path, identity_id=name, gender=gender, age_group=age,
                eye_left=el, eye_right=er))
        return samples

    runs = pool.map_groups(render, range(2 * n_per_class))
    manifest = Manifest(tuple(sample for run in runs for sample in run))
    save_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    return manifest
