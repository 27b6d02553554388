"""Pattern geometry: eye-anchored normalization, rescaling, noise injection.

A grayscale image is a 2-D uint8 numpy array indexed [row, col]; points are
(x, y) with x along columns and y along rows, pixel centers on the integer
grid. The face pattern (F) is 59x65 with the eye centers anchored at
(16, 17) and (42, 17), giving an inter-eye distance of 26 pixels. The
head-and-shoulders pattern (HS) is 159x155 at the same scale, leaving 50
pixels of context left/right of the F window, 30 above and 60 below.

Resampling reads the uint8 source directly: `_bilinear_sample` gathers the
four corners of every sample point from a copy with a 2-pixel zero border,
so there is no float64 copy of the source and no per-corner bounds mask.
The grids that do not depend on the image (a pattern's pixel centers,
`downscale`'s corners and weights, the HS pixels a downscale reads) are
built once per size. A downscaled HS pattern (HS64, HS32, HS16) samples
only the HS pixels that `downscale` reads; every pattern pixel is computed
on its own, so the others, left zero, change no output bit.

Noise is one `NoiseSpec(kind, level, seed)`: "gaussian" at a variance on the
[0,1] intensity scale, drawn from seed, or "motion" at an odd horizontal blur
length in pixels. `add_noise(img, spec)` applies it to an image, and
`prepare_pattern(..., noise=spec)` to the finished pattern.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class PatternSpec:
    width: int
    height: int
    eye_left: tuple
    eye_right: tuple

    def __post_init__(self):
        for ex, ey in (self.eye_left, self.eye_right):
            if not (0 <= ex <= self.width - 1 and 0 <= ey <= self.height - 1):
                raise ConfigurationError(f"eye target ({ex},{ey}) outside {self.width}x{self.height} pattern")
        if self.eye_left[0] >= self.eye_right[0]:
            raise ConfigurationError("left eye target must sit left of the right eye target")


F_PATTERN = PatternSpec(59, 65, (16.0, 17.0), (42.0, 17.0))
HS_PATTERN = PatternSpec(159, 155, (66.0, 47.0), (92.0, 47.0))

MAX_GAUSSIAN_VARIANCE = 0.1
MAX_MOTION_LENGTH = 21


@dataclass(frozen=True)
class NoiseSpec:
    kind: str  # "gaussian" or "motion"
    level: float  # the gaussian variance, or the odd motion blur length
    seed: int = 0

    def __post_init__(self):
        if self.kind == "gaussian":
            if not 0.0 <= self.level <= MAX_GAUSSIAN_VARIANCE:
                raise ConfigurationError(
                    f"gaussian variance {self.level} outside [0, {MAX_GAUSSIAN_VARIANCE}]")
        elif self.kind == "motion":
            if not 1 <= self.level <= MAX_MOTION_LENGTH or self.level % 2 != 1:  # odd integral
                raise ConfigurationError(
                    f"motion length {self.level} must be odd and in [1, {MAX_MOTION_LENGTH}]")
        else:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")


def _require_gray(img):
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ConfigurationError("expected a 2-D uint8 grayscale image")
    return img


def _round_u8(values):
    # round half up, clamp into the 8-bit range
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def to_gray(rgb):
    """Convert an HxWx3 RGB raster to grayscale via the Rec.601 luma weights."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ConfigurationError("expected an HxWx3 RGB raster")
    luma = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    return _round_u8(luma)


@dataclass(frozen=True)
class SimilarityTransform:
    """Rotation + uniform scale + translation: (x,y) -> (a*x - b*y + tx, b*x + a*y + ty)."""

    a: float
    b: float
    tx: float
    ty: float

    def apply(self, point):
        x, y = point
        return (self.a * x - self.b * y + self.tx, self.b * x + self.a * y + self.ty)

    def inverse(self):
        det = self.a * self.a + self.b * self.b
        ia, ib = self.a / det, -self.b / det
        itx = -(ia * self.tx - ib * self.ty)
        ity = -(ib * self.tx + ia * self.ty)
        return SimilarityTransform(ia, ib, itx, ity)


def _regular(t):
    """True if t is finite and the square of its scale neither underflows to
    0 nor overflows, so that t.inverse() divides by a positive number."""
    return 0 < t.a * t.a + t.b * t.b < math.inf and math.isfinite(t.tx) and math.isfinite(t.ty)


def eye_transform(eye_left, eye_right, spec):
    """Similarity transform taking the source eye centers onto the spec's
    targets; eyes that leave it or its inverse degenerate or not finite raise
    ConfigurationError."""
    px = eye_right[0] - eye_left[0]
    py = eye_right[1] - eye_left[1]
    qx = spec.eye_right[0] - spec.eye_left[0]
    qy = spec.eye_right[1] - spec.eye_left[1]
    # complex division (qx + i qy) / (px + i py)
    denom = px * px + py * py
    if 0 < denom < math.inf:
        a = (qx * px + qy * py) / denom
        b = (qy * px - qx * py) / denom
        tx = spec.eye_left[0] - (a * eye_left[0] - b * eye_left[1])
        ty = spec.eye_left[1] - (b * eye_left[0] + a * eye_left[1])
        t = SimilarityTransform(a, b, tx, ty)
        if _regular(t) and _regular(t.inverse()):
            return t
    raise ConfigurationError(
        f"eye coordinates {eye_left}, {eye_right} give a degenerate or infinite transform")


def _corners(shape, xs, ys):
    """The four (flat index, weight) pairs that bilinear sampling at float
    coordinates (xs, ys) reads from a raster of this shape inside a 2-pixel
    zero border: corner indices clip into [-2, w] and [-2, h], so a corner
    off the raster reads the border's zeros, and the weights and the order
    of the sums are those of a masked read."""
    h, w = shape
    x0, y0 = np.floor(xs), np.floor(ys)
    fx, fy = xs - x0, ys - y0

    # base = (y0 + 2) * stride + x0 + 2, built in place and clipped before
    # the one int cast, which is then defined for every finite coordinate
    stride = w + 4
    base = np.clip(y0, -2, h, out=y0)
    base *= stride
    base += np.clip(x0, -2, w, out=x0)
    base += 2 * stride + 2
    base = base.astype(np.int64)
    ex, ey = 1 - fx, 1 - fy
    return ((base, ex * ey), (base + 1, fx * ey), (base + stride, ex * fy),
            (base + stride + 1, fx * fy))


def _bilinear_sample(img, xs, ys, corners=None):
    """Sample img (uint8 or float) at float coordinates, zero outside the
    raster; corners, if given, are `_corners(img.shape, xs, ys)`."""
    # corners first: building them after the two copies below measured about
    # 8% slower on HS64 prepare (2-core VM), a heap-layout effect
    corners = corners or _corners(img.shape, xs, ys)
    h, w = img.shape
    padded = np.zeros((h + 4, w + 4), dtype=img.dtype)
    padded[2:-2, 2:-2] = img
    padded = padded.ravel()
    # the pipeline's images are non-negative, so no term is -0.0 and starting
    # from the first one gives the bits of adding it to zeros
    (index, weight), *rest = corners
    out = weight * padded.take(index)
    for index, weight in rest:
        out += weight * padded.take(index)
    return out


def _frozen(arrays):
    """The arrays as a tuple, each made read-only: a cache shares them."""
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


@functools.lru_cache(maxsize=8)
def _pixel_grid(width, height):
    """A width x height raster's pixel centers as (x, y) float64 arrays."""
    return _frozen(np.meshgrid(np.arange(width, dtype=np.float64),
                               np.arange(height, dtype=np.float64)))


def normalize_pattern(img, eye_left, eye_right, spec):
    """Rotate, scale and crop so the eyes land on the spec's anchor pixels.

    Bilinear sampling; source reads outside the image contribute zero.
    """
    return _pattern_pixels(img, eye_left, eye_right, spec, *_pixel_grid(spec.width, spec.height))


def _pattern_pixels(img, eye_left, eye_right, spec, xs, ys):
    """`normalize_pattern`'s pixels at the pattern pixel centers (xs, ys)."""
    img = _require_gray(img)
    inv = eye_transform(eye_left, eye_right, spec).inverse()
    sx = inv.a * xs - inv.b * ys + inv.tx
    sy = inv.b * xs + inv.a * ys + inv.ty
    return _round_u8(_bilinear_sample(img, sx, sy))


@functools.lru_cache(maxsize=8)
def _resample_grid(src_w, src_h, w, h):
    """`downscale`'s sample points from src_w x src_h to w x h and their
    `_corners`: pixel centers mapped by x_src = (x + 0.5) * src_w / w - 0.5,
    clipped to the raster."""
    xs = (np.arange(w, dtype=np.float64) + 0.5) * (src_w / w) - 0.5
    ys = (np.arange(h, dtype=np.float64) + 0.5) * (src_h / h) - 0.5
    gx, gy = np.meshgrid(np.clip(xs, 0.0, src_w - 1.0), np.clip(ys, 0.0, src_h - 1.0))
    corners = tuple(_frozen(pair) for pair in _corners((src_h, src_w), gx, gy))
    return (*_frozen((gx, gy)), corners)


@functools.lru_cache(maxsize=8)
def _read_set(src_w, src_h, size):
    """The flat indices and (x, y) centers of the src_w x src_h pixels that
    `downscale` to size x size reads. A mask finds them: np.unique's first
    call imports numpy.ma, which measured +1.6 MB resident."""
    marked = np.zeros((src_h + 4, src_w + 4), dtype=bool)
    for index, _ in _resample_grid(src_w, src_h, size, size)[2]:
        marked.ravel()[index] = True
    index = np.flatnonzero(marked[2:-2, 2:-2])
    return _frozen((index, (index % src_w).astype(np.float64), (index // src_w).astype(np.float64)))


def downscale(img, w, h):
    """Bilinear resample to w x h (pixel-center aligned, edges replicated)."""
    img = _require_gray(img)
    if w < 1 or h < 1:
        raise ConfigurationError("target size must be at least 1x1")
    src_h, src_w = img.shape
    return _round_u8(_bilinear_sample(img, *_resample_grid(src_w, src_h, w, h)))


def add_noise(img, spec):
    """img corrupted as the NoiseSpec spec says: additive Gaussian noise on
    the normalized [0,1] intensity scale, or a horizontal 1xL box blur
    (uniform weights, edges replicated)."""
    img = _require_gray(img)
    if spec.kind == "gaussian":
        rng = np.random.default_rng(spec.seed)
        noisy = img / 255.0 + rng.normal(0.0, math.sqrt(spec.level), img.shape)
        return _round_u8(np.clip(noisy, 0.0, 1.0) * 255.0)
    length = int(spec.level)
    r = length // 2
    padded = np.pad(img.astype(np.float64), ((0, 0), (r, r)), mode="edge")
    csum = np.cumsum(padded, axis=1)
    csum = np.concatenate([np.zeros((img.shape[0], 1)), csum], axis=1)
    sums = csum[:, length:] - csum[:, :-length]
    return _round_u8(sums / length)


# named pattern variants: base window plus optional square downscale
PATTERN_VARIANTS = {
    "F": (F_PATTERN, 0),
    "HS": (HS_PATTERN, 0),
    "HS64": (HS_PATTERN, 64),
    "HS32": (HS_PATTERN, 32),
    "HS16": (HS_PATTERN, 16),
}


def prepare_pattern(img, eye_left, eye_right, pattern_id, noise=None):
    """Normalize one image to a named pattern, optionally adding noise."""
    try:
        spec, size = PATTERN_VARIANTS[pattern_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown pattern {pattern_id!r}; choose from {', '.join(PATTERN_VARIANTS)}") from None
    if size:
        index, xs, ys = _read_set(spec.width, spec.height, size)
        window = np.zeros(spec.height * spec.width, dtype=np.uint8)
        window[index] = _pattern_pixels(img, eye_left, eye_right, spec, xs, ys)
        out = downscale(window.reshape(spec.height, spec.width), size, size)
    else:
        out = normalize_pattern(img, eye_left, eye_right, spec)
    if noise is not None:
        out = add_noise(out, noise)
    return out


def pattern_eyes(pattern_id):
    """Eye anchor coordinates in a named pattern's pixel frame."""
    spec, size = PATTERN_VARIANTS[pattern_id]
    if not size:
        return spec.eye_left, spec.eye_right
    # downscale maps pixel centers: x_src = (x_dst + 0.5) * src/dst - 0.5
    sx, sy = spec.width / size, spec.height / size
    remap = lambda p: ((p[0] + 0.5) / sx - 0.5, (p[1] + 0.5) / sy - 0.5)
    return remap(spec.eye_left), remap(spec.eye_right)
