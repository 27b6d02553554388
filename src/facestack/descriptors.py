"""Grid-histogram texture descriptors (LBP family, LOSIB) and HOG, each on
one fixed (rows, cols) cell grid, so of one width: a pattern smaller than
its grid is a ConfigurationError.

Every 8-neighbourhood coder uses the same bit order: neighbours are visited
clockwise from the top-left pixel and fill the code MSB-first, so the
top-left neighbour is bit 7 and the left neighbour is bit 0. Comparisons
are "neighbour >= reference", i.e. ties set the bit. Any fixed order is
equivalent up to a permutation of histogram bins; this one is used
everywhere, including the naive references in the test suite.

All of them read the uint8 views of `_neighbors` with exact integer
arithmetic: NILBP's mean test nb >= sum / 8 is 8*nb >= sum in int16
(sum <= 2040, so the two agree on every input), and LSP and LOSIB take
int16 neighbour - center differences, so a pixel's code or value depends
on its integer neighbourhood alone, as a HOG pixel's on its gradient pair.

Batches: `extract_descriptor`, `hog`, `losib`, `grid_histogram` and the
`*_code_map` functions take one (H, W) uint8 pattern or an (N, H, W) stack
of equal-shape patterns; a single pattern is a batch of one, and a stack
gives one row per pattern, bit-identical to extracting the patterns one at
a time. The CLI's `extract` and `noise-sweep` cut the rows into one run
per core (`pool.map_groups`), each passed in chunks of at most
`cli._CHUNK_PIXELS` pixels (32768: 8 F or HS64 patterns), which bounds
the temporaries of one call; neither cut changes the bytes.

Cell sums use one weighted `np.bincount` over `image*cells*bins + bin`
indices, the cell of each pixel read from one cached map per pattern size
and grid (`_cell_map`, which rejects a grid larger than the region).
It adds each bin's votes one by one in input order, the order of the
`np.add.at` it replaced, so the sums are bit-identical. HOG therefore
bincounts its k0 votes and then its k1 votes in one call, laid out in that
order in one (2, N, H, W) array (two bincounts added together would
re-associate the sums), and its 2x2 block normalization adds the blocks
that cover a cell in row-major block order. The naive per-pixel references
the maps are tested against live in the test suite (`tests/oracles.py`).

HOG's gradients are int16 differences of uint8 pixels, so each pixel's
bins and votes are a function of its integer pair (gx, gy) in
[-255, 255]^2 alone, and `_hog_votes` is tested on all 261,121 pairs
against the float arithmetic of the oracle (`np.hypot`, `% 180.0`,
`% n_bins`), bit for bit. The magnitude is read from a 256 x 256 table of
`np.hypot(|gx|, |gy|)` (512 KB, built on first use), not computed as
`np.sqrt(gx*gx + gy*gy)`: that differs from `np.hypot` by 1 ulp on 1,200
of the pairs.
"""

import functools

import numpy as np

from .errors import ConfigurationError

# (dx, dy) clockwise from the top-left neighbour; x right, y down
NEIGHBOR_OFFSETS = ((-1, -1), (0, -1), (1, -1), (1, 0),
                    (1, 1), (0, 1), (-1, 1), (-1, 0))

LSP_FLAT_BIN = 56
LSP_BINS = 57  # 8 max positions x 7 min positions + flat bin
U2_BINS = 59   # 58 uniform codes + 1 shared non-uniform bin


HOG_GRID = (8, 8)
HOG_BINS = 9
CODER_GRID = (5, 5)
LOSIB_GRID = (8, 8)


def _require_patterns(patterns):
    """One (H, W) or a stack of (N, H, W) uint8 patterns."""
    patterns = np.asarray(patterns)
    if patterns.ndim not in (2, 3) or patterns.dtype != np.uint8:
        raise ConfigurationError(
            "expected a 2-D uint8 grayscale image or an (N, H, W) uint8 stack")
    if patterns.size == 0:
        raise ConfigurationError(f"empty pattern input of shape {patterns.shape}")
    return patterns


def _neighbors(img):
    """The 8 neighbour views around every interior pixel, each (..., H-2, W-2)."""
    h, w = img.shape[-2:]
    if h < 3 or w < 3:
        raise ConfigurationError("image too small for 8-neighbourhood coding")
    return [img[..., 1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx] for dx, dy in NEIGHBOR_OFFSETS]


def _pack_bits(bits):
    """uint8 codes from 8 boolean neighbour bit arrays, neighbour 0 the MSB."""
    codes = np.zeros(bits[0].shape, dtype=np.uint8)
    for i, bit in enumerate(bits):
        codes |= bit.view(np.uint8) << (7 - i)
    return codes


def lbp_code_map(img):
    """8-bit LBP codes (neighbour >= center sets the bit) of all interior
    pixels, shape (..., H-2, W-2), uint8."""
    img = _require_patterns(img)
    center = img[..., 1:-1, 1:-1]
    return _pack_bits([nb >= center for nb in _neighbors(img)])


def nilbp_code_map(img):
    """LBP variant thresholding each neighbour against the neighbourhood
    mean, as the exact integer test 8 * neighbour >= sum of the 8 neighbours."""
    img = _require_patterns(img)
    nbs = _neighbors(img)
    total = np.sum(nbs, axis=0, dtype=np.int16)
    return _pack_bits([np.multiply(nb, 8, dtype=np.int16) >= total for nb in nbs])


def lsp_code_map(img, t=0):
    """Salient-position codes: where the largest positive and negative
    center differences sit in each interior pixel's neighbourhood.

    With d_i = neighbour_i - center (int16), the code is
    argmax(d) * 7 + rank(argmin(d)) where the rank skips the argmax slot;
    ties pick the lowest neighbour index, and the argmin is taken over the
    remaining seven slots. If max|d_i| <= t the pixel is flat (bin 56).
    """
    if t < 0:
        raise ConfigurationError("LSP threshold must be non-negative")
    img = _require_patterns(img)
    d = np.stack(_neighbors(img), dtype=np.int16)
    d -= img[..., 1:-1, 1:-1]
    flat = np.abs(d).max(axis=0) <= t
    imax = d.argmax(axis=0)  # first maximum = lowest index
    # the first minimum of all eight is the argmax slot only where all eight
    # are equal; both are slot 0 there, code 0, as with slot 1 of the seven
    imin = d.argmin(axis=0)
    codes = imax * 7 + imin - (imin > imax)
    codes[flat] = LSP_FLAT_BIN
    return codes


def _build_u2_table():
    """Bin of each 8-bit code: codes with at most 2 circular bit transitions
    get bins 0..57 in ascending code order, the rest share bin 58."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    uniform = (bits != np.roll(bits, -1, axis=1)).sum(axis=1) <= 2
    table = np.full(256, U2_BINS - 1, dtype=np.int64)
    table[uniform] = np.arange(U2_BINS - 1)  # raises unless 58 codes are uniform
    return table


U2_TABLE = _build_u2_table()


def _cell_index(n, parts):
    """Cell index per coordinate for a near-equal split of n into parts."""
    base, rem = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:rem] += 1
    return np.repeat(np.arange(parts), sizes)


@functools.lru_cache(maxsize=8)
def _cell_map(h, w, grid):
    """Row-major grid cell of every pixel of an h x w image, read-only (h, w)."""
    rows, cols = grid
    if h < rows or w < cols:
        raise ConfigurationError(f"{w}x{h} pixels too small for a {cols}x{rows} grid")
    cell = _cell_index(h, rows)[:, None] * cols + _cell_index(w, cols)[None, :]
    cell.flags.writeable = False
    return cell


def _cell_ids(n, h, w, grid):
    """Bincount slot image*cells + cell of every pixel of n h x w images, shape (n, h, w)."""
    return np.arange(n)[:, None, None] * (grid[0] * grid[1]) + _cell_map(h, w, grid)


def grid_histogram(img, code_map_fn, n_bins):
    """Concatenated per-cell histograms of a neighbourhood coder.

    The interior pixel region (all 8 neighbours in bounds) splits into the
    5 x 5 near-equal cells of CODER_GRID; each cell histogram is L1
    normalized (an empty cell stays all-zero) and cells concatenate
    row-major. One row per pattern of a stack.
    """
    img = _require_patterns(img)
    codes = code_map_fn(img)
    h, w = codes.shape[-2:]
    codes = codes.reshape(-1, h, w)
    n = len(codes)
    flat = _cell_ids(n, h, w, CODER_GRID) * n_bins + codes
    hist = np.bincount(flat.ravel(), minlength=n * CODER_GRID[0] * CODER_GRID[1] * n_bins)
    hist = hist.reshape(n, -1, n_bins).astype(np.float64)
    sums = hist.sum(axis=2, keepdims=True)
    np.divide(hist, sums, out=hist, where=sums > 0)
    return hist.reshape(img.shape[:-2] + (-1,))


@functools.cache
def _hypot_table():
    """np.hypot(|gx|, |gy|) for |gx|, |gy| in 0..255, read-only 256 x 256 (512 KB).

    C Annex F makes hypot(x, y) equal hypot(y, x) and hypot(x, -y), so
    one quadrant covers every integer gradient pair."""
    a = np.arange(256, dtype=np.float64)
    table = np.hypot(a[:, None], a[None, :])
    table.flags.writeable = False
    return table


_NEXT_BIN = np.roll(np.arange(HOG_BINS), -1)  # k1 = k0 + 1, bin 8 wraps to bin 0


def _hog_votes(gx, gy):
    """Orientation bins and magnitude votes of integer gradients in [-255, 255]:
    bins (2, ...) intp, k0 then k1, and votes (2, ...) float64,
    mag * (1 - w1) then mag * w1, the outputs doubling as scratch.

    The angle in [-180, 180] folds onto [0, 180) as `% 180.0` does: add 180
    below 0, then subtract 180 at 180 (adding 0.0 keeps the other bits, and
    -0.0 never occurs). It peaks at 179.775 degrees, so only k1 wraps.
    """
    bins = np.empty((2,) + gx.shape, dtype=np.intp)
    votes = np.empty(bins.shape, dtype=np.float64)
    mag, frac = votes
    index = np.abs(gx, out=bins[1], casting="safe")
    index <<= 8
    index |= np.abs(gy)
    # the index is in range by construction; mode="raise" would buffer the output
    _hypot_table().take(index, out=mag, mode="clip")
    ang = np.arctan2(gy, gx, dtype=np.float64)
    np.degrees(ang, out=ang)
    ang += 180.0 * (ang < 0.0)
    ang -= 180.0 * (ang >= 180.0)
    pos = np.divide(ang, 180.0 / HOG_BINS, out=ang)
    low = np.floor(pos, out=frac)
    bins[0] = low
    _NEXT_BIN.take(bins[0], out=bins[1], mode="clip")
    w1 = np.subtract(pos, low, out=frac)
    w0 = np.subtract(1.0, w1, out=pos)
    np.multiply(mag, w1, out=votes[1])
    np.multiply(mag, w0, out=votes[0])
    return bins, votes


def _central_diff(img, axis):
    """int16 central differences along an axis, one-sided at its two ends."""
    grad = np.empty(img.shape, dtype=np.int16)
    src, dst = np.moveaxis(img, axis, -1), np.moveaxis(grad, axis, -1)
    np.subtract(src[..., 2:], src[..., :-2], out=dst[..., 1:-1], dtype=np.int16)
    np.subtract(src[..., 1], src[..., 0], out=dst[..., 0], dtype=np.int16)
    np.subtract(src[..., -1], src[..., -2], out=dst[..., -1], dtype=np.int16)
    return grad


def hog(img):
    """Histogram of oriented gradients over the 8 x 8 cells of HOG_GRID.

    Central-difference gradients with replicated borders; unsigned
    orientation on [0, 180) with magnitude votes split linearly between the
    two nearest of HOG_BINS bins; per-cell histograms are divided by the L2
    norm of each 2x2 cell block containing the cell (1e-6 under the root)
    and the normalized copies averaged. Output length 8*8*HOG_BINS = 576,
    one row per pattern of a stack.
    """
    img = _require_patterns(img)
    h, w = img.shape[-2:]
    if h < 2 or w < 2:  # no gradients; larger patterns below the grid fail at `_cell_map`
        raise ConfigurationError("image too small for gradients")
    rows, cols = HOG_GRID
    p = img.reshape(-1, h, w)
    n = len(p)
    bins, votes = _hog_votes(_central_diff(p, 2), _central_diff(p, 1))

    # every k0 vote, then every k1 vote, in one call: each bin's sum then
    # adds its votes in the order np.add.at did
    slots = _cell_ids(n, h, w, HOG_GRID)
    slots *= HOG_BINS
    bins += slots
    hist = np.bincount(bins.ravel(), votes.ravel(), minlength=n * rows * cols * HOG_BINS)
    hist = hist.reshape(n, rows, cols, HOG_BINS)

    sq = (hist * hist).sum(axis=3)
    block_ss = sq[:, :-1, :-1] + sq[:, 1:, :-1] + sq[:, :-1, 1:] + sq[:, 1:, 1:]
    norms = np.sqrt(block_ss + 1e-6)[..., None]
    out = np.zeros_like(hist)
    counts = np.zeros((rows, cols, 1), dtype=np.float64)
    # block (bi, bj) covers cells (bi..bi+1, bj..bj+1); a cell adds its
    # blocks in row-major block order: (r-1, c-1), (r-1, c), (r, c-1), (r, c)
    for dr, dc in ((1, 1), (1, 0), (0, 1), (0, 0)):
        cells = (slice(dr, rows - 1 + dr), slice(dc, cols - 1 + dc))
        out[:, cells[0], cells[1]] += hist[:, cells[0], cells[1]] / norms
        counts[cells] += 1.0
    out /= counts
    return out.reshape(img.shape[:-2] + (-1,))


def losib(img):
    """Per-orientation mean absolute gray difference, gridded.

    For each of the 8 radius-1 orientations (same order as the LBP bits)
    and each of the 8 x 8 cells of LOSIB_GRID over the interior region, the
    mean of |neighbour - center| / 255. Output is cell-major then
    orientation: 8*8*8 = 512 values, one row per pattern of a stack.
    """
    img = _require_patterns(img)
    nbs = _neighbors(img)
    center = img[..., 1:-1, 1:-1]
    h, w = center.shape[-2:]
    n = center.size // (h * w)
    cell = _cell_ids(n, h, w, LOSIB_GRID).ravel()
    slots = n * LOSIB_GRID[0] * LOSIB_GRID[1]
    diffs = (np.abs(np.subtract(nb, center, dtype=np.int16)) / 255.0 for nb in nbs)
    acc = np.stack([np.bincount(cell, d.ravel(), minlength=slots) for d in diffs], axis=1)
    counts = np.bincount(cell, minlength=slots).astype(np.float64)
    return (acc / counts[:, None]).reshape(img.shape[:-2] + (-1,))


def _raw(img):
    return img.reshape(img.shape[:-2] + (-1,)).astype(np.float64) / 255.0


_EXTRACTORS = {
    "hog": hog,
    "lbp": lambda img: grid_histogram(img, lbp_code_map, 256),
    "lbpu2": lambda img: grid_histogram(img, lambda im: U2_TABLE[lbp_code_map(im)], U2_BINS),
    "nilbp": lambda img: grid_histogram(img, nilbp_code_map, 256),
    "nilbpu2": lambda img: grid_histogram(img, lambda im: U2_TABLE[nilbp_code_map(im)], U2_BINS),
    "lsp0": lambda img: grid_histogram(img, lambda im: lsp_code_map(im, 0), LSP_BINS),
    "lsp1": lambda img: grid_histogram(img, lambda im: lsp_code_map(im, 1), LSP_BINS),
    "lsp2": lambda img: grid_histogram(img, lambda im: lsp_code_map(im, 2), LSP_BINS),
    "losib": losib,
    "raw": _raw,
}

DESCRIPTOR_IDS = tuple(sorted(_EXTRACTORS))


def extract_descriptor(patterns, descriptor_id):
    """Run one named descriptor on a pattern (H, W) -> (D,) or a stack (N, H, W) -> (N, D)."""
    try:
        fn = _EXTRACTORS[descriptor_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown descriptor {descriptor_id!r}; choose from {', '.join(DESCRIPTOR_IDS)}") from None
    return fn(_require_patterns(patterns))
