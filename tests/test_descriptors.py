import itertools

import numpy as np
import pytest

import oracles
from facestack import ConfigurationError, extract_descriptor
from facestack.descriptors import (
    CODER_GRID,
    DESCRIPTOR_IDS,
    HOG_BINS,
    HOG_GRID,
    LOSIB_GRID,
    LSP_BINS,
    LSP_FLAT_BIN,
    U2_BINS,
    U2_TABLE,
    grid_histogram,
    hog,
    lbp_code_map,
    losib,
    lsp_code_map,
    nilbp_code_map,
)
from facestack.descriptors import _cell_ids, _cell_index, _cell_map, _hog_votes, _hypot_table
from facestack.geometry import PATTERN_VARIANTS, prepare_pattern
from facestack.synth import synth_sample


def _rand_images(n, h=16, w=16, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield rng.integers(0, 256, (h, w), dtype=np.uint8)


def test_lbp_matches_reference():
    for img in _rand_images(5):
        codes = lbp_code_map(img)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, oracles.ref_lbp(img))


def _extreme_stack(shape=(16, 16), seed=3):
    """Low-entropy patterns (values 0..3: the neighbourhood mean often equals
    a neighbour, and LSP's extremes tie) and 0/255 checkerboards (|d| = 255,
    neighbour sums of 0 and 2040)."""
    rng = np.random.default_rng(seed)
    low = rng.integers(0, 4, (3,) + shape, dtype=np.uint8)
    board = _checkerboard(shape)
    return np.concatenate([low, np.stack([board, 255 - board])])


def test_nilbp_matches_reference():
    images = list(_rand_images(5, seed=1)) + list(_extreme_stack())
    for img in images:
        assert np.array_equal(nilbp_code_map(img), oracles.ref_nilbp(img))
    assert np.array_equal(nilbp_code_map(np.stack(images)),
                          np.stack([nilbp_code_map(img) for img in images]))


def test_lsp_matches_reference():
    for t in (0, 1, 2):
        images = list(_rand_images(4, seed=10 + t)) + list(_extreme_stack(seed=t))
        for img in images:
            codes = lsp_code_map(img, t)
            assert codes.dtype == np.intp
            assert np.array_equal(codes, oracles.ref_lsp(img, t))
        assert oracles.same_bits(lsp_code_map(np.stack(images), t),
                                 np.stack([lsp_code_map(img, t) for img in images]))
    # every 3x3 neighbourhood of the levels 0..2: each way the extremes can tie
    every = np.array(list(itertools.product(range(3), repeat=9)), dtype=np.uint8)
    every = every.reshape(-1, 3, 3)
    for t in (0, 1):
        want = np.stack([oracles.ref_lsp(p, t) for p in every])
        assert np.array_equal(lsp_code_map(every, t), want)


def test_u2_table():
    ref = oracles.ref_u2_map()
    assert np.array_equal(U2_TABLE, ref)
    assert U2_TABLE.max() == 58  # 58 uniform codes, one spill bin
    assert (U2_TABLE < 58).sum() == 58
    assert U2_BINS == 59


def test_coders_reject_border_pixels():
    # in a 2-row or 2-column pattern every pixel is on the border
    for shape in ((2, 5), (5, 2), (3, 2, 9)):
        img = np.zeros(shape, dtype=np.uint8)
        for coder in (lbp_code_map, nilbp_code_map, lsp_code_map):
            with pytest.raises(ConfigurationError, match="too small"):
                coder(img)


def test_lbp_bit_order():
    # only the top-left neighbour >= center: that's bit 7
    patch = np.array([[9, 0, 0], [0, 5, 0], [0, 0, 0]], dtype=np.uint8)
    assert lbp_code_map(patch)[0, 0] == 0b10000000
    # only the west neighbour: last offset, bit 0
    patch = np.array([[0, 0, 0], [9, 5, 0], [0, 0, 0]], dtype=np.uint8)
    assert lbp_code_map(patch)[0, 0] == 0b00000001


def test_lsp_flat_and_argmax():
    assert lsp_code_map(np.full((3, 3), 80, dtype=np.uint8), 0)[0, 0] == LSP_FLAT_BIN
    # one clear max (north, index 1) and min (west, index 7)
    patch = np.array([[5, 9, 5], [1, 5, 5], [5, 5, 5]], dtype=np.uint8)
    assert lsp_code_map(patch, 0)[0, 0] == 1 * 7 + (7 - 1)
    # eight equal differences, not flat: max at slot 0, min at slot 1
    patch = np.array([[9, 9, 9], [9, 5, 9], [9, 9, 9]], dtype=np.uint8)
    assert lsp_code_map(patch, 0)[0, 0] == 0
    assert LSP_BINS == 57


def test_lsp_threshold_window():
    patch = np.array([[5, 7, 5], [3, 5, 5], [5, 5, 5]], dtype=np.uint8)
    assert lsp_code_map(patch, 2)[0, 0] == LSP_FLAT_BIN  # max |diff| == 2 <= t
    assert lsp_code_map(patch, 1)[0, 0] != LSP_FLAT_BIN


def test_cell_index_near_equal_split():
    idx = _cell_index(63, 5)
    sizes = np.bincount(idx)
    assert sizes.tolist() == [13, 13, 13, 12, 12]
    assert _cell_index(10, 5).tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_cell_map_is_one_shared_read_only_array():
    grid = (3, 5)
    cell = _cell_map(13, 11, grid)
    assert cell is _cell_map(13, 11, grid)
    assert not cell.flags.writeable
    assert np.array_equal(cell, _cell_index(13, 3)[:, None] * 5 + _cell_index(11, 5)[None, :])
    assert np.array_equal(_cell_ids(2, 13, 11, grid), np.stack([cell, cell + 15]))


def test_grid_histogram_matches_reference():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (30, 26), dtype=np.uint8)
    got = grid_histogram(img, lbp_code_map, 256)
    want = oracles.ref_grid_hist(oracles.ref_lbp(img), 256, *CODER_GRID)
    np.testing.assert_allclose(got, want, atol=1e-12)
    # per-cell L1 normalization
    per_cell = got.reshape(25, 256).sum(axis=1)
    np.testing.assert_allclose(per_cell, 1.0, atol=1e-12)


def test_grid_histogram_small_interior_rejected():
    img = np.zeros((5, 5), dtype=np.uint8)  # interior 3x3 cannot host 5x5 cells
    with pytest.raises(ConfigurationError):
        grid_histogram(img, lbp_code_map, 256)
    # one row or one column short: hog's 8x8 cells cover the whole pattern,
    # losib's its interior, so 8x8 and 10x10 are the smallest they take
    for fn, side, per_cell in ((hog, 8, HOG_BINS), (losib, 10, 8)):
        for shape in ((side - 1, side), (side, side - 1)):
            with pytest.raises(ConfigurationError, match="too small"):
                fn(np.zeros(shape, dtype=np.uint8))
        assert fn(np.zeros((side, side), dtype=np.uint8)).shape == (64 * per_cell,)


def test_hog_constant_is_zero():
    img = np.full((65, 59), 131, dtype=np.uint8)
    assert not hog(img).any()


def test_hog_vertical_edge_single_bin():
    img = np.zeros((40, 40), dtype=np.uint8)
    img[:, 20:] = 200
    h = hog(img).reshape(HOG_GRID[0] * HOG_GRID[1], 9)
    active = h.sum(axis=1) > 0
    assert active.any()
    # horizontal gradient = 0 degrees = bin 0, nothing anywhere else
    assert np.allclose(h[:, 1:], 0.0)
    assert (h[active, 0] > 0).all()


def test_hog_dims():
    assert hog(np.zeros((65, 59), dtype=np.uint8)).shape == (576,)
    assert HOG_GRID == (8, 8)


def test_losib_constant_is_zero():
    assert not losib(np.full((64, 64), 9, dtype=np.uint8)).any()


def _checkerboard(shape):
    yy, xx = np.indices(shape)
    return np.where((yy + xx) % 2 == 0, 0, 255).astype(np.uint8)


def test_losib_checkerboard():
    v = losib(_checkerboard((34, 34))).reshape(LOSIB_GRID[0] * LOSIB_GRID[1], 8)
    # diagonal neighbours share parity with the center, axial ones differ
    np.testing.assert_allclose(v, np.tile([0, 1, 0, 1, 0, 1, 0, 1], (64, 1)), atol=1e-12)


def test_extract_descriptor_dims_on_f_pattern():
    img = next(_rand_images(1, 65, 59, seed=4))
    dims = {"hog": 576, "lbp": 6400, "lbpu2": 1475, "nilbp": 6400,
            "nilbpu2": 1475, "lsp0": 1425, "lsp1": 1425, "lsp2": 1425,
            "losib": 512, "raw": 3835}
    assert set(DESCRIPTOR_IDS) == set(dims)
    for did, d in dims.items():
        vec = extract_descriptor(img, did)
        assert vec.shape == (d,), did
        assert np.isfinite(vec).all()


def test_extract_descriptor_unknown_id():
    with pytest.raises(ConfigurationError):
        extract_descriptor(np.zeros((65, 59), dtype=np.uint8), "sift")


def test_raw_is_scaled_flatten():
    img = next(_rand_images(1, 65, 59, seed=8))
    vec = extract_descriptor(img, "raw")
    np.testing.assert_allclose(vec, img.astype(np.float64).ravel() / 255.0)


def test_coder_histograms_shift_invariant():
    rng = np.random.default_rng(9)
    img = rng.integers(0, 246, (65, 59), dtype=np.uint8)  # +10 cannot clip
    shifted = (img + 10).astype(np.uint8)
    for did in ("lbp", "lbpu2", "nilbp", "lsp0", "lsp1"):
        np.testing.assert_array_equal(
            extract_descriptor(img, did), extract_descriptor(shifted, did))


def test_hog_scale_invariant():
    rng = np.random.default_rng(10)
    img = (2 * rng.integers(0, 128, (65, 59))).astype(np.uint8)
    half = (img // 2).astype(np.uint8)  # exact halving, no rounding loss
    np.testing.assert_allclose(hog(img), hog(half), atol=1e-6)


def _pattern_stack(shape, n=5, seed=13):
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 256, (n,) + shape, dtype=np.uint8)
    stack[1] = 128  # flat: zero gradients, all-equal neighbourhoods
    stack[2] = np.cumsum(rng.integers(0, 3, shape), axis=1) % 256  # smooth ramps
    return stack


@pytest.mark.parametrize("shape", [(3, 3), (13, 11), (65, 59), (64, 64)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("did", DESCRIPTOR_IDS)
def test_batch_equals_batches_of_one(did, shape):
    stack = _pattern_stack(shape)
    try:
        singles = [extract_descriptor(p, did) for p in stack]
    except ConfigurationError:  # 3x3 is below every grid but raw's
        with pytest.raises(ConfigurationError):
            extract_descriptor(stack, did)
        return
    batch = extract_descriptor(stack, did)
    assert batch.shape == (len(stack), len(singles[0]))
    for i, one in enumerate(singles):
        assert one.ndim == 1
        assert oracles.same_bits(batch[i], one)
        assert oracles.same_bits(extract_descriptor(stack[i : i + 1], did), one[None])


# each descriptor's width on its fixed grid; raw's is the pattern's pixel count
FIXED_WIDTHS = {"hog": 8 * 8 * HOG_BINS, "lbp": 5 * 5 * 256, "lbpu2": 5 * 5 * U2_BINS,
                "nilbp": 5 * 5 * 256, "nilbpu2": 5 * 5 * U2_BINS, "lsp0": 5 * 5 * LSP_BINS,
                "lsp1": 5 * 5 * LSP_BINS, "lsp2": 5 * 5 * LSP_BINS, "losib": 8 * 8 * 8}


@pytest.fixture(scope="module")
def prepared_stacks():
    """A stack of 4 synth faces normalised to each pattern `prepare` makes."""
    rng = np.random.default_rng(21)
    faces = [synth_sample(rng, gender)[:3] for gender in "fmfm"]
    return {pid: np.stack([prepare_pattern(img, el, er, pid) for img, el, er in faces])
            for pid in PATTERN_VARIANTS}


@pytest.mark.parametrize("pattern_id", list(PATTERN_VARIANTS))  # F, HS, HS64, HS32, HS16
@pytest.mark.parametrize("did", DESCRIPTOR_IDS)
def test_every_descriptor_has_its_fixed_width_on_every_pattern(prepared_stacks, did, pattern_id):
    stack = prepared_stacks[pattern_id]
    width = FIXED_WIDTHS.get(did, stack[0].size)
    batch = extract_descriptor(stack, did)
    assert batch.shape == (len(stack), width)
    for pattern, row in zip(stack, batch):
        assert oracles.same_bits(extract_descriptor(pattern, did), row)


@pytest.mark.parametrize("did, shape", [
    ("hog", (7, 9)), ("hog", (9, 7)), ("hog", (1, 5)), ("hog", (5, 1)),
    ("losib", (9, 9)), ("losib", (10, 9)), ("lbpu2", (6, 6)), ("nilbp", (7, 6)),
    ("lsp1", (6, 7)),
], ids=lambda v: v if isinstance(v, str) else f"{v[0]}x{v[1]}")
def test_a_pattern_smaller_than_its_grid_is_a_configuration_error(did, shape):
    for patterns in (np.zeros(shape, dtype=np.uint8), np.zeros((3,) + shape, dtype=np.uint8)):
        with pytest.raises(ConfigurationError, match="too small"):
            extract_descriptor(patterns, did)


@pytest.mark.parametrize("shape", [(0, 65, 59), (65, 0)], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("did", DESCRIPTOR_IDS)
def test_extract_descriptor_rejects_empty_input(did, shape):
    with pytest.raises(ConfigurationError, match="empty"):
        extract_descriptor(np.zeros(shape, dtype=np.uint8), did)


def test_extract_descriptor_rejects_bad_ranks_and_dtypes():
    for bad in (np.zeros((2, 2, 16, 16), dtype=np.uint8), np.zeros(16, dtype=np.uint8),
                np.zeros((2, 16, 16), dtype=np.float64)):
        with pytest.raises(ConfigurationError):
            extract_descriptor(bad, "hog")


@pytest.mark.parametrize("shape", [(13, 11), (34, 34), (65, 59), (64, 64)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_hog_and_losib_match_add_at_oracles(shape):
    # the extreme stack's 0/255 checkerboards give |g| = 255 at the borders
    stack = np.concatenate([_pattern_stack(shape, seed=15), _extreme_stack(shape)])
    want = [oracles.ref_hog(p) for p in stack]
    for got in (hog(stack), [hog(p) for p in stack]):
        assert all(oracles.same_bits(g, w) for g, w in zip(got, want))
    want = [oracles.ref_losib(p) for p in stack]
    assert all(oracles.same_bits(g, w) for g, w in zip(losib(stack), want))


def _integer_gradient_pairs():
    """Every (gx, gy) two uint8 pixel differences can make, as int16 (511, 511) grids."""
    gx, gy = np.meshgrid(np.arange(-255, 256), np.arange(-255, 256), indexing="ij")
    return gx.astype(np.int16), gy.astype(np.int16)


def test_hog_votes_equal_the_float_arithmetic_on_every_integer_gradient():
    gx, gy = _integer_gradient_pairs()
    assert gx.size == 261_121
    bins, votes = _hog_votes(gx, gy)
    # the per-pixel lines of oracles.ref_hog, on float64 gradients
    fx, fy = gx.astype(np.float64), gy.astype(np.float64)
    mag = np.hypot(fx, fy)
    ang = np.degrees(np.arctan2(fy, fx)) % 180.0
    pos = ang / (180.0 / HOG_BINS)
    k0 = np.floor(pos).astype(np.int64) % HOG_BINS
    w1 = pos - np.floor(pos)
    assert np.array_equal(bins[0], k0)
    assert np.array_equal(bins[1], (k0 + 1) % HOG_BINS)
    assert oracles.same_bits(votes[0], mag * (1.0 - w1))
    assert oracles.same_bits(votes[1], mag * w1)
    # the angle never reaches 180, so k0 never needs the wrap to bin 0
    assert ang.max() < 180.0 and round(ang.max(), 3) == 179.775
    assert np.floor(pos).max() == HOG_BINS - 1


def test_hypot_table_equals_np_hypot_on_every_integer_gradient():
    gx, gy = _integer_gradient_pairs()
    table = _hypot_table()
    assert table.shape == (256, 256) and table.nbytes == 512 * 1024
    assert not table.flags.writeable
    fx, fy = gx.astype(np.float64), gy.astype(np.float64)
    mag = np.hypot(fx, fy)
    assert oracles.same_bits(table[np.abs(gx), np.abs(gy)], mag)
    # why a table and not sqrt: the sum of squares rounds differently
    # (on 1,200 pairs with numpy 2.4 on x86-64 Linux)
    assert (np.sqrt(fx * fx + fy * fy) != mag).any()
