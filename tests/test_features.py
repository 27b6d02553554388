import numpy as np
import pytest

from facestack import DataError, FeatureMatrix, load_features, save_features


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    fm = FeatureMatrix(rng.normal(0, 1, (7, 13)).astype(np.float32), "hog")
    p = tmp_path / "f.bin"
    save_features(fm, p)
    back = load_features(p)
    assert back.descriptor_id == "hog"
    assert back.n_samples == 7 and back.n_dims == 13
    assert np.array_equal(back.data, fm.data)


def test_casts_to_float32():
    fm = FeatureMatrix(np.arange(6, dtype=np.float64).reshape(2, 3), "raw")
    assert fm.data.dtype == np.float32


def test_rejects_bad_shape_and_nan():
    with pytest.raises(DataError):
        FeatureMatrix(np.zeros(5, dtype=np.float32), "x")
    bad = np.zeros((2, 2), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        FeatureMatrix(bad, "x")


def test_load_rejects_corrupt(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(DataError):
        load_features(p)
    fm = FeatureMatrix(np.zeros((2, 2), dtype=np.float32), "hog")
    save_features(fm, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-4])  # truncate the raster
    with pytest.raises(DataError):
        load_features(p)


def test_load_rejects_oversized_header_counts(tmp_path):
    # a corrupt shape field must fail as a short read, not as a huge allocation
    p = tmp_path / "f.bin"
    fm = FeatureMatrix(np.zeros((2, 2), dtype=np.float32), "hog")
    save_features(fm, p)
    blob = bytearray(p.read_bytes())
    blob[8:16] = b"\xff" * 8  # n_samples = n_dims = 2**32 - 1
    p.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="truncated"):
        load_features(p)
