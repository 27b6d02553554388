import sys
import time
import types

import numpy as np
import pytest

from facestack import DataError, read_pgm, write_pgm
from facestack.pgm import load_gray


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (13, 7), dtype=np.uint8)
    p = tmp_path / "a.pgm"
    write_pgm(p, img)
    assert np.array_equal(read_pgm(p), img)


def test_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    raster = bytes(range(6))
    p.write_bytes(b"P5 # magic\n# a comment line\n 3\t2 #dims\n255\n" + raster)
    img = read_pgm(p)
    assert img.shape == (2, 3)
    assert img.tobytes() == raster


def test_rejects_wrong_magic(tmp_path):
    p = tmp_path / "p2.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(DataError):
        read_pgm(p)


def test_rejects_16bit(tmp_path):
    p = tmp_path / "deep.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataError):
        read_pgm(p)


def test_rejects_short_raster(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(DataError):
        read_pgm(p)


def test_rejects_truncated_header(tmp_path):
    p = tmp_path / "trunc.pgm"
    p.write_bytes(b"P5\n4")
    with pytest.raises(DataError):
        read_pgm(p)


def test_write_requires_uint8(tmp_path):
    with pytest.raises(DataError):
        write_pgm(tmp_path / "f.pgm", np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(DataError):
        write_pgm(tmp_path / "f.pgm", np.zeros(4, dtype=np.uint8))


def test_load_gray_reads_pgm(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    p = tmp_path / "g.pgm"
    write_pgm(p, img)
    assert np.array_equal(load_gray(p), img)


def test_load_gray_opens_each_image_once(tmp_path, monkeypatch):
    opened = []
    real_open = open

    def spy(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    p = tmp_path / "m15.pgm"
    p.write_bytes(b"P5\n2 1\n15\n" + bytes([15, 7]))
    opened.clear()
    assert load_gray(p).tolist() == [[255, 119]]
    assert opened == [str(p)]


@pytest.mark.parametrize("error", [OSError("cannot identify image file"),
                                   OSError("image file is truncated")])
def test_load_gray_reports_an_undecodable_image_as_data_error(tmp_path, monkeypatch, error):
    def open_image(path):
        raise error

    # PIL.UnidentifiedImageError and truncated files are OSErrors
    pil = types.ModuleType("PIL")
    pil.Image = types.SimpleNamespace(open=open_image)
    monkeypatch.setitem(sys.modules, "PIL", pil)
    monkeypatch.setitem(sys.modules, "PIL.Image", pil.Image)
    p = tmp_path / "face.png"
    p.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(20))
    with pytest.raises(DataError, match="face.png: cannot decode image"):
        load_gray(p)


def test_low_maxval_is_rescaled_to_full_range(tmp_path):
    p = tmp_path / "m15.pgm"
    p.write_bytes(b"P5\n2 1\n15\n" + bytes([15, 7]))
    assert read_pgm(p).tolist() == [[255, 119]]  # (v * 255 + 7) // 15
    p.write_bytes(b"P5\n2 1\n15\n" + bytes([16, 7]))
    with pytest.raises(DataError, match="sample 16 above maxval 15"):
        read_pgm(p)


def test_many_comment_lines_and_a_missing_field_fail_fast(tmp_path):
    p = tmp_path / "comments.pgm"
    p.write_bytes(b"P5\n" + b"# a comment line of some length\n" * 5000 + b"3 2\n")
    started = time.perf_counter()
    with pytest.raises(DataError, match="truncated PGM header"):
        read_pgm(p)
    assert time.perf_counter() - started < 1.0
