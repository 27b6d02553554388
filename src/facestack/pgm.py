"""Binary PGM (P5) reading and writing.

This is the only codec the pipeline requires; every fixture and every
pattern file on disk is an 8-bit P5. Other formats (PNG, JPEG) are decoded
through Pillow when it is installed, behind the same grayscale interface.
"""

import io
import re

import numpy as np

from .errors import DataError
from .records import open_binary

# four fields after whitespace or '#' comments, then one whitespace byte; a
# field never starts with '#', so the match is linear even when it fails
_HEADER = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)(?!\S)" * 4 + rb"\s")


def read_pgm(path):
    """Read a binary (P5) PGM into an HxW uint8 array; a maxval below 255 is
    rescaled to 0..255, rounding to nearest."""
    with open_binary(path, "PGM image") as fh:
        return _decode_pgm(path, fh.read())


def _decode_pgm(path, data):
    """`read_pgm` of the file at path, whose bytes are data."""
    header = _HEADER.match(data)
    if header is None:
        raise DataError(f"{path}: truncated PGM header")
    magic, *dims = header.groups()
    if magic != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {magic!r})")
    try:
        width, height, maxval = (int(f) for f in dims)
    except ValueError:
        raise DataError(f"{path}: non-numeric PGM header field") from None
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise DataError(f"{path}: unsupported PGM maxval {maxval} (8-bit only)")

    raster = data[header.end() : header.end() + width * height]
    if len(raster) != width * height:
        raise DataError(f"{path}: PGM raster short ({len(raster)} of {width * height} bytes)")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if maxval == 255:
        return img.copy()
    if img.max() > maxval:
        raise DataError(f"{path}: PGM sample {img.max()} above maxval {maxval}")
    return ((img.astype(np.uint16) * 255 + maxval // 2) // maxval).astype(np.uint8)


def write_pgm(path, img):
    """Write an HxW uint8 array as binary PGM."""
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise DataError("write_pgm expects a 2-D uint8 array")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def load_gray(path):
    """Load any supported image as grayscale uint8.

    PGM is decoded natively; anything else goes through Pillow if present.
    """
    path = str(path)
    with open_binary(path, "image") as fh:
        data = fh.read()
    if data[:2] == b"P5":
        return _decode_pgm(path, data)
    try:
        from PIL import Image
    except ImportError:
        raise DataError(
            f"{path}: only PGM (P5) is supported without Pillow installed"
        ) from None
    try:
        with Image.open(io.BytesIO(data)) as im:
            arr = np.asarray(im.convert("RGB"))
    except OSError as exc:  # PIL.UnidentifiedImageError, a truncated file, ...
        raise DataError(f"{path}: cannot decode image: {exc}") from None
    from .geometry import to_gray

    return to_gray(arr)
