"""File primitives: binary records for the .fsfm, .fsvm and .fstk formats,
and the UTF-8 reader behind the CSV formats.

Every record opens with a 4-byte magic and a little-endian uint32 format
version. Counts are little-endian uint32, strings a uint32 byte length
followed by that many UTF-8 bytes, and arrays raw little-endian rows.
Records are self-delimiting, so a file may hold several back to back; a
file ends exactly where its last record does. Any short read, wrong magic,
unknown version, bad UTF-8 or trailing byte raises DataError naming the
file. `open_binary` opens a record file and `read_text` a CSV input; both
turn a missing or unreadable file into DataError as well, and `read_text`
a non-UTF-8 one.
"""

import io
import struct

import numpy as np

from .errors import DataError, ParseError

_CHUNK = 1 << 20  # read large fields piecewise: a corrupt length must not allocate


def write_header(fh, magic, version):
    fh.write(magic + struct.pack("<I", version))


def read_header(fh, path, magic, version, what):
    """Consume and check a record header; `what` names the format in errors."""
    if read_exact(fh, len(magic), path) != magic:
        raise DataError(f"{path}: not a {what}")
    (found,) = read_struct(fh, "<I", path)
    if found != version:
        raise DataError(f"{path}: unsupported {what} version {found}")


def read_exact(fh, n, path):
    parts = []
    while n > 0:
        part = fh.read(min(n, _CHUNK))
        if not part:
            raise DataError(f"{path}: truncated record")
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def read_struct(fh, fmt, path):
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), path))


def read_array(fh, dtype, count, path):
    dtype = np.dtype(dtype)
    return np.frombuffer(read_exact(fh, dtype.itemsize * count, path), dtype=dtype).copy()


def pack_str(s):
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def read_str(fh, path):
    (n,) = read_struct(fh, "<I", path)
    try:
        return read_exact(fh, n, path).decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: string field is not UTF-8") from None


def check_end(fh, path):
    if fh.read(1):
        raise DataError(f"{path}: trailing bytes after the last record")


def open_binary(path, what):
    """The file at path opened for binary reading; `what` names it in errors."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def read_text(path, what):
    """The UTF-8 file at path as a text stream that keeps its line endings."""
    with open_binary(path, what) as fh:
        try:
            return io.StringIO(fh.read().decode("utf-8"), newline="")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: {what} is not UTF-8 text") from None
