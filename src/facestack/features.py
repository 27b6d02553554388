"""Feature matrix container and its binary file format.

One record in the layout of `records`: header ``FSFM`` version 1, uint32
n_samples, uint32 n_dims, the descriptor id string, then row-major
little-endian float32 data.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .records import (check_end, open_binary, pack_str, read_array, read_header,
                      read_str, read_struct, write_header)

_MAGIC = b"FSFM"
_VERSION = 1


@dataclass
class FeatureMatrix:
    data: np.ndarray  # (n_samples, n_dims) float32
    descriptor_id: str

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        if not np.isfinite(self.data).all():
            raise DataError("feature matrix contains non-finite values")

    def __array__(self, dtype=None, copy=None):
        """numpy reads a FeatureMatrix as its data."""
        return np.array(self.data, dtype=dtype, copy=copy)

    @property
    def n_samples(self):
        return self.data.shape[0]

    @property
    def n_dims(self):
        return self.data.shape[1]


def save_features(fm, path):
    with open(path, "wb") as fh:
        write_header(fh, _MAGIC, _VERSION)
        fh.write(struct.pack("<II", fm.n_samples, fm.n_dims))
        fh.write(pack_str(fm.descriptor_id))
        fh.write(fm.data.tobytes())


def load_features(path):
    with open_binary(path, "feature matrix file") as fh:
        read_header(fh, path, _MAGIC, _VERSION, "feature matrix file")
        n, d = read_struct(fh, "<II", path)
        ident = read_str(fh, path)
        data = read_array(fh, "<f4", n * d, path).reshape(n, d)
        check_end(fh, path)
    try:
        return FeatureMatrix(data, ident)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None

