"""Binary container for an embedding matrix with optional class labels.

Layout, all little-endian:

    bytes 0-3    magic "EMB1"
    bytes 4-7    n rows, unsigned 32-bit
    bytes 8-11   d columns, unsigned 32-bit
    then         n*d float32 values, row-major
    optional     marker "LBL1" + n unsigned 32-bit class ids

The file size is validated exactly against the header before anything is
allocated, so truncation, trailing garbage and headers that claim more rows
than the file holds are all rejected up front. Values are float32 on disk and
float64 in memory. Both directions stream the payload in row chunks of at most
1 MiB of float32, so a read holds only its float64 result plus one chunk, and
a write holds one chunk beyond its input. A pipe, which has no size to check,
is read whole first. Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import io
import os
import stat
import struct
import tempfile

import numpy as np

from .numerics import _checked_labels, _checked_matrix, _row_blocks

__all__ = ["write_embeddings", "read_embeddings"]

_MAGIC = b"EMB1"
_LABEL_MAGIC = b"LBL1"
_HEADER = struct.Struct("<4sII")
_CHUNK_BYTES = 1 << 20  # largest float32 payload slice read or written at once


def _chunk_rows(d: int) -> int:
    return max(1, _CHUNK_BYTES // (4 * d))


def _atomic_write(path, write) -> None:
    """Call write(f) on a temp file beside path, then rename it over path."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_float32(matrix, path) -> np.ndarray:
    """The matrix through the input check, refused if float32 rounds an entry to inf."""
    m, top = _checked_matrix(matrix, "matrix")
    with np.errstate(over="ignore"):
        if np.isinf(np.float32(top)):
            raise ValueError(f"{path}: values beyond the float32 range cannot be written")
    return m


def write_embeddings(path, matrix, labels=None) -> None:
    """Serialize a matrix (and optional labels) to the EMB1 container; a value
    that is not finite in float32 is refused before any file is created."""
    _write_checked(path, _check_float32(matrix, path), labels)


def _write_checked(path, m: np.ndarray, labels=None) -> None:
    """write_embeddings of a matrix that _check_float32 has passed."""
    n, d = m.shape
    labels = _checked_labels(labels, n)
    if labels is not None and (labels.min() < 0 or labels.max() > 0xFFFFFFFF):
        raise ValueError("labels must fit in an unsigned 32-bit integer")

    def write(f):
        f.write(_HEADER.pack(_MAGIC, n, d))
        for rows in _row_blocks(n, _chunk_rows(d)):
            f.write(m[rows].astype("<f4", order="C"))
        if labels is not None:
            f.write(_LABEL_MAGIC)
            f.write(labels.astype("<u4", order="C"))

    _atomic_write(path, write)


def _read_into(f, buf, path) -> None:
    """Fill buf from f, or raise the truncation error if the file ends first."""
    raw = buf.reshape(-1).view(np.uint8)
    got = f.readinto(raw)  # a buffered file or BytesIO is short only at its end
    if got < raw.size:
        raise ValueError(f"{path}: truncated payload ({got} of {raw.size} bytes in a chunk)")


def read_embeddings(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read an EMB1 file back as (float64 matrix, labels or None)."""
    path = os.fspath(path)
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        size = st.st_size
        if not stat.S_ISREG(st.st_mode):
            # A pipe has no size to check before reading, so it is read whole.
            blob = f.read()
            f, size = io.BytesIO(blob), len(blob)
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated header ({len(head)} bytes)")
        magic, n, d = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        if n < 1 or d < 1:
            raise ValueError(f"{path}: invalid shape {n}x{d}")

        body = _HEADER.size + 4 * n * d
        with_labels = body + len(_LABEL_MAGIC) + 4 * n
        if size not in (body, with_labels):
            raise ValueError(
                f"{path}: size {size} matches neither {body} (no labels) nor {with_labels} (labels)"
            )

        matrix = np.empty((n, d))
        chunk = np.empty((min(_chunk_rows(d), n), d), dtype="<f4")
        for rows in _row_blocks(n, _chunk_rows(d)):
            dest = matrix[rows]
            part = chunk[:dest.shape[0]]
            _read_into(f, part, path)
            dest[...] = part
            # A sum of finite float32-range values cannot overflow float64, so
            # it is finite exactly when every entry is.
            if not np.isfinite(dest.sum()):
                raise ValueError(f"{path}: payload contains non-finite values")
        del chunk, part

        labels = None
        if size == with_labels:
            marker = f.read(len(_LABEL_MAGIC))
            if marker != _LABEL_MAGIC:
                raise ValueError(f"{path}: bad label marker {marker!r}")
            raw = np.empty(n, dtype="<u4")
            _read_into(f, raw, path)
            labels = raw.astype(np.int64)
    return matrix, labels
