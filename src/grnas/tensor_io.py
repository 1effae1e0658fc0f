"""Tensor file formats for feature ingestion.

Binary format: little-endian, magic ``GRNT``, u32 rank, u32 dims[rank],
then a float32 payload in row-major order.  A plain CSV fallback covers
2-D matrices.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"GRNT"


def tensor_bytes(array) -> bytes:
    """The GRNT encoding of an array (float32 payload)."""
    arr = np.asarray(array, dtype="<f4", order="C")  # keeps rank 0, unlike ascontiguousarray
    header = MAGIC + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
    return header + arr.tobytes(order="C")


def write_tensor(path, array) -> None:
    """Write an array in the GRNT binary format."""
    with open(path, "wb") as fh:
        fh.write(tensor_bytes(array))


def read_tensor(path) -> np.ndarray:
    """Read a GRNT file back as a float64 array.

    The header is checked against the file size before the payload is read,
    so a short or garbage header raises ``ValueError`` naming the file
    instead of allocating what it declares.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if size < 8:
            raise ValueError(f"{path}: truncated header, no rank field in {size} bytes")
        (rank,) = struct.unpack("<I", fh.read(4))
        header = 8 + 4 * rank
        if size < header:
            raise ValueError(
                f"{path}: truncated header, rank {rank} needs {header} bytes, file has {size}"
            )
        dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        expected = 4 * math.prod(dims)
        if size - header < expected:
            raise ValueError(f"{path}: truncated payload, dims {dims} need {expected} bytes")
        if size - header > expected:
            raise ValueError(f"{path}: trailing bytes after payload")
        payload = fh.read(expected)
    return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)


def write_tensor_csv(path, matrix) -> None:
    """CSV fallback for 2-D matrices, one row per line."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"CSV tensor fallback is 2-D only, got shape {arr.shape}")
    with open(path, "w") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_tensor_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty CSV tensor")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged CSV rows")
    return np.asarray(rows, dtype=np.float64)
