"""File formats: every file the pipeline writes, and its graph and X/Y
matrix readers.  Each writer fills a temporary file beside its target and
then moves it into place, so a failed write leaves the target untouched and
no temporary file.  Floats get 17 significant digits and read back exactly.

Measurement matrices travel either as CSV or as a raw little-endian binary
with an 8-byte magic, two uint64 dimensions, and float64 data column-major:

    bytes 0..7    magic ``RESMAT01``
    bytes 8..15   N (rows, uint64 LE)
    bytes 16..23  M (columns, uint64 LE)
    bytes 24..    N*M float64, column-major
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import struct

import numpy as np
import scipy.io
import scipy.sparse as sp

from .graphs import WeightedGraph

MATRIX_MAGIC = b"RESMAT01"


@contextlib.contextmanager
def _replacing(path, binary=False):
    """An open temporary file, named with ``path``'s extension, that
    replaces ``path`` if the block succeeds and is removed if it fails."""
    root, ext = os.path.splitext(os.fspath(path))
    tmp = f"{root}.tmp{os.getpid()}{ext}"
    try:
        with (open(tmp, "wb") if binary else
              open(tmp, "w", encoding="utf-8", newline="\n")) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_graph_mtx(path):
    """Read a symmetric weighted adjacency from Matrix Market coordinates.

    Accepts symmetric storage (either triangle) or general storage with one
    or both triangles; mirrored duplicates must agree.  Self-loops and
    non-positive weights are rejected; explicit zeros are dropped.  A
    malformed file raises ``ValueError`` naming ``path``.
    """
    try:
        return _adjacency_graph(sp.coo_matrix(scipy.io.mmread(path)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _adjacency_graph(coo):
    """The graph of a square COO adjacency, as :func:`read_graph_mtx`
    describes it."""
    if coo.shape[0] != coo.shape[1]:
        raise ValueError("adjacency must be square")
    n = coo.shape[0]
    r, c, w = coo.row, coo.col, coo.data
    nz = w != 0
    r, c, w = r[nz], c[nz], w[nz]
    if np.any(w < 0):
        raise ValueError("negative weights are not allowed")
    lo, hi = np.minimum(r, c), np.maximum(r, c)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    keys = lo.astype(np.int64) * n + hi
    _, start = np.unique(keys, return_index=True)
    # Mirrored/duplicate entries must agree; reduceat needs one group.
    if start.size:
        spread = (np.maximum.reduceat(w, start)
                  - np.minimum.reduceat(w, start))
        bad = start[spread > 1e-12 * np.maximum(1.0, np.abs(w[start]))]
        if bad.size:
            s, t = int(lo[bad[0]]), int(hi[bad[0]])
            raise ValueError(f"conflicting weights for edge ({s},{t})")
    return WeightedGraph(n, lo[start], hi[start], w[start])


def write_graph_mtx(path, g):
    """Write the adjacency in symmetric Matrix Market coordinate format."""
    with _replacing(path, binary=True) as fh:
        scipy.io.mmwrite(fh, g.adjacency(), field="real", precision=17,
                         symmetry="symmetric")


def write_matrix_binary(path, A):
    """Write a float64 matrix in the raw binary layout described above."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n, m = A.shape
    with _replacing(path, binary=True) as fh:
        fh.write(struct.pack("<8sQQ", MATRIX_MAGIC, n, m))
        fh.write(np.asfortranarray(A).tobytes(order="F"))


def read_matrix_binary(path):
    """Read a matrix in the raw binary layout described above.

    Raises ``ValueError`` naming ``path`` on a wrong magic, or when the
    header's N x M float64 values need more bytes than follow it.
    """
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) != 24 or header[:8] != MATRIX_MAGIC:
            raise ValueError(f"{path}: not a measurement matrix file")
        _, n, m = struct.unpack("<8sQQ", header)
        left = os.fstat(fh.fileno()).st_size - len(header)
        if 8 * n * m > left:
            raise ValueError(f"{path}: truncated data section: header says "
                             f"{n} x {m} float64 values ({8 * n * m} "
                             f"bytes), {left} bytes follow")
        data = np.fromfile(fh, dtype="<f8", count=n * m)
    return data.reshape((n, m), order="F")


def write_matrix_csv(path, A):
    """Write a float64 matrix as comma-separated rows, without a header."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    write_table(path, None, A.tolist())


def read_matrix_csv(path):
    """Read a comma-separated matrix; a malformed file (ragged rows, a
    non-number) raises ``ValueError`` naming ``path``."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@functools.lru_cache
def _row_format(types):
    # "%.0s" consumes a None and prints nothing
    return ",".join("%.17g" if issubclass(kind, float) else
                    "%.0s" if kind is type(None) else "%s"
                    for kind in types) + "\n"


def write_table(path, header, rows):
    """Write ``rows`` as comma-separated lines under the optional ``header``
    names: ints as ``str`` gives them, floats with 17 significant digits,
    ``None`` as an empty field."""
    with _replacing(path) as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(_row_format(tuple(map(type, row))) % tuple(row))


def write_json(path, document):
    """Write ``document`` as JSON, indented by 2 with sorted keys."""
    with _replacing(path) as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def read_matrix(path):
    """Read X/Y data, sniffing the binary magic and falling back to CSV."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == MATRIX_MAGIC:
        return read_matrix_binary(path)
    return read_matrix_csv(path)
