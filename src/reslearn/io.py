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
import json
import os
import struct
import warnings

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
    or both triangles; an edge given more than once keeps its first stored
    weight, and every other must agree with it.  Self-loops and
    non-positive weights are rejected; explicit zeros are dropped.  A
    malformed file raises ``ValueError`` naming ``path``.

    Each stored entry is read once: of a symmetric file, ``mmread`` lists
    the stored entries in file order and then one equal mirror of each
    off-diagonal entry, and only the stored ones are kept.
    """
    try:
        coo = sp.coo_matrix(scipy.io.mmread(path))
        _, _, stored, layout, _, symmetry = scipy.io.mminfo(path)
        if (layout, symmetry) != ("coordinate", "symmetric"):
            stored = None
        return _adjacency_graph(coo.shape, coo.row[:stored],
                                coo.col[:stored], coo.data[:stored])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _adjacency_graph(shape, row, col, data):
    """The graph of a square adjacency given as COO entries, as
    :func:`read_graph_mtx` describes it."""
    if shape[0] != shape[1]:
        raise ValueError("adjacency must be square")
    nz = data != 0
    r, c, w = row[nz], col[nz], data[nz]
    if np.any(w < 0):
        raise ValueError("negative weights are not allowed")
    # Reversed, so that the constructor, which keeps the last of duplicate
    # entries, keeps each edge's first; every other entry must agree with it.
    g = WeightedGraph(shape[0], r[::-1], c[::-1], w[::-1])
    if g.edge_count == w.size:  # no edge given twice, so none conflicts
        return g
    n = g.node_count
    edge = np.searchsorted(g.sources * n + g.targets,
                           np.minimum(r, c).astype(np.int64) * n
                           + np.maximum(r, c))
    top, bottom = g.weights.copy(), g.weights.copy()
    np.maximum.at(top, edge, w)
    np.minimum.at(bottom, edge, w)
    bad = np.flatnonzero(top - bottom
                         > 1e-12 * np.maximum(1.0, np.abs(g.weights)))
    if bad.size:
        s, t = g.sources[bad[0]], g.targets[bad[0]]
        raise ValueError(f"conflicting weights for edge ({s},{t})")
    return g


def write_graph_mtx(path, g):
    """Write the adjacency in symmetric Matrix Market coordinate format, one
    line per canonical edge ``(s, t)``, at row ``t``, column ``s``."""
    n = g.node_count
    lower = sp.csr_matrix((g.weights, (g.targets, g.sources)), shape=(n, n))
    with _replacing(path, binary=True) as fh:
        scipy.io.mmwrite(fh, lower, field="real", precision=17,
                         symmetry="symmetric")


def write_matrix_binary(path, A):
    """Write a float64 matrix in the raw binary layout described above."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n, m = A.shape
    with _replacing(path, binary=True) as fh:
        fh.write(struct.pack("<8sQQ", MATRIX_MAGIC, n, m))
        fh.write(A.tobytes(order="F"))


def read_matrix_binary(path):
    """Read a matrix in the raw binary layout described above.

    Raises ``ValueError`` naming ``path`` on a wrong magic, or unless
    exactly the header's N x M float64 values follow it.
    """
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) != 24 or header[:8] != MATRIX_MAGIC:
            raise ValueError(f"{path}: not a measurement matrix file")
        _, n, m = struct.unpack("<8sQQ", header)
        left = os.fstat(fh.fileno()).st_size - len(header)
        if 8 * n * m != left:
            kind = "truncated" if 8 * n * m > left else "trailing bytes after"
            raise ValueError(f"{path}: {kind} data section: header says "
                             f"{n} x {m} float64 values ({8 * n * m} "
                             f"bytes), {left} bytes follow")
        data = np.fromfile(fh, dtype="<f8", count=n * m)
    return data.reshape((n, m), order="F")


def write_matrix_csv(path, A):
    """Write a float64 matrix as comma-separated rows, without a header."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    write_table(path, None, *A.T)


def read_matrix_csv(path):
    """Read a comma-separated matrix; a malformed file (ragged rows, a
    non-number, no data at all) raises ``ValueError`` naming ``path``."""
    try:
        with warnings.catch_warnings():
            # An empty file is refused below instead.
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            A = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if A.size == 0:
        raise ValueError(f"{path}: no data")
    return A


def write_table(path, header, *columns):
    """Write ``columns`` side by side as comma-separated lines under the
    optional ``header`` names, each formatted by its dtype: integers in
    decimal, floats with 17 significant digits.  Columns that are not 1-D
    integer or float arrays of one length raise ``ValueError``."""
    columns = [np.asarray(c) for c in columns]
    if (any(c.ndim != 1 or c.dtype.kind not in "iuf" for c in columns)
            or len({c.size for c in columns}) > 1):
        raise ValueError("table columns must be 1-D integer or float arrays "
                         "of one length, got " + ", ".join(
                             f"{c.shape} {c.dtype}" for c in columns))
    line = ",".join("%.17g" if c.dtype.kind == "f" else "%d"
                    for c in columns) + "\n"
    with _replacing(path) as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.writelines(line % row
                      for row in zip(*(c.tolist() for c in columns)))


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
