import builtins
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reslearn import io
from reslearn.graphs import WeightedGraph, grid_graph
from reslearn.io import (
    read_graph_mtx,
    read_matrix,
    read_matrix_binary,
    read_matrix_csv,
    write_graph_mtx,
    write_matrix_binary,
    write_json,
    write_matrix_csv,
    write_table,
)

from _oracles import (
    FullDisk,
    edge_columns,
    random_connected_graph,
    reference_mtx_edges,
)


class TestGraphMtx:
    def test_round_trip_exact(self, tmp_path):
        g = random_connected_graph(20, 30, seed=0)
        path = tmp_path / "g.mtx"
        write_graph_mtx(path, g)
        back = read_graph_mtx(path)
        assert back.node_count == g.node_count
        assert edge_columns(back) == edge_columns(g)

    def test_exact_text(self, tmp_path):
        # Edges given out of (s, t) order, one reversed: the file lists the
        # lower triangle row by row, 17 significant digits each.
        g = WeightedGraph(3, [2, 1, 0], [0, 2, 1], [0.1, 2.5, 1 / 3])
        path = tmp_path / "g.mtx"
        write_graph_mtx(path, g)
        assert path.read_text() == (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "%\n"
            "3 3 3\n"
            "2 1 3.3333333333333331e-01\n"
            "3 1 1.0000000000000001e-01\n"
            "3 2 2.5000000000000000e+00\n")
        assert edge_columns(read_graph_mtx(path)) == edge_columns(g)
        assert edge_columns(g) == ([0, 0, 1], [1, 2, 2], [1 / 3, 0.1, 2.5])

    def test_reads_upper_triangle_general(self, tmp_path):
        path = tmp_path / "upper.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n"
            "1 2 1.5\n"
            "2 3 2.5\n")
        g = read_graph_mtx(path)
        assert edge_columns(g) == ([0, 1], [1, 2], [1.5, 2.5])

    def test_reads_lower_triangle_symmetric(self, tmp_path):
        path = tmp_path / "lower.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 1.5\n"
            "3 2 2.5\n")
        g = read_graph_mtx(path)
        assert edge_columns(g) == ([0, 1], [1, 2], [1.5, 2.5])

    def test_reads_both_triangles_when_consistent(self, tmp_path):
        path = tmp_path / "both.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.5\n"
            "2 1 1.5\n")
        assert edge_columns(read_graph_mtx(path)) == ([0], [1], [1.5])

    def test_rejects_conflicting_mirror(self, tmp_path):
        path = tmp_path / "conflict.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.5\n"
            "2 1 2.5\n")
        with pytest.raises(ValueError):
            read_graph_mtx(path)

    def test_conflict_in_late_edge_is_named(self, tmp_path):
        # A 30-node path with both triangles listed; only the mirror of the
        # second-to-last edge disagrees, so the message must name that edge.
        path = tmp_path / "late.mtx"
        entries = []
        for v in range(29):
            entries += [(v + 1, v + 2, 1.0 + v), (v + 2, v + 1, 1.0 + v)]
        entries[-3] = (29, 28, 99.0)
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"30 30 {len(entries)}\n"
            + "".join(f"{r} {c} {w}\n" for r, c, w in entries))
        with pytest.raises(ValueError,
                           match=r"conflicting weights for edge \(27,28\)"):
            read_graph_mtx(path)

    # Weight pairs 5e-13 and 1e-13 apart agree below weight 1 and above it.
    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5),
                  st.sampled_from([0.25, 0.25 + 5e-13, 1.0, 1.0 + 1e-13,
                                   2.0])),
        max_size=20).map(lambda es: [e for e in es if e[0] != e[1]]))
    def test_duplicates_match_reference(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("mtx") / "dups.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"6 6 {len(entries)}\n"
            + "".join(f"{r + 1} {c + 1} {w!r}\n" for r, c, w in entries))
        kind, expected = reference_mtx_edges(entries)
        if kind == "conflict":
            with pytest.raises(ValueError, match=re.escape(
                    "conflicting weights for edge ({},{})".format(*expected))):
                read_graph_mtx(path)
        else:
            assert list(zip(*edge_columns(read_graph_mtx(path)))) == expected

    def test_edgeless_round_trip(self, tmp_path):
        g = WeightedGraph(4, [], [], [])
        path = tmp_path / "empty.mtx"
        write_graph_mtx(path, g)
        back = read_graph_mtx(path)
        assert back.node_count == 4 and back.edge_count == 0

    def test_rejects_self_loop(self, tmp_path):
        path = tmp_path / "loop.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 1 1.0\n")
        with pytest.raises(ValueError):
            read_graph_mtx(path)

    def test_rejects_negative_weight(self, tmp_path):
        path = tmp_path / "neg.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n"
            "2 1 -1.0\n")
        with pytest.raises(ValueError):
            read_graph_mtx(path)

    def test_drops_explicit_zeros(self, tmp_path):
        path = tmp_path / "zeros.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n"
            "1 2 0.0\n"
            "2 3 1.0\n")
        assert edge_columns(read_graph_mtx(path)) == ([1], [2], [1.0])

    @pytest.mark.parametrize("body, match", [
        ("0 0 0\n", "node_count must be >= 1"),
        ("2 2 1\n2 1 nan\n", "finite and > 0"),
    ], ids=["no-nodes", "nan-weight"])
    def test_graph_errors_name_the_file(self, tmp_path, body, match):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             f".*{match}"):
            read_graph_mtx(path)

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 1\n"
            "1 2 1.0\n")
        with pytest.raises(ValueError):
            read_graph_mtx(path)


class TestMatrixFormats:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        A = np.random.default_rng(0).standard_normal((7, 3))
        path = tmp_path / "x.bin"
        write_matrix_binary(path, A)
        back = read_matrix_binary(path)
        assert np.array_equal(back, A)

    @pytest.mark.parametrize("write", [write_matrix_binary, write_matrix_csv],
                             ids=["binary", "csv"])
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["1-D", "3-D"])
    def test_write_refuses_other_than_2d(self, tmp_path, write, shape):
        with pytest.raises(ValueError, match="^expected a 2-D matrix$"):
            write(tmp_path / "a", np.ones(shape))
        assert list(tmp_path.iterdir()) == []

    def test_binary_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_matrix_binary(path)

    def test_binary_truncated_rejected(self, tmp_path):
        A = np.ones((4, 4))
        path = tmp_path / "x.bin"
        write_matrix_binary(path, A)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            read_matrix_binary(path)

    def test_binary_oversized_header_names_the_file(self, tmp_path):
        # N = M = 2^40 would overflow the read's element count; the size
        # check against the bytes on disk comes first
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<8sQQ", b"RESMAT01", 1 << 40, 1 << 40)
                         + b"\x00" * 64)
        with pytest.raises(ValueError, match="huge.bin: truncated"):
            read_matrix_binary(path)

    @pytest.mark.parametrize("extra", [1, 8, 36 * 8], ids=["byte", "value",
                                                            "column"])
    def test_binary_trailing_bytes_rejected(self, tmp_path, extra):
        # Only the header's N x M values may follow it: one more column
        # must not be read as the first M columns.
        path = tmp_path / "x.bin"
        write_matrix_binary(path, np.ones((36, 10)))
        path.write_bytes(path.read_bytes() + b"\x00" * extra)
        with pytest.raises(ValueError, match="x.bin: trailing bytes"):
            read_matrix_binary(path)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_csv_without_data_names_the_file(self, tmp_path, text):
        # refused by name, without numpy's "input contained no data" warning
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty.csv: no data"):
            read_matrix_csv(path)

    def test_csv_round_trip(self, tmp_path):
        A = np.random.default_rng(1).standard_normal((5, 2))
        path = tmp_path / "x.csv"
        write_matrix_csv(path, A)
        np.testing.assert_allclose(read_matrix_csv(path), A, rtol=1e-15)

    def test_csv_single_column(self, tmp_path):
        A = np.array([[1.0], [2.0], [3.0]])
        path = tmp_path / "col.csv"
        write_matrix_csv(path, A)
        assert read_matrix_csv(path).shape == (3, 1)

    def test_read_matrix_sniffs_format(self, tmp_path):
        A = np.random.default_rng(2).standard_normal((6, 4))
        b = tmp_path / "x.bin"
        c = tmp_path / "x.csv"
        write_matrix_binary(b, A)
        write_matrix_csv(c, A)
        assert np.array_equal(read_matrix(b), A)
        np.testing.assert_allclose(read_matrix(c), A, rtol=1e-15)

    def test_binary_layout_documented(self, tmp_path):
        # 8-byte magic, two uint64 dims, column-major float64 payload
        A = np.array([[1.0, 3.0], [2.0, 4.0]])
        path = tmp_path / "x.bin"
        write_matrix_binary(path, A)
        raw = path.read_bytes()
        assert raw[:8] == b"RESMAT01"
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 2
        np.testing.assert_array_equal(
            np.frombuffer(raw[24:], dtype="<f8"), [1.0, 2.0, 3.0, 4.0])


class TestTable:
    @pytest.mark.parametrize("header", [None, ("node", "value")])
    @pytest.mark.parametrize("value, field", [
        (0.1, "0.10000000000000001"),
        (-0.0, "-0"),
        (1e-300, "1e-300"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (np.float64(0.1), "0.10000000000000001"),
        (2 ** 60, "1152921504606846976"),
        (np.int64(-7), "-7"),
    ], ids=["float", "negative-zero", "tiny", "largest", "np-float64",
            "int", "np-int64"])
    def test_exact_text_reads_back_bit_for_bit(self, tmp_path, header, value,
                                               field):
        path = tmp_path / "t.csv"
        write_table(path, header, [3, 4], [value, value])
        head = "" if header is None else "node,value\n"
        assert path.read_text() == f"{head}3,{field}\n4,{field}\n"
        if isinstance(value, float):
            back = np.loadtxt(path, delimiter=",", ndmin=2,
                              skiprows=int(header is not None))
            assert back[:, 1].tobytes() == np.array([value, value]).tobytes()

    def test_columns_may_be_any_sequence(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("i", "x"), range(1), (0.5,))
        assert path.read_text() == "i,x\n0,0.5\n"
        write_table(path, None)
        assert path.read_text() == ""

    def test_format_follows_the_dtype_not_the_value(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, None, np.array([7], np.uint8),
                    np.array([-7], np.int32), np.array([3.0]))
        assert path.read_text() == "7,-7,3\n"

    @pytest.mark.parametrize("columns, got", [
        ((["a", "b"],), "(2,) <U1"),
        (([True, False],), "(2,) bool"),
        (([1j],), "(1,) complex128"),
        ((np.array([1.0], dtype=object),), "(1,) object"),
        (([[1.0, 2.0]],), "(1, 2) float64"),
        ((2.0,), "() float64"),
        (([1, 2], [0.5]), "(2,) int64, (1,) float64"),
    ], ids=["str", "bool", "complex", "object", "2-D", "scalar", "unequal"])
    def test_refuses_what_it_cannot_write_exactly(self, tmp_path, columns,
                                                  got):
        # zip would cut unequal columns short without a word
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=re.escape(
                "table columns must be 1-D integer or float arrays of one "
                f"length, got {got}")):
            write_table(path, None, *columns)
        assert not path.exists()

    def test_matrix_csv_matches_savetxt(self, tmp_path):
        A = (np.random.default_rng(3).standard_normal((7, 3))
             * np.logspace(-300, 300, 21).reshape(7, 3))
        A[0, 0], A[1, 1], A[2, 2] = -0.0, 1.0, np.finfo(float).max
        A[3, 0], A[4, 1] = np.inf, 5e-324
        ours, theirs = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(ours, A)
        np.savetxt(theirs, A, delimiter=",", fmt="%.17g")
        assert ours.read_bytes() == theirs.read_bytes()
        assert read_matrix_csv(ours).tobytes() == A.tobytes()


_WRITERS = {
    "graph": ("g.mtx", lambda p: write_graph_mtx(p, grid_graph(4, 4))),
    "binary": ("X.bin", lambda p: write_matrix_binary(p, np.eye(4))),
    "matrix-csv": ("X.csv", lambda p: write_matrix_csv(p, np.eye(4))),
    "table": ("t.csv", lambda p: write_table(p, ("a", "b"), [1, 2],
                                             [0.5, 0.25])),
    "json": ("m.json", lambda p: write_json(p, {"a": [1, 2], "b": "c"})),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", _WRITERS)
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                              writer):
        # io opens its temporary files with open(); this one fills up
        # after 10 bytes, partway through every format's first write
        name, write = _WRITERS[writer]
        target = tmp_path / name
        target.write_bytes(b"previous contents")
        monkeypatch.setattr(io, "open", lambda *args, **kwargs: FullDisk(
            builtins.open(*args, **kwargs), 10), raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            write(target)
        assert target.read_bytes() == b"previous contents"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("writer", _WRITERS)
    def test_write_replaces_the_target(self, tmp_path, writer):
        name, write = _WRITERS[writer]
        target = tmp_path / name
        target.write_bytes(b"previous contents")
        write(target)
        assert b"previous contents" not in target.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_graph_file_keeps_a_name_without_mtx(self, tmp_path):
        # the writer writes exactly the path given, whatever its extension
        path = tmp_path / "g.txt"
        write_graph_mtx(path, grid_graph(3, 3))
        assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]
        assert read_graph_mtx(path).edge_count == 12

    def test_json_text(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, {"b": 1.5, "a": [1, None]})
        assert path.read_text() == (
            '{\n  "a": [\n    1,\n    null\n  ],\n  "b": 1.5\n}\n')
        assert json.loads(path.read_text()) == {"a": [1, None], "b": 1.5}
