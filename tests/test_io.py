import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reslearn.graphs import WeightedGraph
from reslearn.io import (
    read_graph_mtx,
    read_matrix,
    read_matrix_binary,
    read_matrix_csv,
    write_graph_mtx,
    write_matrix_binary,
    write_matrix_csv,
)

from _oracles import random_connected_graph, reference_mtx_edges


class TestGraphMtx:
    def test_round_trip_exact(self, tmp_path):
        g = random_connected_graph(20, 30, seed=0)
        path = tmp_path / "g.mtx"
        write_graph_mtx(path, g)
        back = read_graph_mtx(path)
        assert back.node_count == g.node_count
        assert back.edge_list() == g.edge_list()

    def test_reads_upper_triangle_general(self, tmp_path):
        path = tmp_path / "upper.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n"
            "1 2 1.5\n"
            "2 3 2.5\n")
        g = read_graph_mtx(path)
        assert g.edge_list() == [(0, 1, 1.5), (1, 2, 2.5)]

    def test_reads_lower_triangle_symmetric(self, tmp_path):
        path = tmp_path / "lower.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 1.5\n"
            "3 2 2.5\n")
        g = read_graph_mtx(path)
        assert g.edge_list() == [(0, 1, 1.5), (1, 2, 2.5)]

    def test_reads_both_triangles_when_consistent(self, tmp_path):
        path = tmp_path / "both.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.5\n"
            "2 1 1.5\n")
        assert read_graph_mtx(path).edge_list() == [(0, 1, 1.5)]

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
            assert read_graph_mtx(path).edge_list() == expected

    def test_edgeless_round_trip(self, tmp_path):
        g = WeightedGraph.from_edges(4, [])
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
        assert read_graph_mtx(path).edge_list() == [(1, 2, 1.0)]

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
