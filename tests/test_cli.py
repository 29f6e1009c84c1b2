import argparse
import ast
import builtins
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from reslearn import io, learner, measurements, metrics, spectral
from reslearn.cli import _build_parser, _naming, main
from reslearn.graphs import WeightedGraph, grid_graph
from reslearn.io import read_graph_mtx, read_matrix, write_graph_mtx

from _oracles import FullDisk


# A voltage/current pair; negating the currents makes every column do
# negative work on its voltages.
PAIR_X, PAIR_Y = measurements.generate_measurement_set(grid_graph(4, 4), 3, 0)


@pytest.fixture
def two_node_mtx(tmp_path):
    path = tmp_path / "truth.mtx"
    write_graph_mtx(path, WeightedGraph(2, [0], [1], [1.0]))
    return path


@pytest.fixture
def grid_mtx(tmp_path):
    path = tmp_path / "grid.mtx"
    write_graph_mtx(path, grid_graph(6, 6))
    return path


class TestGenerate:
    def test_two_node_voltage_is_half_current(self, two_node_mtx, tmp_path):
        out = tmp_path / "out"
        code = main(["generate", str(two_node_mtx), "--m", "1",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        X = read_matrix(out / "X.bin")
        Y = read_matrix(out / "Y.bin")
        np.testing.assert_allclose(X, Y / 2, rtol=1e-9)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["parameters"]["m"] == 1
        assert manifest["parameters"]["seed"] == 7

    def test_saved_currents_solve_to_the_saved_voltages(self, grid_mtx,
                                                        tmp_path):
        # the files are column-major; the solve of the read Y still gives
        # the written X bit for bit
        out = tmp_path / "out"
        assert main(["generate", str(grid_mtx), "--m", "4",
                     "--out", str(out)]) == 0
        X, Y = (read_matrix(out / f"{name}.bin") for name in "XY")
        np.testing.assert_array_equal(
            measurements.simulate_voltages(read_graph_mtx(grid_mtx), Y), X)

    def test_reproducible_bytes(self, grid_mtx, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", str(grid_mtx), "--m", "5",
                         "--seed", "3", "--out", str(out)]) == 0
        assert (a / "X.bin").read_bytes() == (b / "X.bin").read_bytes()
        assert (a / "Y.bin").read_bytes() == (b / "Y.bin").read_bytes()

    def test_rerun_from_manifest_parameters(self, grid_mtx, tmp_path):
        first = tmp_path / "first"
        assert main(["generate", str(grid_mtx), "--m", "4", "--seed", "11",
                     "--noise", "0.1", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        replay = tmp_path / "replay"
        params = manifest["parameters"]
        assert main(["generate", manifest["inputs"]["graph"],
                     "--m", str(params["m"]),
                     "--seed", str(params["seed"]),
                     "--noise", str(params["noise"]),
                     "--out", str(replay)]) == 0
        assert (first / "X.bin").read_bytes() == \
               (replay / "X.bin").read_bytes()

    def test_jl_mode_column_count(self, tmp_path):
        path = tmp_path / "g.mtx"
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 20, (30, 2))
        pairs = pairs[np.abs(pairs[:, 0] - pairs[:, 1]) > 1]
        s = np.concatenate([np.arange(19), pairs[:, 0]])
        t = np.concatenate([np.arange(1, 20), pairs[:, 1]])
        write_graph_mtx(path, WeightedGraph(20, s, t, np.ones(s.size)))
        out = tmp_path / "out"
        assert main(["generate", str(path), "--jl-eps", "0.9",
                     "--out", str(out)]) == 0
        X = read_matrix(out / "X.bin")
        assert X.shape[1] == math.ceil(24 * math.log(20) / 0.81)

    def test_m_and_jl_eps_mutually_exclusive(self, grid_mtx, tmp_path):
        # --m defaults to None, not to its 50, so the mutually exclusive
        # group refuses "--m 50 --jl-eps 0.5" as well
        for m in ("5", "50"):
            out = tmp_path / f"o{m}"
            with pytest.raises(SystemExit) as exc:
                main(["generate", str(grid_mtx), "--m", m,
                      "--jl-eps", "0.5", "--out", str(out)])
            assert exc.value.code == 3
            assert not out.exists()

    @pytest.mark.parametrize("count", [["--m", "4"], ["--jl-eps", "0.9"]],
                             ids=["m", "jl-eps"])
    def test_noise_draws_from_the_next_seed(self, grid_mtx, tmp_path,
                                            count):
        out = tmp_path / "o"
        assert main(["generate", str(grid_mtx), *count, "--seed", "3",
                     "--noise", "0.2", "--out", str(out)]) == 0
        g = read_graph_mtx(grid_mtx)
        X, Y = (measurements.generate_measurement_set(g, 4, 3)
                if count[0] == "--m"
                else measurements.generate_jl_measurements(g, 0.9, 3))
        noisy = measurements.add_noise(X, 0.2, 4)
        for name, expected in (("X.bin", noisy), ("Y.bin", Y)):
            got = read_matrix(out / name)
            assert got.shape == expected.shape
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_csv_output(self, two_node_mtx, tmp_path):
        out = tmp_path / "out"
        assert main(["generate", str(two_node_mtx), "--m", "2",
                     "--seed", "1", "--csv", "--out", str(out)]) == 0
        assert (out / "X.csv").exists()
        X = read_matrix(out / "X.csv")
        assert X.shape == (2, 2)

    def test_missing_graph_is_input_error(self, tmp_path):
        assert main(["generate", str(tmp_path / "nope.mtx"),
                     "--m", "2", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("level", ["-0.5", "nan"])
    @pytest.mark.parametrize("count", [["--m", "4"], ["--jl-eps", "0.9"]],
                             ids=["m", "jl-eps"])
    def test_bad_noise_level_is_input_error(self, grid_mtx, tmp_path, capsys,
                                            count, level):
        out = tmp_path / "o"
        assert main(["generate", str(grid_mtx), *count, "--noise", level,
                     "--out", str(out)]) == 3
        assert "noise_level" in capsys.readouterr().err
        assert not out.exists()

    def test_disconnected_graph_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "disc.mtx"
        write_graph_mtx(path, WeightedGraph(4, [0, 2], [1, 3], [1.0, 1.0]))
        assert main(["generate", str(path), "--m", "2",
                     "--out", str(tmp_path / "o")]) == 3
        assert (f"error: {path}: graph is disconnected (2 components)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("count", [["--m", "2"], ["--jl-eps", "0.9"]],
                             ids=["m", "jl-eps"])
    def test_one_node_graph_names_the_file(self, tmp_path, capsys, count):
        path = tmp_path / "one.mtx"
        write_graph_mtx(path, WeightedGraph(1, [], [], []))
        out = tmp_path / "o"
        assert main(["generate", str(path), *count, "--out", str(out)]) == 3
        assert (f"error: {path}: node_count must be >= 2"
                in capsys.readouterr().err)
        assert not out.exists()


class TestLearn:
    def test_options_are_files_subsample_seed_out(self):
        # learn runs the reference protocol: no learner knob is an option
        args = vars(_build_parser().parse_args(["learn", "x.bin"]))
        assert set(args) == {"command", "x", "y", "subsample", "seed", "out"}

    def test_end_to_end_pipeline(self, grid_mtx, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", str(grid_mtx), "--m", "25",
                     "--seed", "0", "--out", str(gen)]) == 0
        run = tmp_path / "run"
        code = main(["learn", str(gen / "X.bin"), str(gen / "Y.bin"),
                     "--out", str(run)])
        assert code == 0
        learned = read_graph_mtx(run / "learned.mtx")
        assert learned.node_count == 36
        trace_lines = (run / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iteration,s_max,edges"
        assert len(trace_lines) > 1
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["status"] in ("converged",
                                      "candidate_pool_exhausted")
        assert set(manifest["parameters"]) == {
            "subsample", "seed", "kept_nodes"}
        # trace trends down to convergence
        s_max = [float(line.split(",")[1]) for line in trace_lines[1:]]
        assert min(s_max) <= 1e-12

    def test_learned_graph_reproducible_bytes(self, grid_mtx, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", str(grid_mtx), "--m", "25",
                     "--seed", "0", "--out", str(gen)]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["learn", str(gen / "X.bin"), str(gen / "Y.bin"),
                         "--out", str(out)]) == 0
        assert (a / "learned.mtx").read_bytes() == \
               (b / "learned.mtx").read_bytes()
        assert (a / "trace.csv").read_bytes() == \
               (b / "trace.csv").read_bytes()

    def test_subsample_reduces_nodes(self, grid_mtx, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", str(grid_mtx), "--m", "25",
                     "--seed", "0", "--out", str(gen)]) == 0
        run = tmp_path / "red"
        assert main(["learn", str(gen / "X.bin"), "--subsample", "0.2",
                     "--seed", "5", "--out", str(run)]) == 0
        learned = read_graph_mtx(run / "learned.mtx")
        assert learned.node_count == math.ceil(0.2 * 36)
        manifest = json.loads((run / "manifest.json").read_text())
        assert len(manifest["parameters"]["kept_nodes"]) == 8

    @pytest.mark.parametrize("error, code", [
        (ValueError, 3), (OSError, 3), (spectral.SolverError, 3),
        (spectral.EigensolverError, 3), (IndexError, None)])
    def test_only_documented_failures_exit_3(self, grid_mtx, tmp_path,
                                             monkeypatch, capsys, error,
                                             code):
        # anything else raised inside learn is a bug: it propagates with its
        # traceback instead of being reported as bad input
        gen = tmp_path / "gen"
        assert main(["generate", str(grid_mtx), "--m", "4",
                     "--out", str(gen)]) == 0

        def failing(X, Y):
            raise error("injected")

        monkeypatch.setattr(learner, "learn", failing)
        argv = ["learn", str(gen / "X.bin"), "--out", str(tmp_path / "r")]
        if code is None:
            with pytest.raises(error, match="^injected$"):
                main(argv)
        else:
            assert main(argv) == code
            assert capsys.readouterr().err.endswith("injected\n")

    def test_subsample_forbids_currents(self, grid_mtx, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", str(grid_mtx), "--m", "10",
                     "--seed", "0", "--out", str(gen)]) == 0
        assert main(["learn", str(gen / "X.bin"), str(gen / "Y.bin"),
                     "--subsample", "0.5",
                     "--out", str(tmp_path / "r")]) == 3

    def test_max_iterations_exit_code(self, grid_mtx, tmp_path, monkeypatch):
        gen = tmp_path / "gen"
        assert main(["generate", str(grid_mtx), "--m", "25",
                     "--seed", "0", "--out", str(gen)]) == 0
        monkeypatch.setattr(learner, "MAX_ITERATIONS", 1)
        code = main(["learn", str(gen / "X.bin"),
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_shape_mismatch_is_input_error(self, grid_mtx, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", str(grid_mtx), "--m", "10",
                     "--seed", "0", "--out", str(gen)]) == 0
        other = tmp_path / "other"
        assert main(["generate", str(grid_mtx), "--m", "4",
                     "--seed", "0", "--out", str(other)]) == 0
        assert main(["learn", str(gen / "X.bin"), str(other / "Y.bin"),
                     "--out", str(tmp_path / "r")]) == 3

    def test_ragged_csv_names_the_file(self, tmp_path, capsys):
        x = tmp_path / "ragged.csv"
        x.write_text("1,2,3\n4,5\n")
        assert main(["learn", str(x), "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert str(x) in err and "number of columns changed" in err

    def test_empty_csv_names_the_file(self, tmp_path, capsys):
        x = tmp_path / "empty.csv"
        x.write_text("")
        assert main(["learn", str(x), "--out", str(tmp_path / "r")]) == 3
        assert f"{x}: no data" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("X, Y, blamed, message", [
        (np.zeros((0, 3)), None, "X.bin", r"X must be \(N >= 2, M >= 1\)"),
        (np.full((4, 2), np.nan), None, "X.bin",
         r"X must be finite \(found NaN or inf\)"),
        (np.ones((6, 3)), None, "X.bin",
         r"degenerate measurements: all voltage rows identical, every "
         r"entry to within 2\*\*-1073 of max \|X\|"),
        (np.random.default_rng(0).standard_normal((6, 3)), np.ones((6, 3)),
         "Y.bin", "current columns not orthogonal to all-ones"),
        (PAIR_X, -PAIR_Y, "Y.bin",
         r"Y column 0 does no work on its voltages \(x_j\^T y_j <= 0\): X "
         r"and Y are not a voltage/current pair"),
    ], ids=["empty-X", "nan-X", "identical-X", "constant-Y", "no-work-Y"])
    def test_refused_matrix_names_its_file(self, tmp_path, capsys, X, Y,
                                           blamed, message):
        # each file reads cleanly, and learn refuses what it holds
        files = []
        for name, A in (("X.bin", X), ("Y.bin", Y)):
            if A is not None:
                io.write_matrix_binary(tmp_path / name, A)
                files.append(str(tmp_path / name))
        assert main(["learn", *files, "--out", str(tmp_path / "r")]) == 3
        assert re.fullmatch(
            f"reslearn learn: error: {re.escape(str(tmp_path / blamed))}: "
            f"{message}\n", capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    def test_missing_positional_is_exit_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["learn"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("flag", [
        ["--tol", "1e-12"], ["--k", "5"], ["--r", "5"], ["--beta", "0.001"],
        ["--max-iterations", "3"]], ids=lambda flag: flag[0])
    def test_removed_flag_is_usage_error(self, grid_mtx, tmp_path, flag):
        # learn runs the reference protocol: the loop stops when no
        # sensitivity is positive, and k, r, beta and the iteration cap are
        # learner constants, not options.
        gen = tmp_path / "gen"
        assert main(["generate", str(grid_mtx), "--m", "4",
                     "--out", str(gen)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["learn", str(gen / "X.bin"), *flag,
                  "--out", str(tmp_path / "r")])
        assert exc.value.code == 3
        assert not (tmp_path / "r").exists()

    def test_parser_usage_error_is_exit_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            from reslearn.cli import _build_parser
            _build_parser().parse_args(["learn", "--bogus"])
        assert exc.value.code == 3


class TestEval:
    def test_identical_graphs_perfect_correlation(self, grid_mtx, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", str(grid_mtx), str(grid_mtx), "--pairs", "50",
                     "--spectrum-k", "5", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["pearson_r"] == pytest.approx(1.0)
        spectra = (out / "spectra.csv").read_text().splitlines()
        assert len(spectra) == 6
        assert spectra[0] == "index,lambda_true,lambda_learned"
        assert spectra[1].startswith("2,")
        scatter = (out / "resistance_scatter.csv").read_text().splitlines()
        assert scatter[0] == "s,t,r_true,r_learned"
        assert re.fullmatch(r"\d+,\d+,[^,]+,[^,]+", scatter[1])
        for name in ("layout_true.csv", "layout_learned.csv"):
            layout = (out / name).read_text().splitlines()
            assert layout[0] == "node,x,y" and len(layout) == 37
            assert layout[1].startswith("0,")

    def test_doubled_truth_ratio_two(self, tmp_path):
        g = grid_graph(5, 5)
        a = tmp_path / "a.mtx"
        b = tmp_path / "b.mtx"
        write_graph_mtx(a, g)
        write_graph_mtx(b, g.scaled(2.0))
        out = tmp_path / "eval"
        assert main(["eval", str(a), str(b), "--pairs", "20",
                     "--spectrum-k", "4", "--out", str(out)]) == 0
        rows = (out / "spectra.csv").read_text().splitlines()[1:]
        for row in rows:
            _, lt, ll = row.split(",")
            assert float(ll) / float(lt) == pytest.approx(2.0, rel=1e-8)

    def test_node_count_mismatch(self, grid_mtx, two_node_mtx, tmp_path):
        assert main(["eval", str(grid_mtx), str(two_node_mtx),
                     "--out", str(tmp_path / "e")]) == 3

    def test_graph_without_banner_names_the_file(self, grid_mtx, tmp_path,
                                                 capsys):
        bad = tmp_path / "nobanner.mtx"
        bad.write_text("1 2\n2 3\n")
        assert main(["eval", str(grid_mtx), str(bad),
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert f"{bad}: " in err and "banner" in err

    @pytest.mark.parametrize("position", [0, 1], ids=["truth", "learned"])
    def test_disconnected_graph_names_the_file(self, tmp_path, capsys,
                                               position):
        # two 3-node paths, in either position
        paths = [tmp_path / "t.mtx", tmp_path / "d.mtx"]
        write_graph_mtx(paths[0], grid_graph(2, 3))
        write_graph_mtx(paths[1], WeightedGraph(6, [0, 1, 3, 4], [1, 2, 4, 5],
                                                [1.0] * 4))
        if position == 0:
            paths.reverse()
        assert main(["eval", *map(str, paths),
                     "--out", str(tmp_path / "e")]) == 3
        assert (f"error: {tmp_path / 'd.mtx'}: graph is disconnected "
                "(2 components)" in capsys.readouterr().err)

    def test_scores_exactly_the_requested_pairs(self, grid_mtx, tmp_path):
        out = tmp_path / "eval"  # 6x6 grid: 630 pairs
        assert main(["eval", str(grid_mtx), str(grid_mtx), "--pairs", "5",
                     "--out", str(out)]) == 0
        scatter = (out / "resistance_scatter.csv").read_text().splitlines()
        assert len(scatter) == 1 + 5

    def test_zero_pairs_is_input_error(self, grid_mtx, tmp_path):
        assert main(["eval", str(grid_mtx), str(grid_mtx), "--pairs", "0",
                     "--out", str(tmp_path / "e")]) == 3

    def test_failed_write_leaves_no_temp_file(self, grid_mtx, tmp_path,
                                              monkeypatch, capsys):
        write_table = io.write_table

        def failing(path, header, *columns):
            if header[0] == "node":  # the layouts fail within one row
                room = len("node,x,y\n0,")
                monkeypatch.setattr(io, "open", lambda *args, **kwargs:
                                    FullDisk(builtins.open(*args, **kwargs),
                                             room), raising=False)
            write_table(path, header, *columns)

        monkeypatch.setattr(io, "write_table", failing)
        out = tmp_path / "e"
        assert main(["eval", str(grid_mtx), str(grid_mtx), "--pairs", "10",
                     "--out", str(out)]) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "resistance_scatter.csv", "spectra.csv"]

    @pytest.fixture
    def grid_pair(self, tmp_path):
        # 144 nodes: above the dense limit, so both graphs take Lanczos.
        truth = grid_graph(12, 12)
        learned = truth.with_edges([0, 20], [13, 45], [1.0, 0.5])
        paths = tmp_path / "truth.mtx", tmp_path / "learned.mtx"
        for path, g in zip(paths, (truth, learned)):
            write_graph_mtx(path, g)
        return paths

    def test_one_eigensolve_per_graph(self, grid_pair, tmp_path, monkeypatch):
        calls = []
        original = spectral.eigensolve_smallest

        def counting(g, count):
            calls.append(count)
            return original(g, count)

        for module in (spectral, metrics):
            monkeypatch.setattr(module, "eigensolve_smallest", counting)
        assert main(["eval", *map(str, grid_pair), "--pairs", "20",
                     "--spectrum-k", "6",
                     "--out", str(tmp_path / "e")]) == 0
        assert calls == [6, 6]

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_spectra_and_layout_share_one_basis(self, grid_pair, tmp_path,
                                                 k):
        out = tmp_path / "e"
        assert main(["eval", *map(str, grid_pair), "--pairs", "20",
                     "--spectrum-k", str(k), "--out", str(out)]) == 0
        bases = [spectral.eigensolve_smallest(read_graph_mtx(p), max(k, 2))
                 for p in grid_pair]
        spectra = np.loadtxt(out / "spectra.csv", delimiter=",", skiprows=1,
                             ndmin=2)
        np.testing.assert_array_equal(spectra[:, 0], np.arange(2, k + 2))
        for column, (lam, u), name in zip((1, 2), bases,
                                          ("true", "learned")):
            np.testing.assert_array_equal(spectra[:, column], lam[:k])
            layout = np.loadtxt(out / f"layout_{name}.csv", delimiter=",",
                                skiprows=1)
            np.testing.assert_array_equal(layout[:, 1:], u[:, :2])

    @pytest.mark.parametrize("k, message", [
        (0, "--spectrum-k must be >= 1, got 0"),
        (36, r"count must be in \[1, 35\], got 36"),
    ])
    def test_bad_spectrum_k_is_input_error(self, grid_mtx, tmp_path, capsys,
                                           k, message):
        assert main(["eval", str(grid_mtx), str(grid_mtx), "--spectrum-k",
                     str(k), "--out", str(tmp_path / "e")]) == 3
        assert re.search(message, capsys.readouterr().err)

    def test_two_nodes_are_too_few_for_a_layout(self, two_node_mtx, tmp_path,
                                                capsys):
        assert main(["eval", str(two_node_mtx), str(two_node_mtx),
                     "--spectrum-k", "1", "--out", str(tmp_path / "e")]) == 3
        assert "layout needs at least 3 nodes" in capsys.readouterr().err


def test_manifest_parameters_are_the_options_and_resolved_values(grid_mtx,
                                                                 tmp_path):
    # Every option a subcommand parses is recorded, except the file
    # arguments, plus the values the command resolves.
    files = {"command", "graph", "x", "y", "truth", "learned", "out"}
    resolved = {"generate": {"m"}, "learn": {"kept_nodes"},
                "eval": {"pearson_r", "edge_counts"}}
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    gen, run, rep = tmp_path / "gen", tmp_path / "run", tmp_path / "rep"
    runs = {"generate": (gen, [str(grid_mtx), "--m", "8"]),
            "learn": (run, [str(gen / "X.bin"), str(gen / "Y.bin")]),
            "eval": (rep, [str(grid_mtx), str(run / "learned.mtx"),
                           "--pairs", "20"])}
    for command, (out, argv) in runs.items():
        assert main([command, *argv, "--out", str(out)]) == 0
        dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["parameters"]) == (dests - files) | resolved[
            command]
        assert not set(manifest["parameters"]) & {"command", "out",
                                                  *manifest["inputs"]}


@pytest.mark.parametrize("command, flags, message", [
    ("generate", ["--m", "0"], "--m: count must be >= 1"),
    ("generate", ["--noise", "-1"],
     "--noise: noise_level must be in [0, inf)"),
    ("generate", ["--jl-eps", "1.5"], "--jl-eps: epsilon must be in (0, 1)"),
    ("learn", ["--subsample", "0"],
     "--subsample: fraction must be in (0, 1]"),
    ("eval", ["--pairs", "1"], "--pairs: pair_count must be >= 2"),
    ("eval", ["--spectrum-k", "40"],
     "--spectrum-k: count must be in [1, 35], got 40"),
    ("generate", ["--seed", "-1"], "--seed: seed must be >= 0"),
    ("learn", ["--subsample", "0.5", "--seed", "-1"],
     "--seed: seed must be >= 0"),
    ("eval", ["--seed", "-1"], "--seed: seed must be >= 0"),
], ids=["m", "noise", "jl-eps", "subsample", "pairs", "spectrum-k",
        "generate-seed", "learn-seed", "eval-seed"])
def test_refusal_names_the_flag(grid_mtx, tmp_path, capsys, command, flags,
                                message):
    # The library checks each value; the refusal names the flag it came
    # from, not the library parameter alone.
    x_path = tmp_path / "X.bin"
    io.write_matrix_binary(
        x_path, measurements.generate_measurement_set(grid_graph(6, 6), 4,
                                                      0)[0])
    files = {"generate": [str(grid_mtx)], "learn": [str(x_path)],
             "eval": [str(grid_mtx), str(grid_mtx)]}[command]
    assert main([command, *files, *flags,
                 "--out", str(tmp_path / "o")]) == 3
    assert f"error: {message}" in capsys.readouterr().err


def test_naming_passes_other_value_errors_unchanged():
    # a refusal that is not about the flag's parameter is not the flag's
    refusal = ValueError("seed must be >= 0")

    def check():
        raise refusal

    with pytest.raises(ValueError) as err:
        _naming("--m", check, about="count ")
    assert err.value is refusal


def test_readme_protocol_names_every_learner_constant():
    # README's "Fixed protocol" sentence gives each public upper-case
    # constant of the learner as `NAME=value` with its value, and no other,
    # so a constant and its documentation change together.
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    paragraph = readme.split("Fixed protocol (`reslearn.learner`):")[1]
    sentence = re.split(r"\.\s", paragraph)[0]
    documented = {name: ast.literal_eval(value) for name, value in
                  re.findall(r"`([A-Z_]+)=([^`]+)`", sentence)}
    constants = {name for name in vars(learner)
                 if name.isupper() and not name.startswith("_")}
    assert set(documented) == constants
    for name, value in documented.items():
        assert value == getattr(learner, name), name


def test_readme_pipeline_section_names_every_option():
    # Every option of generate, learn and eval appears in README's
    # "Command-line pipeline" section, and every --flag there is an option
    # of some subcommand, so a flag and its documentation go together.
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    section = readme.split("\n## Command-line pipeline\n")[1]
    section = section.split("\n## ")[0]
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {flag for name in ("generate", "learn", "eval")
               for a in sub.choices[name]._actions
               if not isinstance(a, argparse._HelpAction)
               for flag in a.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == options
