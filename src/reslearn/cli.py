"""Command-line pipeline: ``generate`` measurements from a graph, ``learn``
a graph from measurements, ``eval`` a learned graph against the truth.

Commands compose through files only.  Every run writes a ``manifest.json``
recording every parsed option except the file arguments, overlaid with the
values the command resolved (such as the measurement count), so outputs are
reproducible bit-for-bit by re-running with the same arguments.  ``learn``
runs the reference protocol fixed in :mod:`reslearn.learner`; it has no
option for k, r, the sampling ratio or the iteration cap.  Exit codes: 0
success (learning converged or exhausted its candidates), 2 learning
stopped at the iteration cap, 3 input or usage error.

BLAS threads follow ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` set before
the process starts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__, graphs, io, learner, measurements, metrics, spectral

EXIT_OK = 0
EXIT_MAX_ITERATIONS = 2
EXIT_INPUT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    # Usage errors are input errors (exit 3), not the learning-stopped code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _write_manifest(args, inputs, outputs, status, seconds, **resolved):
    """Write ``manifest.json`` into ``args.out``: everything needed to
    reproduce the command's outputs byte-for-byte.

    ``parameters`` holds every parsed option except the file arguments,
    overlaid with the ``resolved`` values.
    """
    parameters = {name: value for name, value in vars(args).items()
                  if name not in ("command", "graph", "x", "y", "truth",
                                  "learned", "out")}
    parameters.update(resolved)
    io.write_json(os.path.join(args.out, "manifest.json"),
                  {"command": args.command, "version": __version__,
                   "parameters": parameters, "inputs": inputs,
                   "outputs": outputs, "status": status,
                   "duration_seconds": seconds})


def _build_parser():
    parser = _Parser(prog="reslearn",
                     description="Learn sparse resistor networks from "
                                 "voltage/current measurements.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("generate",
                         help="generate measurement matrices from a graph")
    gen.add_argument("graph", help="ground-truth graph (.mtx)")
    count = gen.add_mutually_exclusive_group()
    count.add_argument("--m", type=int, default=None,
                       help="number of random current measurements "
                            "(default 50; mutually exclusive with --jl-eps)")
    count.add_argument("--jl-eps", type=float, default=None,
                       help="resistance-sketch distortion target; sets the "
                            "measurement count to ceil(24 ln N / eps^2)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise", type=float, default=0.0,
                     help="relative voltage noise level")
    gen.add_argument("--out", default=".", help="output directory")
    gen.add_argument("--csv", action="store_true",
                     help="write CSV instead of the binary matrix format")

    lrn = sub.add_parser("learn", help="learn a graph from measurements")
    lrn.add_argument("x", help="voltage matrix file (binary or CSV)")
    lrn.add_argument("y", nargs="?", default=None,
                     help="current matrix file (enables edge scaling)")
    lrn.add_argument("--subsample", type=float, default=None,
                     help="keep this fraction of node rows (reduced "
                          "learning; forbids a current file)")
    lrn.add_argument("--seed", type=int, default=0,
                     help="seed for --subsample row selection")
    lrn.add_argument("--out", default=".", help="output directory")

    ev = sub.add_parser("eval",
                        help="compare a learned graph against the truth")
    ev.add_argument("truth", help="ground-truth graph (.mtx)")
    ev.add_argument("learned", help="learned graph (.mtx)")
    ev.add_argument("--pairs", type=int, default=1000,
                    help="node pairs sampled for the resistance scatter")
    ev.add_argument("--spectrum-k", type=int, default=10,
                    help="nontrivial eigenvalues to compare")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", default=".", help="output directory")
    return parser


def _naming(path, check, *args, about=""):
    """``check(*args)``; a ``ValueError`` it raises about ``about`` (such as
    the parameter that the flag ``path`` sets) names ``path`` first."""
    try:
        return check(*args)
    except ValueError as exc:
        if not str(exc).startswith(about):
            raise
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_generate(args):
    graph = io.read_graph_mtx(args.graph)
    _naming(args.graph, graphs._require_int, "node_count", graph.node_count, 2)
    _naming(args.graph, graphs._require_connected, graph)
    _naming("--seed", graphs._require_int, "seed", args.seed, 0)
    started = time.perf_counter()
    if args.jl_eps is not None:
        X, Y = _naming("--jl-eps", measurements.generate_jl_measurements,
                       graph, args.jl_eps, args.seed, about="epsilon ")
    else:
        X, Y = _naming("--m", measurements.generate_measurement_set, graph,
                       args.m if args.m is not None else 50, args.seed,
                       about="count ")
    X = _naming("--noise", measurements.add_noise, X, args.noise,
                args.seed + 1, about="noise_level ")
    m = Y.shape[1]

    os.makedirs(args.out, exist_ok=True)
    ext = "csv" if args.csv else "bin"
    write = io.write_matrix_csv if args.csv else io.write_matrix_binary
    x_path = os.path.join(args.out, f"X.{ext}")
    y_path = os.path.join(args.out, f"Y.{ext}")
    write(x_path, X)
    write(y_path, Y)
    _write_manifest(args, {"graph": args.graph}, {"x": x_path, "y": y_path},
                    "ok", time.perf_counter() - started, m=m)
    print(f"wrote {x_path} and {y_path} "
          f"({graph.node_count} nodes, {m} measurements)")
    return EXIT_OK


def _cmd_learn(args):
    # A refusal names the current file for Y's checks, else the voltage file.
    X = _naming(args.x, learner._as_voltages, io.read_matrix(args.x))
    Y = (_naming(args.y, learner._as_currents, io.read_matrix(args.y), X)
         if args.y else None)
    kept = None
    if args.subsample is not None:
        if Y is not None:
            raise ValueError("reduced-network learning uses voltages only; "
                             "do not pass a current file with --subsample")
        _naming("--seed", graphs._require_int, "seed", args.seed, 0)
        X, kept = _naming("--subsample", measurements.subsample_nodes, X,
                          args.subsample, args.seed, about="fraction ")

    started = time.perf_counter()
    graph, trace = _naming(args.x, learner.learn, X, Y)
    duration = time.perf_counter() - started

    os.makedirs(args.out, exist_ok=True)
    graph_path = os.path.join(args.out, "learned.mtx")
    trace_path = os.path.join(args.out, "trace.csv")
    io.write_graph_mtx(graph_path, graph)
    io.write_table(trace_path, ("iteration", "s_max", "edges"),
                   [rec.iteration for rec in trace.records],
                   trace.s_max_history,
                   [rec.edge_count for rec in trace.records])
    _write_manifest(args, {"x": args.x, "y": args.y},
                    {"graph": graph_path, "trace": trace_path},
                    trace.status, duration,
                    kept_nodes=None if kept is None else kept.tolist())
    last = trace.records[-1].s_max if trace.records else float("nan")
    print(f"{trace.status}: {graph.node_count} nodes, "
          f"{graph.edge_count} edges, {trace.iterations} iterations, "
          f"final s_max {last:.3e}")
    if trace.status == "max_iterations":
        return EXIT_MAX_ITERATIONS
    return EXIT_OK


def _cmd_eval(args):
    """Spectra, resistance scatter and layouts of both graphs.

    Each graph is eigensolved once, for ``max(spectrum_k, 2)`` modes:
    ``spectra.csv`` takes the first ``spectrum_k`` eigenvalues, as
    :func:`metrics.compare_spectra` would give them, and each layout the
    first two (sign-fixed) eigenvectors, as ``eigensolve_smallest(g, 2)``
    would give them; where an eigenvalue repeats, a layout may be another
    orthonormal basis of its eigenspace.
    """
    g_true = io.read_graph_mtx(args.truth)
    g_learned = io.read_graph_mtx(args.learned)
    for path, g in ((args.truth, g_true), (args.learned, g_learned)):
        _naming(path, graphs._require_connected, g)
    if g_true.node_count != g_learned.node_count:
        raise ValueError(
            f"node counts differ: {g_true.node_count} vs "
            f"{g_learned.node_count}")
    if g_true.node_count < 3:
        raise ValueError("layout needs at least 3 nodes")
    if args.spectrum_k < 1:
        raise ValueError(f"--spectrum-k must be >= 1, got {args.spectrum_k}")
    _naming("--seed", graphs._require_int, "seed", args.seed, 0)
    started = time.perf_counter()
    # spectrum_k > N - 1 fails the eigensolve's range check with the
    # message compare_spectra gives.
    (lam_t, u_t), (lam_l, u_l) = (
        _naming("--spectrum-k", spectral.eigensolve_smallest, g,
                max(args.spectrum_k, 2), about="count ")
        for g in (g_true, g_learned))
    pairs, r_t, r_l, corr = _naming(
        "--pairs", metrics.resistance_correlation, g_true, g_learned,
        args.pairs, args.seed, about="pair_count ")

    os.makedirs(args.out, exist_ok=True)
    paths = {
        "spectra": os.path.join(args.out, "spectra.csv"),
        "scatter": os.path.join(args.out, "resistance_scatter.csv"),
        "layout_true": os.path.join(args.out, "layout_true.csv"),
        "layout_learned": os.path.join(args.out, "layout_learned.csv"),
    }
    io.write_table(paths["spectra"],
                   ("index", "lambda_true", "lambda_learned"),
                   range(2, args.spectrum_k + 2), lam_t[:args.spectrum_k],
                   lam_l[:args.spectrum_k])
    io.write_table(paths["scatter"], ("s", "t", "r_true", "r_learned"),
                   *pairs.T, r_t, r_l)
    for name, u in (("layout_true", u_t), ("layout_learned", u_l)):
        io.write_table(paths[name], ("node", "x", "y"),
                       range(g_true.node_count), *u[:, :2].T)
    _write_manifest(args, {"truth": args.truth, "learned": args.learned},
                    paths, "ok", time.perf_counter() - started,
                    pearson_r=corr,
                    edge_counts=[g_true.edge_count, g_learned.edge_count])
    print(f"pearson_r {corr:.6f} over {len(pairs)} pairs; edges "
          f"{g_true.edge_count} true vs {g_learned.edge_count} learned")
    return EXIT_OK


_COMMANDS = {"generate": _cmd_generate, "learn": _cmd_learn,
             "eval": _cmd_eval}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # input/data errors map to a scriptable code
        print(f"reslearn {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
