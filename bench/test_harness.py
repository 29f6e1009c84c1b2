"""Self-tests of the benchmark harness on tiny graphs.

Run from the root of the repository::

    python3 -m pytest -q bench/test_harness.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import reslearn  # noqa: E402
import run  # noqa: E402
import reslearn.learner  # noqa: E402
import reslearn.spectral  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


def test_self_seconds_subtract_direct_children_only():
    t = tr.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with t.span("outer"):          # 0..10
        with t.span("a"):          # 1..4
            with t.span("leaf"):   # 2..3
                pass
        with t.span("b"):          # 5..6
            pass
    assert [s.name for s in t.spans] == ["outer", "a", "leaf", "b"]
    assert [s.parent for s in t.spans] == [None, 0, 1, 0]
    assert tr.self_seconds(t.spans) == [6.0, 2.0, 1.0, 1.0]


def test_totals_count_nested_same_name_once_inclusive():
    t = tr.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 7]))
    with t.span("io.read"):        # 0..4
        with t.span("io.read"):    # 1..3
            pass
    with t.span("io.read"):        # 5..7
        pass
    got = tr.totals(t.spans)["io.read"]
    assert got.calls == 3
    assert got.self_s == pytest.approx(6.0)
    assert got.inclusive_s == pytest.approx(6.0)


def test_span_closes_when_the_call_raises():
    t = tr.Tracer(clock=FakeClock([0, 2]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap(boom, "boom")()
    assert t.spans[0].seconds == 2.0 and not t._open


def test_missing_targets_become_absent_spans():
    probes = (tr.Probe("gone.module", "reslearn.no_such_module", "f"),
              tr.Probe("gone.attr", "reslearn.spectral", "no_such_function"),
              tr.Probe("gone.method", "reslearn.graphs", "NoClass.method"))
    t = tr.Tracer()
    with tr.installed(t, probes):
        pass
    assert t.spans == []
    metrics = tr.layer_metrics(t.spans)
    assert metrics["spectral.solve_laplacian.calls"] == 0
    assert metrics["learner.included_per_scored"] == 0.0


def test_failing_count_hook_drops_the_count_not_the_call():
    t = tr.Tracer()
    traced = t.wrap(lambda x: x + 1, "f", count=lambda a, k, r: {"n": r[0]})
    assert traced(1) == 2
    assert t.spans[0].counts == {}


def _tiny_voltages(side=6, m=8, seed=0):
    g = reslearn.grid_graph(side, side)
    direct = oracle.GroundedLaplacian(g.node_count, g.sources, g.targets,
                                      g.weights)
    Y = reslearn.generate_currents(g.node_count, m, seed)
    return g, direct.solve(Y), Y


def test_probes_see_calls_through_every_alias_and_restore_them():
    originals = {name: getattr(reslearn.learner, name)
                 for name in ("eigensolve_smallest", "init_graph", "learn")}
    _, X, Y = _tiny_voltages()
    t = tr.Tracer()
    with tr.installed(t):
        assert reslearn.learn is reslearn.learner.learn
        assert reslearn.learner.learn is not originals["learn"]
        graph, trace = reslearn.learn(X, Y)
    for name, fn in originals.items():
        assert getattr(reslearn.learner, name) is fn
    assert reslearn.spectral.eigensolve_smallest is \
        originals["eigensolve_smallest"]
    m = tr.layer_metrics(t.spans)
    assert m["learner.iterations"] == trace.iterations
    assert m["spectral.eigensolve_smallest.calls"] == trace.iterations
    assert m["spectral.solve_laplacian.calls"] == X.shape[1]
    assert m["learner.edges_included"] == graph.edge_count - (X.shape[0] - 1)
    assert m["graphs.with_edges.s"] > 0


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    produced = set(tr.layer_metrics([])) | {"trace_overhead",
                                            "metrics.spectrum_err_max"}
    assert listed == produced


def test_oracle_matches_dense_pseudoinverse(monkeypatch):
    rng = np.random.default_rng(3)
    n = 12
    edges = {(i, i + 1) for i in range(n - 1)}
    edges |= {tuple(sorted(rng.choice(n, 2, replace=False)))
              for _ in range(10)}
    s, t = (np.asarray(v) for v in zip(*sorted(edges)))
    w = rng.uniform(0.5, 2.0, len(s))
    direct = oracle.GroundedLaplacian(n, s, t, w)
    pinv = np.linalg.pinv(direct.matrix.toarray(), hermitian=True)
    pairs = np.asarray([(0, 5), (3, 11), (2, 7), (1, 0), (4, 9), (6, 8)])
    expected = [pinv[a, a] + pinv[b, b] - 2 * pinv[a, b] for a, b in pairs]
    np.testing.assert_allclose(direct.resistances(pairs), expected,
                               rtol=1e-12)
    monkeypatch.setattr(oracle, "RESISTANCE_BLOCK", 3)  # several blocks
    np.testing.assert_allclose(direct.resistances(pairs), expected,
                               rtol=1e-12)
    Y = rng.standard_normal((n, 3))
    Y -= Y.mean(axis=0)
    assert direct.relative_residual(direct.solve(Y), Y) < 1e-12


@pytest.mark.parametrize("workload", [
    workloads.GridPipeline(side=12, measurements=10, pairs=20),
    workloads.VoltagesOnly(side=12, measurements=10, pairs=20),
])
def test_tiny_jobs_pass_their_checks_traced(workload, tmp_path):
    inputs = workload.setup(0, str(tmp_path))
    inputs.update(workload.reference(inputs, 0))
    t = tr.Tracer()
    stage, seconds = run.stage_runner(t, {})
    with tr.installed(t):
        outcome = workload.job(inputs, 0, stage, t.span, str(tmp_path))
    assert set(seconds) == {"generate", "learn", "eval"}
    assert tr.totals(t.spans)["stage.learn"].calls == 1
    assert 0 < outcome.quality["edges_per_node"] <= 2
    outcome.relearn()


def test_stages_repeat_a_fixed_count_and_report_the_fastest():
    t = tr.Tracer(clock=FakeClock([0, .5, 1, 1.125, 2, 3.25, 4, 5]))
    stage, seconds = run.stage_runner(t, {"eval": 3})
    assert stage("eval", lambda: "out") == "out"
    assert seconds["eval"] == pytest.approx(0.125)
    assert len(t.spans) == 3
    assert stage("learn", lambda: None) is None   # not listed: runs once
    assert len(t.spans) == 4


def test_best_per_input_takes_each_inputs_fastest_then_the_mean():
    jobs = [{"seed": 4, "learn_s": 3.0}, {"seed": 5, "learn_s": 1.0},
            {"seed": 4, "learn_s": 2.0}, {"seed": 5, "learn_s": 1.5}]
    assert run.best_per_input(jobs, "learn_s") == pytest.approx(1.5)


def test_speed_scaled_divides_by_the_calibration_figure(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_CALIBRATION_S", 0.25)
    assert run.speed_scaled(2.0, 0.5) == pytest.approx(1.0)
    monkeypatch.setattr(run, "CALIBRATION_SOLVES", 2)
    assert run.calibration_kernel()() > 0


def test_checks_reject_a_disconnected_graph():
    with pytest.raises(workloads.CheckFailed):
        workloads._check_learned(4, np.array([0, 2]), np.array([1, 3]),
                                 np.ones(2))
