"""Tests of the benchmark's span tracer.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import crossarfima  # noqa: E402
import crossarfima.cli  # noqa: E402
import spans  # noqa: E402


def _package_bindings():
    """Every attribute of every loaded crossarfima module, by (module, name)."""
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "crossarfima" or name.startswith("crossarfima.")
        for attr, value in vars(mod).items()
    }


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    span_list = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["d", 5.0, 9.0, 0, 0, None],
    ]
    assert spans.self_times(span_list) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_sum_self_time_per_name_and_run():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = tracer.wrap(inner, "models.simulate")

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 0.5

    wrapped_outer = tracer.wrap(outer, "cli.main")
    wrapped_outer()
    tracer.run = 1
    wrapped_outer()
    m0 = spans.layer_metrics(tracer.spans, 0)
    assert m0["cli.main.calls"] == 1 and m0["cli.main.self_s"] == pytest.approx(1.5)
    assert m0["models.simulate.calls"] == 2 and m0["models.simulate.self_s"] == pytest.approx(4.0)
    assert spans.layer_metrics(tracer.spans, 1) == m0


def test_work_counters_are_booked_to_no_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def slow_count(args, kwargs, result):
        clock.now += 100.0
        return {"points": 1}

    def inner():
        clock.now += 2.0

    wrapped_inner = tracer.wrap(inner, "estimators.dfa", work=slow_count)

    def outer():
        clock.now += 1.0
        wrapped_inner()

    tracer.wrap(outer, "cli.main", work=slow_count)()
    assert spans.self_times(tracer.spans) == [1.0, 2.0]
    assert [s[5] for s in tracer.spans] == [{"points": 1}, {"points": 1}]


def test_install_then_uninstall_restores_every_attribute():
    before = _package_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = _package_bindings()
        # both lookups of dcca, and the package-level re-export, are wrapped
        for mod, attr in (("crossarfima.cli", "dcca"), ("crossarfima.estimators", "dcca"),
                          ("crossarfima", "dcca"), ("crossarfima.cli", "main"),
                          ("crossarfima.cli", "ProcessPoolExecutor")):  # fmt: skip
            assert patched[(mod, attr)] is not before[(mod, attr)]
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_dcca_inside_dfa_counts_under_dfa():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 2000))
    tracer = spans.Tracer()
    tracer.install()
    try:
        crossarfima.estimators.dfa(x, s_min=10, s_max=100, step=10)
        crossarfima.estimators.dcca(x, y, s_min=10, s_max=400, step=10)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans, 0)
    assert m["estimators.dfa.calls"] == 1 and m["estimators.dcca.calls"] == 1
    assert m["estimators.dfa.scales"] == 10 and m["estimators.dcca.scales"] == 40
    # n_boxes * s summed over scales: each scale covers all but T mod s points
    assert m["estimators.dfa.Mpoints_per_s"] > 0
    assert tracer.spans[0][3] == -1 and tracer.spans[1][3] == -1


def test_fit_failures_and_scale_yield_are_counted():
    fluct = crossarfima.FluctuationSeries(
        scales=np.arange(1, 7), values=np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]), method="dcca"
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.warns(UserWarning), pytest.raises(crossarfima.InsufficientDataError):
            crossarfima.estimators.fit_hurst(fluct)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans, 0)
    assert m["estimators.fit_hurst.calls"] == 1
    assert m["estimators.fit_hurst.failed"] == 1
    assert m["estimators.fit_hurst.scale_yield"] == 0.0


def test_benchmark_json_matches_the_workloads_and_layer_metrics():
    import json

    from workloads import WORKLOADS

    spec = json.loads((_BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(spans.layer_metrics([], 0)) + ["trace.overhead_s"]
