"""Fast checks of the benchmark's own machinery; no workload is timed."""

import numpy as np
import pytest

import rsmcanon
from perfbench import inputs, metrics, spans, speed, workloads


def test_same_seed_same_inputs():
    a, b = inputs.emissions(7), inputs.emissions(7)
    assert a.csv_text == b.csv_text
    assert np.array_equal(a.totals, b.totals) and np.array_equal(a.extra, b.extra)
    for m1, m2 in zip(inputs.canon_models(7), inputs.canon_models(7)):
        assert m1.names == m2.names and m1.intercept == m2.intercept
        assert np.array_equal(m1.interaction, m2.interaction)
        assert np.array_equal(m1.linear, m2.linear)
    assert inputs.emissions(8).csv_text != a.csv_text


def test_graded_spectrum_spans_four_decades():
    for m in inputs.canon_models(3):
        lam = np.linalg.eigvalsh(m.interaction)
        mags = np.abs(lam)
        assert mags.max() / mags.min() == pytest.approx(1e4, rel=1e-6)
        assert (lam > 0).any() and (lam < 0).any()
        assert np.allclose(-0.5 * np.linalg.solve(m.interaction, m.linear), m.center, rtol=1e-8)


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = metrics.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = metrics.tail([5.0] * 3 + list(range(100, 108)))
    assert (value, n) == (5.0, 11) and pct == pytest.approx(100 / 11)
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_ops_per_s_uses_interquartile_mean_per_cycle_position():
    assert metrics.interquartile_mean([9.0, 1.0, 2.0, 3.0, 100.0, 2.0, 3.0, 2.5]) == pytest.approx(2.625)
    # positions 0 and 1 of a two-op cycle; one misjudged op per position
    latencies = [0.1, 0.3, 0.1, 0.3, 0.9, 0.3, 0.1, 0.0]
    assert metrics.ops_per_s(latencies, 2, 0) == pytest.approx(2 / 0.4)
    assert metrics.ops_per_s(latencies, 2, 2) == pytest.approx(0.75 * 2 / 0.4)


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_covered_child_time():
    tree = [
        _span("op", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 5.0, 9.0, 0),
        _span("d", 8.0, 9.5, 3),   # runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.5])


def test_wrappers_reach_imported_names_and_restore():
    original = rsmcanon.linalg.jacobi_eigen
    model = rsmcanon.load_bundled_eu_model()
    rec = spans.SpanRecorder()
    restore = spans.install(rec)
    try:
        assert rsmcanon.canonical.jacobi_eigen is not original
        assert rsmcanon.fitting.jacobi_eigen is rsmcanon.canonical.jacobi_eigen
        rec.run_op(1, rsmcanon.run_analysis, model)
    finally:
        restore()
    assert rsmcanon.canonical.jacobi_eigen is original
    assert rsmcanon.report.canonicalize is rsmcanon.canonical.canonicalize
    names = [s.name for s in rec.spans]
    assert names.count("linalg.jacobi_eigen") == 2 and names.count("linalg.solve") == 1
    solve = names.index("linalg.solve")
    assert rec.spans[solve].parent == names.index("canonical.canonicalize")
    assert rec.spans[solve + 1].parent == solve and all(s.op == 1 for s in rec.spans)


def test_printed_names_match_benchmark_json():
    declared = metrics.declared()
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]}
    values = metrics.end_to_end([0.01, 0.02, 0.03], 3, 0, [0.5], 0.1, 40.0)
    line = metrics.result_line("end_to_end", values, 3, 0)
    assert '"correct": true' in line
    per_layer = {m["name"]: 1.0 for m in declared["per_layer"]}
    metrics.result_line("per_layer", per_layer, 1, 0)
    with pytest.raises(ValueError):
        metrics.result_line("per_layer", {**per_layer, "undeclared": 1.0}, 1, 0)
    del per_layer["trace.overhead_ratio"]
    with pytest.raises(ValueError):
        metrics.result_line("per_layer", per_layer, 1, 0)


def test_speed_factor_uses_kernels_next_to_each_op():
    unit = speed.NOMINAL_S
    kernels = [(0.0, unit), (1.0, 3 * unit), (1.2, 3 * unit), (1.21, 5 * unit), (3.0, 2 * unit)]
    ops = [(0.001, 0.999), (1.201, 1.209), (1.211, 2.999)]
    assert speed.factors(ops, kernels) == pytest.approx([2.0, 4.0, 3.0])
