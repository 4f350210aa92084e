"""Tests of the benchmark itself: references, self-time arithmetic, and
repeatable per-layer counts.  Run with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math

import numpy as np
import pytest

import deltamax as dm
import hostspeed
import spans
import workloads as wl


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["square", "identity", "exp_norm", "log_norm"])
def test_closed_forms_match_catalog(name):
    entry = dm.catalog_lookup(name)
    for p in (0.0, 0.3, 1.0, 3.0, 7.5):
        for eps in (1e-3, 0.1, 1.0, 3.0):
            want = entry.closed_form_delta(p, eps)
            assert wl.CLOSED_FORMS[name](p, eps) == pytest.approx(want, rel=1e-9, abs=1e-15)


def _grid_bracket(f, dom, p, eps, radius, per_axis):
    pt = dm.Point(tuple(np.atleast_1d(p)))
    return dm.grid_delta_bounds(f, dom, pt, eps,
                                dm.GridSpec.around(pt, radius, per_axis, dim=pt.dim))


@pytest.mark.parametrize("name,p,eps", [
    ("square", 3.0, 1.0), ("square", -0.5, 0.2), ("identity", 1.0, 0.4),
    ("mono_exp", 1.0, 0.5), ("mono_exp", -2.0, 2.0),
])
def test_1d_closed_forms_inside_grid_bracket(name, p, eps):
    if name == "mono_exp":
        f = dm.Monotone1DFn(np.exp, (-math.inf, math.inf), True, "exp")
        dom = f.domain_hint()
    else:
        entry = dm.catalog_lookup(name)
        f, dom = entry.function, entry.domain
    ref = wl.CLOSED_FORMS[name](p, eps)
    lower, upper = _grid_bracket(f, dom, p, eps, 2.0 * ref, 4001)
    assert lower <= ref <= upper


@pytest.mark.parametrize("name,p,eps", [
    ("exp_norm", (0.6, -0.8), 0.5), ("log_norm", (1.5, 2.0), 0.3),
])
def test_radial_closed_forms_inside_grid_bracket(name, p, eps):
    entry = dm.catalog_lookup(name)
    ref = wl.CLOSED_FORMS[name](math.hypot(*p), eps)
    lower, upper = _grid_bracket(entry.function, entry.domain, p, eps, 1.5 * ref, 401)
    assert lower <= ref <= upper


@pytest.mark.parametrize("p,eps", [
    ((0.3, -1.1), 0.2), ((1.9, 1.7), 0.05), ((-0.6, 0.0), 1.5), ((0.65, -1.73), 2.79),
])
def test_product_reference_inside_grid_bracket(p, eps):
    f = dm.ExpressionFn.parse("x1*x2")
    box = dm.DomainSpec.box((-2, -2), (2, 2))
    ref = wl.product_delta(*p, eps)
    lower, upper = _grid_bracket(f, box, p, eps, 1.5 * ref, 601)
    assert lower <= ref <= upper


def test_corner_delta_is_the_brute_force_infimum():
    assert wl.product_delta(2.0, 2.0, wl.FIELD_EPS) == pytest.approx(wl.CORNER_DELTA, rel=1e-12)
    f = dm.ExpressionFn.parse("x1*x2")
    box = dm.DomainSpec.box((-2, -2), (2, 2))
    inf, at = dm.brute_force_inf(f, box, wl.FIELD_EPS, dm.GridSpec(h=4.0 / 80, window=box))
    assert max(abs(c) for c in at.coords) == 2.0
    assert wl.CORNER_DELTA <= inf <= wl.CORNER_DELTA + 4.0 / 80 * math.sqrt(2.0)


def test_square_inf_matches_brute_force():
    entry = dm.catalog_lookup("square")
    window = dm.DomainSpec.interval(-2.0, 2.0)
    inf, at = dm.brute_force_inf(entry.function, entry.domain, 0.5,
                                 dm.GridSpec(h=1e-3, window=window))
    assert abs(at.coords[0]) == pytest.approx(2.0, abs=0.01)
    assert inf == pytest.approx(wl.square_delta(2.0, 0.5), abs=2e-3)


# ---------------------------------------------------------------------------
# Checks flag wrong outputs
# ---------------------------------------------------------------------------

def test_checks_flag_a_wrong_value():
    items = [it for it in wl.point_query_items(dm, seed=5)
             if it.kind in ("square", "ray_nd")][:2]
    outputs = [wl.run_item(it) for it in items]
    assert wl.check_point_queries(items, outputs).correct
    bad = [dm.DeltaResult(value=1.5 * o.value, witness=o.witness,
                          certified_lower=o.certified_lower,
                          certified_upper=1.5 * o.value, backend=o.backend)
           for o in outputs]
    chk = wl.check_point_queries(items, bad)
    assert len(chk.wrong) == 2
    failed = wl.check_point_queries(items, [RuntimeError("boom"), outputs[1]])
    assert failed.failed == 1 and failed.correct


# ---------------------------------------------------------------------------
# Host-speed rescaling
# ---------------------------------------------------------------------------

def test_scaled_drops_probe_time_and_rescales():
    host = hostspeed.HostSpeed()
    ref = hostspeed.REF_PROBE_S
    host.starts = [0.0, 0.1, 0.2, 5.0]
    host.probes = [2 * ref, 2 * ref, 4 * ref, 100 * ref]
    # [0.05, 0.15] holds the probe at 0.1; the probes within 0.25 s of it
    # take twice the reference time (median); the one at 5.0 is too far.
    assert host.scaled(0.05, 0.15) == pytest.approx((0.1 - 2 * ref) / 2)
    with pytest.raises(RuntimeError):
        host.scaled(2.0, 3.0)


def test_sampling_runs_on_a_timer_and_stops():
    import signal
    import time

    with hostspeed.HostSpeed() as host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(host.starts) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert host.speed() > 0


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_on_synthetic_tree():
    # root [0, 100) has children [10, 30) and [20, 50) (overlapping) and
    # [90, 120) (running past the root); the first child has a grandchild.
    tree = [
        ["root", 0, 100, -1, 0, None],
        ["a", 10, 30, 0, 0, None],
        ["b", 20, 50, 0, 0, None],
        ["c", 90, 120, 0, 0, None],
        ["a1", 12, 18, 1, 0, None],
    ]
    assert spans.self_times(tree) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_self_times_add_up_to_the_roots():
    tree = [
        ["root", 0, 50, -1, 0, None],
        ["x", 5, 25, 0, 0, None],
        ["y", 6, 10, 1, 0, None],
        ["z", 12, 20, 1, 0, None],
        ["w", 30, 45, 0, 0, None],
    ]
    assert sum(spans.self_times(tree)) == 50


def test_layer_metrics_count_outermost_evaluators_and_deltas():
    tree = [
        [spans.ROOT, 0, 100, -1, 0, None],
        [spans.COMPUTE_DELTA, 1, 99, 0, 0, "radial"],
        [spans.LINE_FIELD, 2, 98, 1, 1, None],
        [spans.EVALUATOR, 3, 10, 2, 40, None],
        [spans.EVALUATOR, 4, 9, 3, 40, None],   # radial profile inside
        [spans.EXPR, 5, 8, 4, 40, None],
        [spans.EVALUATOR, 11, 12, 2, 20, None],
    ]
    m = spans.layer_metrics(tree, points_constructed=3)
    assert m["model.evaluator.calls"] == 2
    assert m["model.evaluator.points"] == 60
    assert m["expr.eval_ast_array.points"] == 40
    assert m["search.points_per_delta"] == 60.0
    assert m["delta.backend.radial.calls"] == 1
    assert m["model.Point.constructed"] == 3
    assert m["model.evaluator.self_s"] == pytest.approx((7 - 5 + 5 - 3 + 1) * 1e-9)


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def _small_items():
    """One point query per backend kind plus two short infimum scans that
    go through uc's nD and 1-d stage paths."""
    picked = {}
    for it in wl.point_query_items(dm, seed=11):
        picked.setdefault(it.kind, it)
    items = list(picked.values())
    f = dm.ExpressionFn.parse("x1*x2")
    box = dm.DomainSpec.box((-2, -2), (2, 2))
    items.append(wl.Item("field", lambda: dm.infimum_delta(f, box, 0.5, schedule=[(box, 3)]),
                         None))
    g = dm.ExpressionFn.parse("sqrt(x)")
    half = dm.DomainSpec.half_line(0.0)
    schedule = dm.default_schedule(half, stages=2, resolution=64)
    items.append(wl.Item("inf1d", lambda: dm.infimum_delta(g, half, 0.5, schedule=schedule),
                         None))
    return items


def _traced(items):
    tracer = spans.Tracer()
    tracer.install()
    try:
        outputs = [tracer.root(lambda it=it: wl.run_item(it)) for it in items]
    finally:
        tracer.uninstall()
    return tracer, outputs


def test_per_layer_counts_repeat_exactly():
    items = _small_items()
    spans.assert_unwrapped()
    first, out1 = _traced(items)
    spans.assert_unwrapped()
    second, out2 = _traced(items)
    spans.assert_unwrapped()
    assert [wl.summary(o) for o in out1] == [wl.summary(o) for o in out2]
    m1 = spans.layer_metrics(first.spans, first.points_constructed)
    m2 = spans.layer_metrics(second.spans, second.points_constructed)
    counts = [name for name, unit, _ in spans.LAYER_METRICS if unit == "count"]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    for name in ("expr.eval_ast_array.calls", "model.evaluator.points",
                 "model.contains_rows.rows", "model.Point.constructed",
                 "search.scan_side.columns", "search.line_field.points",
                 "oracle.grid_delta_bounds.grid_points", "uc.stages"):
        assert m1[name] > 0, name
    assert m1["delta.compute_delta.calls"] == len(wl.CHEAP_KINDS) + 1 + 9
    assert all(m1[f"delta.backend.{b}.calls"] > 0 for b in spans.BACKENDS)
    # Every span closed, and self times cover the roots' wall time exactly.
    assert all(rec[2] >= rec[1] > 0 for rec in first.spans)
    roots = sum(r[2] - r[1] for r in first.spans if r[3] == -1)
    assert sum(spans.self_times(first.spans)) == roots


def test_untraced_run_sees_original_functions():
    from deltamax import delta, search, uc

    original = search.line_field
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert uc.line_field is not original and delta.line_field is not original
        with pytest.raises(RuntimeError):
            spans.assert_unwrapped()
    finally:
        tracer.uninstall()
    spans.assert_unwrapped()
    assert uc.line_field is original and delta.line_field is original
