"""The line engine with and without interval enclosures of the expression,
on a batch and point by point, and scan_side with and without a reach.

Skipping a detect window that the enclosure proves clear, or every window
past a ray's bounding-box exit, must not change any crossing, bit for bit;
nor may settling a batch's brackets together.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltamax.delta import _box_exit
from deltamax.model import (
    DomainSpec,
    ExpressionFn,
    Monotone1DFn,
    NormTag,
    array_evaluator,
    enclosure_evaluator,
    norm_of_rows,
)
from deltamax.search import _first_crossing, line_field, scan_side

INF = math.inf

# (source, lo, hi, open_lo, open_hi, base points)
CASES = {
    "sqrt": ("sqrt(x)", 0.0, INF, False, True, np.linspace(0.0, 40.0, 300)),
    "sin_inv": ("sin(1/x)", 0.0, 1.0, True, False, np.linspace(1e-3, 1.0, 300)),
    "square": ("x^2", -INF, INF, True, True, np.linspace(-10.0, 10.0, 300)),
    "ln_profile": ("ln(r)", 0.0, INF, True, True, np.geomspace(1e-3, 50.0, 300)),
}


@pytest.mark.parametrize("eps", [1e-3, 0.5, 3.0])
@pytest.mark.parametrize("name", sorted(CASES))
def test_enclosure_leaves_field_bit_identical(name, eps):
    src, lo, hi, open_lo, open_hi, ps = CASES[name]
    f = ExpressionFn.parse(src)
    g = getattr(f, "inner", f)  # the profile of a radial function
    args = (array_evaluator(g), ps, eps, lo, hi, open_lo, open_hi)
    sampled = line_field(*args, detect_points=1024)
    enclosed = line_field(*args, detect_points=1024, f_enc=enclosure_evaluator(g))
    for field in dataclasses.fields(sampled):
        if field.name == "enclosed_rounds":
            continue
        assert np.array_equal(getattr(sampled, field.name), getattr(enclosed, field.name),
                              equal_nan=True), field.name
    assert not sampled.enclosed_rounds.any()
    assert enclosed.enclosed_rounds.sum() > 0


@pytest.mark.parametrize("enclose", [False, True], ids=["sampled", "enclosed"])
@pytest.mark.parametrize("eps", [1e-3, 0.5, 3.0])
@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_field_matches_points_alone(name, eps, enclose):
    # Both sides of every point in a batch are settled together; no
    # column may leak into another.
    src, lo, hi, open_lo, open_hi, ps = CASES[name]
    f = ExpressionFn.parse(src)
    g = getattr(f, "inner", f)  # the profile of a radial function
    f_arr, f_enc = array_evaluator(g), enclosure_evaluator(g) if enclose else None

    def field_of(pts):
        return line_field(f_arr, pts, eps, lo, hi, open_lo, open_hi, f_enc=f_enc)

    ps = ps[::8]
    batch = field_of(ps)
    alone = [field_of(ps[i:i + 1]) for i in range(ps.size)]
    for field in dataclasses.fields(batch):
        got = np.concatenate([getattr(res, field.name) for res in alone])
        assert np.array_equal(getattr(batch, field.name), got, equal_nan=True), field.name


def test_only_1d_expressions_have_an_enclosure():
    assert enclosure_evaluator(ExpressionFn.parse("x1^2")) is not None
    assert enclosure_evaluator(ExpressionFn.parse("x1*x2")) is None
    assert enclosure_evaluator(ExpressionFn.parse("exp(r)", dim=2)) is None
    assert enclosure_evaluator(Monotone1DFn(np.exp, (0.0, 1.0), True)) is None


RAY_DOMAINS = {
    "box": DomainSpec.box((-2.0, -1.0), (3.0, 0.5)),
    "l2_ball": DomainSpec.ball((0.5, -0.5), 2.0),
    "l1_ball": DomainSpec.ball((0.0, 1.0), 1.5, norm=NormTag.L1),
    "linf_ball": DomainSpec.ball((1.0, 0.0), 1.0, norm=NormTag.LINF),
    "annulus": DomainSpec.annulus((0.0, 0.0), 1.0, 5.0),
    "box_3d": DomainSpec.box((-1.0, -1.0, 0.0), (1.0, 2.0, 1.0)),
    "half_box": DomainSpec.box((-1.0, -1.0), (math.inf, 1.0)),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(RAY_DOMAINS))
def test_reach_leaves_ray_crossings_bit_identical(name, seed):
    dom = RAY_DOMAINS[name]
    rng = np.random.default_rng(seed)
    dim = dom.dimension
    lo, hi = dom.bounding_box(truncate=4.0)
    cand = lo + (hi - lo) * rng.random((400, dim))
    pts = cand[dom.contains_rows(cand)][:4]
    on_face = pts[0].copy()
    on_face[0] = lo[0]
    if dom.contains_rows(on_face[None, :])[0]:
        pts[0] = on_face
    f_arr = array_evaluator(ExpressionFn.parse("x1*x2+sin(3*x1)" if dim == 2 else "x1*x2-x3"),
                            norm=dom.norm)
    dirs = rng.standard_normal((24, dim))
    dirs[:dim] = np.eye(dim)  # axis rays, some of them along a face
    dirs /= norm_of_rows(dom.norm, dirs)[:, None]
    for p in pts:
        fp = float(f_arr(p[None, :])[0])
        eps = float(np.exp(rng.uniform(np.log(1e-2), np.log(20.0))))

        def eval_at(cols, ts):
            x = p[None, None, :] + ts[:, :, None] * dirs[cols][None, :, :]
            flat = x.reshape(-1, dim)
            return f_arr(flat).reshape(ts.shape), dom.contains_rows(flat).reshape(ts.shape)

        n = dirs.shape[0]
        args = (eval_at, np.full(n, fp), eps, np.full(n, float(np.max(np.abs(p)))))
        full = scan_side(*args, detect_points=256)
        capped = scan_side(*args, detect_points=256, reach=_box_exit(dom, p, dirs))
        assert np.array_equal(full.root, capped.root, equal_nan=True)
        assert np.array_equal(full.root_h, capped.root_h, equal_nan=True)
        assert np.all(capped.searched <= full.searched)


def _crossing_by_loop(ts, h, valid, carry_t):
    """_first_crossing column by column: the first valid h >= 0 sample and
    the last valid sample before it (every valid sample without one)."""
    k, m = h.shape
    out = [np.zeros(m, dtype=bool)] + [np.full(m, np.nan) for _ in range(3)]
    for j in range(m):
        hits = [i for i in range(k) if valid[i, j] and h[i, j] >= 0.0]
        first = hits[0] if hits else k
        prior = [i for i in range(first) if valid[i, j]]
        out[0][j] = bool(hits)
        out[1][j] = ts[prior[-1], j] if prior else carry_t[j]
        if hits:
            out[2][j], out[3][j] = ts[first, j], h[first, j]
    return tuple(out)


H_SAMPLE = st.sampled_from([-1.0, -0.25, 0.0, 0.5, math.inf])


@st.composite
def windows(draw):
    """(ts, h, valid, carry_t) of a detect window: increasing offsets per
    column; valid is all True or has holes, as the callers pass it."""
    k = draw(st.integers(1, 7))
    m = draw(st.integers(1, 5))
    steps = np.array(draw(st.lists(st.sampled_from([0.125, 0.5, 1.0]), min_size=k * m,
                                   max_size=k * m))).reshape(k, m)
    ts = np.cumsum(steps, axis=0)
    h = np.array(draw(st.lists(H_SAMPLE, min_size=k * m, max_size=k * m))).reshape(k, m)
    if draw(st.booleans()):
        valid = np.ones((k, m), dtype=bool)
    else:
        valid = np.array(draw(st.lists(st.booleans(), min_size=k * m,
                                       max_size=k * m))).reshape(k, m)
    carry_t = -np.arange(1, m + 1, dtype=float)
    return ts, h, valid, carry_t


def _window(h, valid):
    h = np.array(h, dtype=float)
    ts = np.cumsum(np.full(h.shape, 0.5), axis=0)
    return ts, h, np.array(valid, dtype=bool), -np.arange(1.0, h.shape[1] + 1)


@settings(max_examples=300, deadline=None)
@given(windows())
# All valid: a crossing at row 0 (carry_t), mid-column, and none at all.
@example(_window([[0.5, -1.0, -1.0], [-1.0, 0.0, -1.0], [-1.0, 0.5, -1.0]], [[True] * 3] * 3))
# Holes: the only sample before the crossing is invalid (carry_t again),
# an invalid violator is skipped, and a column with no valid sample.
@example(_window([[-1.0, 0.5, -1.0], [0.5, -1.0, 0.5], [0.5, 0.5, -1.0]],
                 [[False, False, False], [True, True, False], [True, True, False]]))
def test_first_crossing_fast_path_matches_masked_scan(window):
    ts, h, valid, carry_t = window
    got = _first_crossing(ts, h, valid, carry_t)
    for a, b in zip(got, _crossing_by_loop(ts, h, valid, carry_t)):
        assert np.array_equal(a, b, equal_nan=True)
    if valid.all():
        # An invalid last row changes no bracket but takes the masked scan.
        pad = (np.vstack((ts, ts[-1:] + 1.0)), np.vstack((h, np.full_like(h[:1], 0.5))),
               np.vstack((valid, np.zeros_like(valid[:1]))), carry_t)
        for a, b in zip(got, _first_crossing(*pad)):
            assert np.array_equal(a, b, equal_nan=True)
