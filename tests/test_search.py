"""The line engine with and without interval enclosures of the expression,
on a batch and point by point, in full and in minimum mode, scan_side
with and without a reach, the one bracket inverter, _ksection, and the
one side join of both line engines.

Skipping a detect window that the enclosure proves clear, or every window
past a ray's bounding-box exit, must not change any crossing, bit for bit;
nor may settling a batch's brackets together, nor settling only the
brackets that can hold the field's minimum, nor sampling detect rows
densely only up to that minimum's bound.  _ksection must return valid
samples on both sides of the crossing, inside the bracket it was given,
and stop by its stop rule.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deltamax as dm
from deltamax import search
from deltamax.delta import _box_exit, line_problem
from deltamax.model import (
    DomainSpec,
    ExpressionFn,
    Monotone1DFn,
    NormTag,
    array_evaluator,
    interval_extensions,
    norm_of_rows,
)
from deltamax.search import (
    _BLOCK_SAMPLES,
    _FRAC_FINE,
    _PROBE_ROWS,
    TOL_F,
    TOL_X,
    _first_crossing,
    _h_of,
    _ksection,
    _pad,
    _scan_rows,
    Line,
    _sampled_field,
    _sweep,
    line_field,
    scan_side,
)

# The engines' parts (_sampled_field, _sweep, scan_side, _box_exit, ...)
# leave numpy's floating-point warnings to their caller's errstate, which
# line_field and every public entry set; these tests call them bare.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

INF = math.inf
UNIT = DomainSpec.interval(0.0, 1.0, open_lo=True)  # (0, 1]
REALS_1D = DomainSpec.interval(-INF, INF)

# (source, lo, hi, open_lo, open_hi, base points)
CASES = {
    "sqrt": ("sqrt(x)", 0.0, INF, False, True, np.linspace(0.0, 40.0, 300)),
    "sin_inv": ("sin(1/x)", 0.0, 1.0, True, False, np.linspace(1e-3, 1.0, 300)),
    "square": ("x^2", -INF, INF, True, True, np.linspace(-10.0, 10.0, 300)),
    "ln_profile": ("ln(r)", 0.0, INF, True, True, np.geomspace(1e-3, 50.0, 300)),
}


def _line(f_arr, lo, hi, open_lo, open_hi, enclose=None):
    """The search.Line of f_arr between lo and hi, with no f' enclosure
    and no monotone claim."""
    return Line(f_arr, enclose, None, lo, hi, open_lo, open_hi, False)


@pytest.mark.parametrize("eps", [1e-3, 0.5, 3.0])
@pytest.mark.parametrize("name", sorted(CASES))
def test_enclosure_leaves_field_bit_identical(name, eps):
    src, lo, hi, open_lo, open_hi, ps = CASES[name]
    f = ExpressionFn.parse(src)
    g = getattr(f, "inner", f)  # the profile of a radial function
    g_arr = array_evaluator(g)
    sampled = _sampled_field(_line(g_arr, lo, hi, open_lo, open_hi), ps, eps, 1024)
    enclosed = _sampled_field(_line(g_arr, lo, hi, open_lo, open_hi,
                                    interval_extensions(g, g_arr)[0]), ps, eps, 1024)
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
    g_arr = array_evaluator(g)
    line = _line(g_arr, lo, hi, open_lo, open_hi,
                 interval_extensions(g, g_arr)[0] if enclose else None)

    def field_of(pts):
        return _sampled_field(line, pts, eps)

    ps = ps[::8]
    batch = field_of(ps)
    alone = [field_of(ps[i:i + 1]) for i in range(ps.size)]
    for field in dataclasses.fields(batch):
        got = np.concatenate([getattr(res, field.name) for res in alone])
        assert np.array_equal(getattr(batch, field.name), got, equal_nan=True), field.name


def _extensions(f):
    return interval_extensions(f, array_evaluator(f))


def test_each_kind_of_spec_has_its_interval_extensions():
    # A 1-d expression encloses f and f'; a Monotone1DFn has its claimed
    # hull of f and no slope; a 1-d RadialFn g(|x|) has g's over |[lo, hi]|
    # and g'(|x|) sign(x); an nD expression and a radial function in
    # dimension 2 have neither, and keep sampling.
    enclose, slope = _extensions(ExpressionFn.parse("x1^2"))
    lo, hi = np.array([1.0, -3.0]), np.array([2.0, -2.0])
    assert np.all(enclose(lo, hi)[0] <= np.array([1.0, 4.0]))
    assert np.all(enclose(lo, hi)[1] >= np.array([4.0, 9.0]))
    assert np.all(slope(lo, hi)[0] <= np.array([2.0, -6.0]))
    assert np.all(slope(lo, hi)[1] >= np.array([4.0, -4.0]))
    assert _extensions(ExpressionFn.parse("x1*x2")) == (None, None)
    assert _extensions(ExpressionFn.parse("exp(r)", dim=2)) == (None, None)
    enclose, slope = _extensions(ExpressionFn.parse("r^2", dim=1))
    lo, hi = np.array([1.0, -3.0, -1.0]), np.array([2.0, -2.0, 2.0])
    assert np.all(enclose(lo, hi)[0] <= np.array([1.0, 4.0, 0.0]))
    assert np.all(enclose(lo, hi)[1] >= np.array([4.0, 9.0, 4.0]))
    assert np.all(slope(lo, hi)[0] <= np.array([2.0, -6.0, -2.0]))
    assert np.all(slope(lo, hi)[1] >= np.array([4.0, -4.0, 4.0]))
    # A window that meets 0 is never proved monotone.
    d_lo, d_hi = slope(np.array([-1.0, 0.0]), np.array([2.0, 1.0]))
    assert np.all(d_lo <= 0.0) and np.all(d_hi >= 0.0)
    claimed, slope = _extensions(Monotone1DFn(np.exp, (0.0, 1.0), True))
    assert slope is None
    c_lo, c_hi = claimed(np.array([0.0, 0.25]), np.array([0.5, 1.0]))
    assert np.all(c_lo < np.exp([0.0, 0.25])) and np.all(c_hi > np.exp([0.5, 1.0]))


@pytest.mark.parametrize("shape", [(5,), (2, 2, 3, search._RUNGS)])
@pytest.mark.parametrize("src", ["3", "2*x"])
def test_extensions_are_shaped_like_their_inputs(src, shape):
    # A constant f (3) or f' (that of 2*x) comes out as arrays shaped like
    # the intervals, as the walk's windows and proof ladders read them.
    lo = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
    for ext in _extensions(ExpressionFn.parse(src)):
        for end in ext(lo, lo + 0.5):
            assert isinstance(end, np.ndarray) and end.shape == shape


@st.composite
def _radial_windows(draw):
    """An interval [lo, hi] all negative, all positive or across 0."""
    a, b = draw(st.floats(1e-3, 20.0)), draw(st.floats(1e-3, 20.0))
    kind = draw(st.sampled_from(["negative", "positive", "across"]))
    if kind == "across":
        return -a, b
    lo, hi = sorted((a, b))
    return (-hi, -lo) if kind == "negative" else (lo, hi)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(["r^2", "exp(r)", "sqrt(r) + r", "sin(r)"]), _radial_windows())
def test_1d_radial_extensions_hold_f_and_its_slope(src, window):
    # g(|x|) over [lo, hi] holds f at every sample; the slope, where it is
    # not NaN (no bound), holds each central difference that stays on one
    # side of 0 (the mean value theorem puts it at f' of a point inside),
    # and a window across 0 is never proved monotone.
    f = ExpressionFn.parse(src, dim=1)
    f_arr = array_evaluator(f)
    enclose, slope = _extensions(f)
    lo, hi = np.array([window[0]]), np.array([window[1]])
    xs = np.linspace(lo[0], hi[0], 257)
    f_lo, f_hi = enclose(lo, hi)
    fx = f_arr(xs)
    assert np.all((f_lo <= fx) & (fx <= f_hi))
    d_lo, d_hi = slope(lo, hi)
    step = 1e-6 * max(1.0, float(np.max(np.abs(xs))))
    at = xs[(np.abs(xs) > 2.0 * step) & (xs - step >= lo) & (xs + step <= hi)]
    q = (f_arr(at + step) - f_arr(at - step)) / (2.0 * step)
    tol = 1e-6 * (1.0 + np.abs(q))
    assert np.all(np.isnan(d_lo) | (d_lo - tol <= q))
    assert np.all(np.isnan(d_hi) | (q <= d_hi + tol))
    if lo[0] <= 0.0 <= hi[0]:
        assert not (d_lo > 0.0 or d_hi < 0.0)


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


def _ray_profiles(slopes, ends):
    """eval_at of columns f = slopes[j]*t, valid up to t = ends[j]."""
    def eval_at(cols, ts):
        return slopes[cols] * ts, ts <= ends[cols]
    return eval_at


def _alone(eval_at, n, reach):
    """scan_side of each column by itself, with f(p) = 0 and eps = 0.5."""
    return [scan_side(lambda cols, ts, j=j: eval_at(np.array([j])[cols], ts), np.zeros(1),
                      0.5, np.ones(1), reach=reach[j:j + 1]) for j in range(n)]


def test_scan_side_stops_the_rays_that_cannot_hold_the_minimum():
    # eps 0.5 on f = slope*t: ray 0 crosses at t = 0.5, which bounds the
    # minimum after the first window [0, 1].  Ray 1 (crossing at 100) has
    # passed that bound with its last clear sample and stops: +inf.  Ray 2
    # brackets its crossing at 0.9 in the same window, past the bound:
    # not settled, +inf.  Ray 3 leaves its domain at 0.25, short of the
    # bound, and its reach ends there: no crossing, NaN.
    slopes, ends = np.array([1.0, 0.005, 0.5 / 0.9, 0.0]), np.array([INF, INF, INF, 0.25])
    reach = np.array([INF, INF, INF, 0.3])
    eval_at = _ray_profiles(slopes, ends)
    side = scan_side(eval_at, np.zeros(4), 0.5, np.ones(4), reach=reach)
    alone = _alone(eval_at, 4, reach)
    assert side.root[0] == alone[0].root[0] and side.root_h[0] == alone[0].root_h[0]
    assert side.root[1:3].tolist() == [INF, INF] and np.isnan(side.root_h[1:]).all()
    assert np.isnan(side.root[3]) and np.isnan(alone[3].root[0])
    assert not side.undecided.any()
    assert alone[1].root[0] > 99.0 and alone[2].root[0] > 0.8
    assert side.rounds.tolist() == [1, 1, 1, 1]


def test_scan_side_without_a_crossing_prunes_nothing():
    # No ray crosses: the bound stays +inf, so every ray runs to its reach
    # (or to R_MAX) as it would alone, and reads NaN; delta_ray_nd raises
    # EmptySpherePreimage on such a scan.
    reach = np.array([4.0, 9.0, INF])
    eval_at = _ray_profiles(np.zeros(3), np.array([3.5, INF, INF]))
    side = scan_side(eval_at, np.zeros(3), 0.5, np.ones(3), reach=reach)
    alone = _alone(eval_at, 3, reach)
    assert np.isnan(side.root).all() and not side.undecided.any()
    for name in ("clear", "step", "searched", "rounds"):
        got = np.concatenate([getattr(a, name) for a in alone])
        assert np.array_equal(getattr(side, name), got), name
    assert side.searched[2] == search.R_MAX


def _crossing_by_loop(ts, h, valid, carry_t, carry_h):
    """_first_crossing column by column: the first valid h >= 0 sample and
    the last valid sample before it (every valid sample without one), with
    h at each."""
    k, m = h.shape
    out = [np.zeros(m, dtype=bool)] + [np.full(m, np.nan) for _ in range(4)]
    for j in range(m):
        hits = [i for i in range(k) if valid[i, j] and h[i, j] >= 0.0]
        first = hits[0] if hits else k
        prior = [i for i in range(first) if valid[i, j]]
        out[0][j] = bool(hits)
        out[1][j], out[4][j] = (ts[prior[-1], j], h[prior[-1], j]) if prior else (
            carry_t[j], carry_h[j])
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
    carry_h = carry_t / 8.0
    got = _first_crossing(ts, h, valid, carry_t, carry_h)
    for a, b in zip(got, _crossing_by_loop(ts, h, valid, carry_t, carry_h)):
        assert np.array_equal(a, b, equal_nan=True)
    if valid.all():
        # An invalid last row changes no bracket but takes the masked scan.
        pad = (np.vstack((ts, ts[-1:] + 1.0)), np.vstack((h, np.full_like(h[:1], 0.5))),
               np.vstack((valid, np.zeros_like(valid[:1]))), carry_t, carry_h)
        for a, b in zip(got, _first_crossing(*pad)):
            assert np.array_equal(a, b, equal_nan=True)


# Sample values of a row-table evaluator: f = H + 1/2 with f(p) = 0 and
# eps = 1/2 gives h = H; NaN (undefined) is invalid, inf a violator.
ROW_EPS = 0.5
ROW_H = np.array([0.0, 0.5, math.inf, -0.25, math.nan])


class RowTable:
    """An evaluator over a table of h, one row per offset lo + k*frac.
    Row i of column j sits at lo_j + i + 1 (lo_j an integer, span k and
    frac (i + 1)/k), so the row of a sample is read back from its offset;
    `sizes` records the samples of every call."""

    def __init__(self, h, valid):
        self.h, self.valid, self.sizes = h, valid, []
        k, m = h.shape
        self.lo = np.arange(m, dtype=float) * 3.0
        self.span = np.full(m, float(k))
        self.frac = np.arange(1, k + 1, dtype=float) / k

    def __call__(self, cols, ts):
        self.sizes.append(ts.size)
        rows = np.rint(ts - self.lo[cols]).astype(int) - 1
        return self.h[rows, cols] + ROW_EPS, self.valid[rows, cols]

    def scan(self, carry, carry_h=None):
        m = self.h.shape[1]
        carry_h = np.full(m, np.nan) if carry_h is None else carry_h
        return _scan_rows(self, np.arange(m), self.lo, self.span, self.frac,
                          np.zeros(m), ROW_EPS, carry, carry_h)

    def whole_window(self, carry, carry_h):
        """_first_crossing over every row at once, as a window was scanned
        before it was split into blocks."""
        ts = self.lo + self.span * self.frac[:, None]
        h = _h_of(self.h + ROW_EPS, np.zeros(self.h.shape[1]), ROW_EPS)
        return _first_crossing(ts, h, self.valid & ~np.isnan(h), carry, carry_h)


def _row_table(m, k, where, holes, seed):
    """A table of m columns and k rows: each column clear (h < 0) up to
    its first crossing ("row0", "early" within 64 rows, "any" row or
    "none" at all), then any values; `holes` is the share of invalid
    samples."""
    rng = np.random.default_rng(seed)
    first = {"row0": np.zeros(m, dtype=int), "none": np.full(m, k),
             "early": rng.integers(0, min(k, 64) + 1, m),
             "any": rng.integers(0, k + 1, m)}[where]
    h = ROW_H[rng.integers(0, ROW_H.size, (k, m))]
    h[np.arange(k)[:, None] < first] = -0.25
    h[first[first < k], np.flatnonzero(first < k)] = 0.0
    return RowTable(h, rng.random((k, m)) >= holes)


@st.composite
def row_tables(draw):
    """1, 17, 64 or 1,024 columns and up to 4,096 rows (fewer for the
    widest, to bound memory), with no holes, a few or mostly holes."""
    m = draw(st.sampled_from([1, 17, 64, 1024]))
    k = draw(st.integers(1, min(4096, 2 ** 19 // m)))
    return _row_table(m, k, draw(st.sampled_from(["row0", "early", "any", "none"])),
                      draw(st.sampled_from([0.0, 0.3, 0.95])),
                      draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(row_tables(), st.booleans())
# Several blocks each: 64 columns take 1,024 rows a block, 1,024 take 64;
# mostly holes make columns fall back on a sample carried from an
# earlier block, or on `carry`.
@example(_row_table(64, 4096, "any", 0.3, 1), False)
@example(_row_table(1024, 300, "any", 0.95, 2), False)
@example(_row_table(1024, 300, "none", 0.95, 3), True)
@example(_row_table(17, 4096, "row0", 0.0, 4), False)
def test_scan_rows_matches_the_whole_window(table, carry_nan):
    # Blocks change no bracket: a column's clear end, and h there, may
    # come from an earlier block (its carried last valid sample) or from
    # `carry` when no block holds a valid sample before its crossing.
    m = table.h.shape[1]
    carry = np.full(m, np.nan) if carry_nan else -np.arange(1.0, m + 1)
    carry_h = carry / 8.0
    got = table.scan(carry.copy(), carry_h.copy())
    for a, b in zip(got, table.whole_window(carry, carry_h)):
        assert np.array_equal(a, b, equal_nan=True)
    assert max(table.sizes) <= _BLOCK_SAMPLES


def test_scan_rows_stops_each_column_at_its_crossing():
    # 1,024 columns crossing within their first 64 rows of 4,096: no call
    # exceeds the block, and far less than the window is sampled.
    rng = np.random.default_rng(7)
    k, m = 4096, 1024
    h = np.full((k, m), -0.25)
    h[rng.integers(0, 64, m), np.arange(m)] = 0.5
    table = RowTable(h, np.ones((k, m), dtype=bool))
    found = table.scan(np.zeros(m))[0]
    assert found.all()
    assert max(table.sizes) <= _BLOCK_SAMPLES
    assert sum(table.sizes) < k * m / 4


def test_scan_rows_stops_each_column_past_the_bound():
    # 1,024 clear columns of 4,096 rows, bound B = 1000: each column stops,
    # not found, at a block whose last sample (its blo) passes B; those
    # whose first block of 64 rows passes B stop there.
    k, m, bound = 4096, 1024, 1000.0
    table = RowTable(np.full((k, m), -0.25), np.ones((k, m), dtype=bool))
    found, blo = _scan_rows(table, np.arange(m), table.lo, table.span, table.frac,
                            np.zeros(m), ROW_EPS, np.zeros(m), np.full(m, np.nan), bound)[:2]
    first = table.lo + _BLOCK_SAMPLES // m
    assert not found.any()
    assert np.all(blo > bound)
    assert np.array_equal(blo[first > bound], first[first > bound])
    assert sum(table.sizes) < k * m / 4


def test_one_column_window_is_one_call():
    h = np.full((4096, 1), -0.25)
    h[-1] = 0.5
    table = RowTable(h, np.ones(h.shape, dtype=bool))
    assert table.scan(np.zeros(1))[0].all()
    assert table.sizes == [4096]


def test_line_and_ray_calls_stay_within_a_block(monkeypatch):
    # Many columns: every evaluator call of the sweep, tail probes, rescan
    # and k-section holds at most _BLOCK_SAMPLES samples, also with 2,048
    # points per line_field batch.
    sizes = []

    def f_arr(x):
        sizes.append(x.size)
        return np.sin(x) + 0.01 * x * x

    def ident(x):
        sizes.append(x.size)
        return x

    for chunk in (search._CHUNK, 2048):
        monkeypatch.setattr(search, "_CHUNK", chunk)
        _sampled_field(_line(f_arr, -math.inf, math.inf, True, True),
                       np.linspace(-30.0, 30.0, 600), 0.5)
        # Tail-heavy: |x - p| = 5 has no solution on (0, 1], so every side
        # of all 2,000 points ends in tail probes toward its end.
        res = _sampled_field(_line(ident, 0.0, 1.0, True, False),
                             np.linspace(0.0, 1.0, 2001)[1:], 5.0)
        assert np.isnan(res.values).all()
        assert max(sizes) <= _BLOCK_SAMPLES

    sizes.clear()
    n = 300
    angle = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)

    def eval_at(cols, ts):
        sizes.append(ts.size)
        return np.sin(ts * (1.0 + angle[cols])), np.ones(ts.shape, dtype=bool)

    side = scan_side(eval_at, np.zeros(n), 0.5, np.ones(n))
    assert not np.isnan(side.root).any()
    assert max(sizes) <= _BLOCK_SAMPLES


def test_pad_covers_the_rescans_last_row():
    # The fine rescan's last row, blo + (bhi - blo)*1.0, can round one ulp
    # past bhi, and a root settled there exceeds the bracket's violator
    # end: minimum mode's padded bound must still hold it.
    blo, bhi = 1.5 * 2.0 ** -53, 0.75 + 2.0 ** -53
    last = blo + (bhi - blo) * _FRAC_FINE[-1]
    assert bhi < last <= _pad(bhi)


class Brackets:
    """Columns of crossing brackets for _ksection, with eps = 1: column j
    is (kind, k, r, d_lo, d_hi, scale, lo_h known).  Its profile g(t) is
    "smooth" t + k*t^2, "steep" k*expm1(t) (k up to 1e8, where the 4-ulp
    rule stops), "holes" the smooth one with stretches of NaN f and of
    invalid samples (never at the ends), or "jump" 0 up to t = r and 3
    past it.  f(p) = g(r) - 1 (0 for a jump), so h crosses 0 at r, inside
    the bracket [r - d_lo, r + d_hi]; lo_h is NaN unless known.  `calls`
    counts the evaluator calls."""

    def __init__(self, columns):
        self.columns, self.calls = columns, 0
        m = len(columns)
        self.cols = np.arange(m)
        self.lo = np.array([r - d_lo for _, _, r, d_lo, _, _, _ in columns])
        self.hi = np.array([r + d_hi for _, _, r, _, d_hi, _, _ in columns])
        self.scale = np.array([c[5] for c in columns])
        self.fp = np.array([0.0 if kind == "jump" else self.g(kind, k, np.array(r)) - 1.0
                            for kind, k, r, *_ in columns])
        lo_h, self.hi_h = (self.h_at(t)[0] for t in (self.lo, self.hi))
        self.lo_h = np.where([c[6] for c in columns], lo_h, np.nan)
        self.tol = TOL_X * np.maximum(1.0, self.scale)

    @staticmethod
    def g(kind, k, t):
        if kind == "steep":
            return k * np.expm1(t)
        if kind == "jump":
            return np.where(t > 0.0, 3.0, 0.0)
        return t + k * t * t

    def h_at(self, t):
        f, valid = self(self.cols, t[None, :])
        self.calls -= 1
        return _h_of(f[0], self.fp, 1.0), valid[0]

    def __call__(self, cols, ts):
        self.calls += 1
        f = np.empty(ts.shape)
        valid = np.ones(ts.shape, dtype=bool)
        for i, j in enumerate(cols):
            kind, k, r = self.columns[j][:3]
            t = ts[:, i]
            f[:, i] = self.g(kind, k, t - r if kind == "jump" else t)
            if kind == "holes":
                end = (t == self.lo[j]) | (t == self.hi[j])
                f[:, i] = np.where(((t * 997.0) % 1.0 < 0.25) & ~end, np.nan, f[:, i])
                valid[:, i] = ((t * 613.0 + 0.5) % 1.0 >= 0.2) | end
        return f, valid

    def ksection(self, sampled):
        self.calls = 0
        return _ksection(self, self.cols, self.fp, 1.0, self.lo, self.lo_h, self.hi,
                         self.hi_h, self.tol, self.scale, sampled)

    def settled(self, lo, hi, hi_h):
        """Where each bracket meets the stop rule: tol wide, and h at its
        violator end within TOL_F or the bracket 4 floats wide."""
        width = hi - lo
        return (width <= self.tol) & (
            (hi_h <= TOL_F) | (width <= 4.0 * np.spacing(self.scale + hi)))


@st.composite
def bracket_columns(draw):
    """One to six columns of Brackets, any kinds mixed."""
    unit = st.floats(1e-3, 1.0)
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["smooth", "steep", "holes", "jump"]))
        known = draw(st.booleans())
        if kind == "steep":
            k = 10.0 ** draw(st.floats(4.0, 8.0))
            r = draw(unit)
            # g rises by less than 2 from lo to r: h(lo) > -1.
            d_lo, d_hi = 0.2 / k * draw(unit), 0.2 / k * draw(unit)
            scale = 10.0 ** draw(st.floats(1.0, 3.0))
        elif kind == "jump":
            k, r = 0.0, draw(st.sampled_from([0.0, 0.375, 1.1]))
            d_lo, d_hi = (0.0 if r == 0.0 else draw(unit)), draw(unit)
            # At r = 0 with scale 0 the stop needs subnormal widths.
            scale = draw(st.sampled_from([0.0, 1.0, 7.5][r == 0.0:]))
        else:
            k, r = draw(st.floats(0.0, 2.0)), draw(st.floats(0.5, 3.0))
            d_lo, d_hi = 0.1 * draw(unit), draw(unit)
            scale = draw(st.floats(0.0, 10.0))
        columns.append((kind, k, r, d_lo, d_hi, scale, known))
    return Brackets(columns)


@settings(max_examples=150, deadline=None)
@given(bracket_columns(), st.booleans())
@example(Brackets([("jump", 0.0, 0.375, 0.5, 1.0, 0.0, True),
                   ("smooth", 1.0, 1.0, 0.05, 0.5, 1.0, False),
                   ("steep", 1e8, 0.5, 1e-9, 2e-9, 100.0, True)]), True)
@example(Brackets([("holes", 0.5, 2.0, 0.1, 1.0, 2.0, False),
                   ("holes", 0.0, 1.5, 0.01, 0.9, 0.0, True)]), True)
def test_ksection_keeps_a_valid_crossing_bracket(br, sampled):
    # The bracket's ends are valid: h < 0 at lo and h >= 0 at hi.
    for t, want in ((br.lo, False), (br.hi, True)):
        h, valid = br.h_at(t)
        assert valid.all() and np.all((h >= 0.0) == want)
    lo, hi, hi_h = br.ksection(sampled)
    # Both ends are valid samples inside the input bracket, h(lo) < 0 <= h(hi).
    assert np.all((br.lo <= lo) & (lo < hi) & (hi <= br.hi))
    for t, want in ((lo, False), (hi, True)):
        h, valid = br.h_at(t)
        assert valid.all() and np.all((h >= 0.0) == want)
    assert np.array_equal(br.h_at(hi)[0], hi_h)
    # The stop rule holds, except across a hole, which no valid end can cross.
    hole = np.array([kind == "holes" for kind, *_ in br.columns])
    gap = np.linspace(lo, hi, 4097)[1:-1]
    f, valid = br(br.cols, gap)
    assert np.all(br.settled(lo, hi, hi_h) | (hole & ~(valid & ~np.isnan(f)).all(axis=0)))


def test_ksection_reaches_the_ulp_rule_and_the_round_cap():
    # A steep profile stops at 4 floats, with h at its violator end above TOL_F.
    steep = Brackets([("steep", 1e8, 0.5, 1e-9, 2e-9, 100.0, True)])
    lo, hi, hi_h = steep.ksection(True)
    assert hi - lo <= 4.0 * np.spacing(100.0 + hi) and hi_h > TOL_F
    # A jump at t = 0 with scale 0 is still wider than 4 floats of its
    # violator end after _KSECT_ROUNDS rounds, and stops there.
    capped = Brackets([("jump", 0.0, 0.0, 0.0, 1.0, 0.0, True)])
    lo, hi, hi_h = capped.ksection(True)
    assert capped.calls == search._KSECT_ROUNDS
    assert lo[0] == 0.0 and 0.0 < hi[0] < 1e-30 and hi_h[0] == 2.0


def test_smooth_brackets_settle_in_three_calls():
    # Two smooth brackets as a fine rescan leaves them, which bisection
    # would halve about 30 times each: one evenly spread round and the
    # secant's quadratic convergence settle both in three calls at most.
    br = Brackets([("smooth", 0.25, 0.7, 3e-4, 5e-4, 1.0, True),
                   ("smooth", 0.0, 0.3, 1e-3, 2e-3, 0.0, True)])
    for sampled in (False, True):
        lo, hi, hi_h = br.ksection(sampled)
        assert br.calls <= 3
        assert br.settled(lo, hi, hi_h).all()


def test_sampled_ends_keep_off_the_secant_root():
    # For a linear h the secant root is the crossing itself, where h rounds
    # to about 0: sampled ends lie half a stop width from it, so the
    # violator end holds a clear excess; unsampled ones may sit on it.
    br = Brackets([("smooth", 0.0, 0.3, 1e-3, 2e-3, 0.0, True)])
    lo, hi, hi_h = br.ksection(True)
    assert hi - 0.3 >= 0.45 * TOL_X and 0.3 - lo >= 0.45 * TOL_X


# (f, domain) of the minimum-mode cases; a line coordinate is a radius for
# log_norm and a clipped interval for the monotone profile.
MIN_PROBLEMS = {
    "square": lambda: (ExpressionFn.parse("x^2"), DomainSpec.interval(-2.0, 2.0)),
    "sin": lambda: (ExpressionFn.parse("sin(x)"), DomainSpec.interval(0.0, 10.0)),
    "sin_inv": lambda: (ExpressionFn.parse("sin(1/x)"), UNIT),
    "log_norm": lambda: (dm.catalog_lookup("log_norm").function,
                         dm.catalog_lookup("log_norm").domain),
    "mono_clipped": lambda: (Monotone1DFn(np.exp, (0.5, 2.0), True), UNIT),
    "sqrt_hole": lambda: (ExpressionFn.parse("sqrt(x^2-1)"), DomainSpec.interval(-INF, INF)),
}


# The caller's bound B of minimum mode, from the full field's minimum lo
# (1.0 where no point crosses): inf, as infimum stages pass it, and finite
# bounds as witness stages pass them, below, at and above the minimum.
BOUNDS = {
    "inf": lambda lo: INF,
    "below": lambda lo: float(np.nextafter(lo, 0.0)),
    "at": lambda lo: lo,
    "above": lambda lo: 2.0 * lo,
}


def _minimum_pair(name, ps, eps, detect_points, where="inf"):
    """line_field over ps in full mode and in minimum mode under the bound
    BOUNDS[where], with the evaluator and enclosure that uc's stages pass.
    Returns the full field, the minimum-mode field and the bound."""
    line = line_problem(*MIN_PROBLEMS[name]())
    full = _sampled_field(line, ps, eps, detect_points)
    crossing = full.values[~np.isnan(full.values)]
    bound = BOUNDS[where](float(crossing.min()) if crossing.size else 1.0)
    return full, _sampled_field(line, ps, eps, detect_points, bound), bound


def _assert_minimum_agrees(full, least, bound=INF):
    """Minimum mode under the bound B keeps the first argmin, the minimum
    and its witness bit for bit where the minimum is at most B; each
    of its finite entries is the full entry, and +inf marks only points
    whose full delta exceeds the minimum or B.  With B = inf it keeps every
    NaN; under a finite B no entry is NaN, and where the minimum exceeds B
    every entry is +inf."""
    nan = np.isnan(full.values)
    if bound == INF:
        assert np.array_equal(np.isnan(least.values), nan)
    else:
        assert not np.isnan(least.values).any()
    finite = np.isfinite(least.values)
    for name in ("values", "witness"):
        assert np.array_equal(getattr(least, name)[finite], getattr(full, name)[finite]), name
    far = ~finite & ~np.isnan(least.values)
    assert np.all(least.values[far] == INF) and np.all(least.witness[far] == INF)
    if nan.all() or np.nanmin(full.values) > bound:
        assert bound == INF or np.all(least.values == INF)
        return
    i = int(np.nanargmin(full.values))
    assert int(np.nanargmin(least.values)) == i
    assert least.values[i] == full.values[i]
    assert least.witness[i] == full.witness[i]
    assert np.all(full.values[far & ~nan] > full.values[i])


MIN_CASES = [
    # One chunk, as a default uc stage; the minimum 2 - sqrt(3) ties at -2 and 2.
    ("square", 1.0, np.linspace(-2.0, 2.0, 2048)),
    # |sin x - sin p| = 1.5 has no solution near many p: NaN entries.
    ("sin", 1.5, np.linspace(0.0, 10.0, 512)),
    # Tail probes toward the open end at 0.
    ("sin_inv", 0.5, np.linspace(0.0, 1.0, 2049)[1:]),
    ("log_norm", 0.5, np.linspace(1e-3, 8.0, 1500)),
    ("mono_clipped", 0.1, np.linspace(0.5, 1.0, 700)),
    # f is undefined on (-1, 1): the -t crossing of the first point lies
    # between its last valid detect sample and that hole, past the +t
    # violator end of the second; the settle from the clear end finds it.
    ("sqrt_hole", 2.008904663364039, np.array([2.2625965502493823, 1.5])),
    # Three chunks; the tie at -2 (first chunk) and 2 (last) spans them.
    ("square", 1.0, np.linspace(-2.0, 2.0, 5000)),
]


def _check_minimum_case(name, eps, ps, detect_points, where):
    full, least, bound = _minimum_pair(name, ps, eps, detect_points, where)
    _assert_minimum_agrees(full, least, bound)
    if name != "sqrt_hole":  # two points: too few to need a skip
        assert np.isinf(least.values).any()  # the mode did skip some refinement
    if name == "square":
        assert full.values[0] == full.values[-1] == np.nanmin(full.values)
    if name == "sin":
        assert np.isnan(full.values).any()


@pytest.mark.parametrize("detect_points", [1024, 4096])
@pytest.mark.parametrize("name, eps, ps", MIN_CASES)
def test_minimum_mode_keeps_the_minimum(name, eps, ps, detect_points):
    _check_minimum_case(name, eps, ps, detect_points, "inf")


@pytest.mark.parametrize("where", ["below", "at", "above"])
@pytest.mark.parametrize("detect_points", [1024, 4096])
@pytest.mark.parametrize("name, eps, ps", MIN_CASES)
def test_minimum_mode_keeps_the_minimum_under_a_bound(name, eps, ps, detect_points, where):
    # A witness stage's bound: one float below, at and twice the minimum.
    _check_minimum_case(name, eps, ps, detect_points, where)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(MIN_PROBLEMS)), st.floats(math.log(1e-3), math.log(3.0)),
       st.integers(1, 1200), st.sampled_from([1024, 4096]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(sorted(BOUNDS)))
def test_minimum_mode_agrees_on_random_points(name, log_eps, n, detect_points, seed, where):
    line = line_problem(*MIN_PROBLEMS[name]())
    a, b = max(line.lo, -10.0), min(line.hi, 10.0)
    ps = np.random.default_rng(seed).uniform(a, b, n)
    ps = ps[ps > a] if line.open_lo else ps
    _assert_minimum_agrees(*_minimum_pair(name, ps, math.exp(log_eps), detect_points, where))


def test_probe_rows_are_dense_detect_rows():
    # One column, clear up to its crossing at t = 5, cut at B = 0.1 in its
    # first window [0, 0.3]: it probes that window again and walks on, over
    # the probe rows only, to the window [4.8, 9.6] that holds the crossing.
    # Every probe row is the same float as the dense sweep's row there.
    def recorder(calls):
        def eval_at(cols, ts):
            calls.append(ts[:, 0].copy())
            return np.where(ts >= 5.0, 1.0, 0.0), np.ones(ts.shape, dtype=bool)
        return eval_at

    args = (np.zeros(1), 0.5, np.array([INF]), np.array([0.3]), np.ones(1), 1024)
    dense, bounded = [], []
    _, (br,), _ = _sweep(recorder(dense), *args)
    side, brackets, _ = _sweep(recorder(bounded), *args, bound=0.1)
    assert br[2][0] == dense[-1][dense[-1] >= 5.0][0]  # the dense sweep's violator end
    assert not brackets and side.root[0] == INF and not side.undecided[0]
    assert [ts.size for ts in bounded] == [1024] + [_PROBE_ROWS] * len(dense)
    assert np.array_equal(bounded[0], dense[0])
    for probe, rows in zip(bounded[1:], dense):
        assert np.array_equal(probe, rows[1024 // _PROBE_ROWS - 1::1024 // _PROBE_ROWS])


def test_sweep_returns_the_least_bound():
    # Column 0 crosses at t = 0.5 in a detect window; column 1 ends at an
    # open end 0.1 away and crosses only past 0.1 - 1e-9, which only its
    # tail probes reach.  The returned B is the padded least violator end
    # over all brackets: here the tail bracket's.
    def eval_at(cols, ts):
        far = np.where(cols == 0, ts >= 0.5, ts > 0.1 - 1e-9)
        valid = (cols == 0) | (ts < 0.1)
        return np.where(far, 1.0, 0.0), np.broadcast_to(valid, ts.shape)

    side, brackets, bound = _sweep(eval_at, np.zeros(2), 0.5, np.array([INF, 0.1]),
                                   np.full(2, 0.2), np.ones(2), 1024, bound=INF)
    hi = {int(c): float(b) for cols, _, bhi, *_ in brackets for c, b in zip(cols, bhi)}
    assert sorted(hi) == [0, 1] and len(brackets) == 2
    assert 0.1 - 1e-9 < hi[1] < 0.1 < 0.5 <= hi[0]
    assert bound == _pad(min(hi.values())) == _pad(hi[1])
    assert np.all(side.root == INF)


def _counted_field(f, dom, ps, eps, bound):
    """line_field of f over ps as uc's stages run it (1,024 detect points),
    with the number of samples its evaluator took."""
    line = line_problem(f, dom)
    taken = [0]

    def counted(x):
        taken[0] += np.size(x)
        return line.f(x)
    res = _sampled_field(dataclasses.replace(line, f=counted), ps, eps, 1024, bound)
    return res, taken[0]


@pytest.mark.parametrize("src, dom, ps, share", [
    # The shares when only the -t side of a point with a +t bracket stopped
    # at the bound: 59% and 8.8%.
    ("sin(1/x)", UNIT, np.linspace(2.0 ** -10, 1.0, 2048), 0.30),
    ("sqrt(x)", DomainSpec.half_line(0.0), np.linspace(0.0, 1024.0, 2048), 0.06),
])
def test_minimum_mode_sample_budget(src, dom, ps, share):
    f = ExpressionFn.parse(src)
    full, n_full = _counted_field(f, dom, ps, 0.5, None)
    least, n_least = _counted_field(f, dom, ps, 0.5, INF)
    _assert_minimum_agrees(full, least)
    assert n_least <= share * n_full


def test_undecided_sides_are_swept_again(monkeypatch):
    # |sin x - sin p| = 1.5 has no solution near many p: both sides of such
    # a point are cut at B, their probe rows find nothing, and a dense
    # sweep without the bound must decide NaN.
    unbounded = []

    def spy(*args, **kw):
        if kw.get("bound") is None:
            unbounded.append(args[3].size)
        return _sweep(*args, **kw)
    ps = np.linspace(0.0, 10.0, 2048)
    full = _minimum_pair("sin", ps, 1.5, 1024)[0]
    monkeypatch.setattr(search, "_sweep", spy)
    least = _minimum_pair("sin", ps, 1.5, 1024)[1]
    assert unbounded  # the re-sweep ran
    _assert_minimum_agrees(full, least)
    assert np.isnan(full.values).any()


@pytest.mark.parametrize("where", ["below", "above"])
def test_a_finite_bound_settles_no_nan_mask(monkeypatch, where):
    # A witness stage passes a finite bound and reads only a least delta
    # within it: a side cut at B stops, with no probe rows, and no side is
    # swept again without the bound, so a point with no crossing reads +inf
    # where the bound inf (test_undecided_sides_are_swept_again) reads NaN.
    f, dom = MIN_PROBLEMS["sin"]()
    ps = np.linspace(0.0, 10.0, 2048)
    full, _, bound = _minimum_pair("sin", ps, 1.5, 1024, where)
    calls = _sweep_calls(monkeypatch)
    least, taken = _counted_field(f, dom, ps, 1.5, bound)
    assert len(calls) == 2 and None not in [b for b, _ in calls]
    _assert_minimum_agrees(full, least, bound)
    calls.clear()
    _, taken_inf = _counted_field(f, dom, ps, 1.5, INF)
    assert None in [b for b, _ in calls] and taken < taken_inf


def test_a_cut_side_known_to_cross_stops():
    # The column of test_probe_rows_are_dense_detect_rows, known to cross:
    # cut at B = 0.1 in its first window, it samples no probe rows and
    # reads +inf: its crossing lies past B.
    rows = []

    def eval_at(cols, ts):
        rows.append(ts.shape[0])
        return np.where(ts >= 5.0, 1.0, 0.0), np.ones(ts.shape, dtype=bool)
    side, brackets, _ = _sweep(eval_at, np.zeros(1), 0.5, np.array([INF]), np.array([0.3]),
                               np.ones(1), 1024, bound=0.1, known=np.ones(1, dtype=bool))
    assert rows == [1024] and not brackets
    assert side.root[0] == INF and not side.undecided[0]


def _sweep_calls(monkeypatch):
    """Record the bound and the extents of every _sweep call."""
    calls = []

    def spy(*args, **kw):
        calls.append((kw.get("bound"), args[3].copy()))
        return _sweep(*args, **kw)
    monkeypatch.setattr(search, "_sweep", spy)
    return calls


def test_a_uc_stage_is_one_chunk_of_two_bounded_sweeps(monkeypatch):
    # A default uc stage (2,048 points) is one signed batch: its +t half is
    # swept with the bound, then its -t half, each over every point.
    calls = _sweep_calls(monkeypatch)
    ps = np.linspace(-2.0, 2.0, 2048)
    _minimum_pair("square", ps, 1.0, 1024)
    bounded = [ext for bound, ext in calls if bound is not None]
    assert len(bounded) == 2
    (plus, minus), m = bounded, ps.size
    assert plus.size == minus.size == 2 * m
    assert np.array_equal(plus[:m], 2.0 - ps) and not plus[m:].any()
    assert not minus[:m].any() and np.array_equal(minus[m:], ps + 2.0)


# Full-mode LineResults of line queries as compute_delta ran them before
# the piece walk (default detect points, with the enclosure), settled by
# k-section.  Without a bound the two halves are independent, so one sweep
# of both must give them as a sweep of each half alone would, bit for bit.
# `lower` is each side's clear radius less that side's own grid step; `fp`
# is f(p) as the engine read it, the one read that delta's strict f(p)
# rule checks.  Only the piece walk marks a row done, so no sampled row is.
FULL_PINS = {
    # Only the -t side of 1.9 crosses on [-2, 2]; -1.5 crosses on both.
    "one_sided": ("x^2", DomainSpec.interval(-2.0, 2.0), [1.9, -1.5], 1.0, dict(
        done=[False, False], fp=[3.61, 2.25], values=[0.2844505578605987, 0.30277563773274474],
        witness=[1.6155494421394012, -1.8027756377327449],
        upper=[0.2844505578605987, 0.30277563773274474],
        lower=[0.09997558593750008, 0.302775478785446],
        root_h=[3.069544618483633e-12, 2.7049473771967314e-12],
        one_sided=[True, False],
        searched=[0.5263155263419751, 0.6666670000024059],
        detect_rounds=[4, 5], enclosed_rounds=[3, 3])),
    # Only the tail probes toward the open end reach the crossing.
    "tail": ("ln(x)", UNIT, [0.5], 30.0, dict(
        done=[False], fp=[-0.6931471805599453], values=[0.49999999999995354],
        witness=[4.64628335805628e-14],
        upper=[0.49999999999995354],
        lower=[0.4998779296875], root_h=[0.006976499187626217], one_sided=[True],
        searched=[0.5], detect_rounds=[2], enclosed_rounds=[1])),
    # f is undefined on (-1, 1); the first point crosses between its last
    # valid -t sample and that hole.
    "hole": ("sqrt(x^2-1)", REALS_1D, [2.2625965502493823, 1.5], 2.008904663364039, dict(
        done=[False, False], fp=[2.029616502987795, 1.118033988749895],
        values=[1.2623820830981658, 1.7829476593587401],
        witness=[1.0002144671512165, 3.28294765935874],
        upper=[1.2623820830981658, 1.7829476593587401],
        lower=[1.2623812238128662, 1.782946231373262],
        root_h=[4.8480330860911636e-11, 7.87370169064161e-13],
        one_sided=[False, False],
        searched=[3.604095084749143, 5.989398912485343],
        detect_rounds=[5, 7], enclosed_rounds=[3, 2])),
    # Three detect windows proved clear by the enclosure.
    "enclosed": ("x^2", REALS_1D, [3.0], 1.0, dict(
        done=[False], fp=[9.0], values=[0.16227766016987907], witness=[3.162277660169879],
        upper=[0.16227766016987907],
        lower=[0.16227758069405912], root_h=[9.485745522397337e-12], one_sided=[False],
        searched=[0.3333331666711316], detect_rounds=[5], enclosed_rounds=[3])),
}


@pytest.mark.parametrize("name", sorted(FULL_PINS))
def test_full_mode_field_is_one_sweep_and_pinned(name, monkeypatch):
    src, dom, ps, eps, want = FULL_PINS[name]
    line = line_problem(ExpressionFn.parse(src), dom)
    calls = _sweep_calls(monkeypatch)
    res = _sampled_field(line, np.array(ps), eps)
    assert [bound for bound, _ in calls] == [None]
    assert sorted(want) == sorted(f.name for f in dataclasses.fields(res))
    for field, values in want.items():
        got = getattr(res, field)
        assert got.dtype == np.asarray(values).dtype, field
        assert np.array_equal(got, values), field


@pytest.mark.parametrize("dom, p, one_sided", [
    # |x^2 - 0| = 1 at -1 and 1: a tie, which goes to the -t crossing.
    (REALS_1D, 0.0, False),
    # On [-2, 2] only the -t side of 1.9 crosses.
    (DomainSpec.interval(-2.0, 2.0), 1.9, True),
])
def test_both_engines_join_their_sides_alike(dom, p, one_sided):
    line = line_problem(ExpressionFn.parse("x^2"), dom)
    ps = np.array([p])
    sampled = _sampled_field(line, ps, 1.0)
    proved = line_field(line, ps, 1.0)
    assert not sampled.done.any() and np.array_equal(sampled.upper, sampled.values)
    assert proved.done.all()
    for res in (sampled, proved):
        assert res.one_sided[0] == one_sided
        assert res.witness[0] < p  # the -t side's crossing
        # The witness is a line coordinate, values[0] away from p to rounding.
        assert abs(abs(res.witness[0] - p) - res.values[0]) <= np.spacing(abs(p) + 1.0)
