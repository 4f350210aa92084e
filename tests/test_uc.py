"""Uniform-continuity evidence: stage infima, witness chains and the line
reduction behind them.

The pinned figures are exact: a change to the schedule, the stage grids
or the line search that moves any of them should be a deliberate one.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import deltamax as dm
from deltamax import cli, delta, uc
from deltamax.delta import compute_delta
from deltamax.model import DomainSpec, ExpressionFn, Monotone1DFn, Point, RadialFn
from deltamax.search import R_MAX, TOL_X

EPS = 0.5
UNIT = DomainSpec.interval(0.0, 1.0, open_lo=True)  # (0, 1]
BOX = DomainSpec.box((-2.0, -2.0), (2.0, 2.0))


def _case(name):
    if name in ("exp_norm", "log_norm"):
        entry = dm.catalog_lookup(name)
        return entry.function, entry.domain
    return {
        "sqrt": (ExpressionFn.parse("sqrt(x)"), DomainSpec.half_line(0.0)),
        "sin_inv": (ExpressionFn.parse("sin(1/x)"), UNIT),
        "mono_exp": (Monotone1DFn(np.exp, (-1.0, 3.0), True), DomainSpec.interval(-2.0, 2.0)),
        "radial_exp": (RadialFn(inner=Monotone1DFn(np.exp, (0.0, math.inf), True), dim=2),
                       DomainSpec.ball((0.0, 0.0), 5.0)),
    }[name]


# (inf_delta, argmin, skipped) per stage of default_schedule(dom, 3, 64) at eps = 0.5
STAGES = {
    "sqrt": [(0.2500000000005, (0.0,), 0)] * 3,
    "sin_inv": [(0.13234060718468973, (0.5,), 0),
                (0.04385159533810481, (0.2976190476190476,), 0),
                (0.012783207733652185, (0.1527777777777778,), 0)],
    "exp_norm": [(0.1688476234988056, (1.0, 0.0), 0),
                 (0.0654764951205681, (2.0, 0.0), 0),
                 (0.009116140880057107, (4.0, 0.0), 0)],
    "log_norm": [(0.19673467014418328, (0.5, 0.0), 0),
                 (0.09836733507234163, (0.25, 0.0), 0),
                 (0.049183667536420804, (0.125, 0.0), 0)],
    "mono_exp": [(0.07006592016128133, (2.0,), 0)],
    "radial_exp": [(0.009116140880057107, (4.0, 0.0), 0),
                   (0.005539128930542014, (4.5, 0.0), 0),
                   (0.004316518019147504, (4.75, 0.0), 0)],
}


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_infima_are_pinned(name):
    f, dom = _case(name)
    schedule = uc.default_schedule(dom, stages=3, resolution=64)
    trace = uc.infimum_delta(f, dom, EPS, schedule=schedule)
    got = [(r.inf_delta, r.argmin.coords, r.skipped) for r in trace.records]
    assert got == STAGES[name]


def test_nd_stage_is_pinned():
    f = ExpressionFn.parse("x1*x2")
    box = DomainSpec.box((-2.0, -2.0), (2.0, 2.0))
    (rec,) = uc.infimum_delta(f, box, EPS, schedule=[(box, 3)]).records
    assert (rec.inf_delta, rec.argmin.coords, rec.skipped) == (0.18283882308007415, (2.0, 2.0), 0)


def test_witness_distances_are_pinned():
    w = uc.witness_search(ExpressionFn.parse("sin(1/x)"), UNIT, EPS, count=3)
    assert w.distances == (0.4704206787233338, 0.21366354157909295, 0.08137158203633287)
    f = ExpressionFn.parse("sin(1/x)")
    for (x, y), d in zip(w.pairs, w.distances):
        assert abs(x.coords[0] - y.coords[0]) == pytest.approx(d, rel=1e-12)
        fx, fy = dm.eval_fn(f, x, UNIT), dm.eval_fn(f, y, UNIT)
        assert abs(abs(fx - fy) - EPS) <= 1e-9


def test_infimum_stages_keep_the_existence_decision():
    # |sin x - sin p| = 1.9 has no solution near many p on [0, 10].  An
    # infimum stage passes no finite bound, so it still tells a point with
    # no crossing (NaN, counted as skipped) from one whose delta exceeds
    # the minimum (+inf), at every stage of the default schedule.
    trace = uc.infimum_delta(ExpressionFn.parse("sin(x)"), DomainSpec.interval(0.0, 10.0), 1.9)
    assert [(r.inf_delta, r.argmin.coords, r.skipped) for r in trace.records] == [
        (2.506493690432393, (4.392156862745098,), 187),
        (2.506472870893267, (5.029354207436399,), 374),
        (2.5064719638914825, (7.536656891495602,), 747),
        (2.5064780683319277, (7.537860283341475,), 1495),
    ]


def test_witness_stages_are_bounded_by_half_the_last_distance(monkeypatch):
    # The first stage has no pair to halve and passes no bound; every later
    # stage passes half the distance of the last pair accepted, and a stage
    # whose minimum exceeds it reads no minimum at all.
    seen, stage_min = [], uc._stage_min

    def spy(*args):
        seen.append((args[-1], stage_min(*args)))
        return seen[-1][1]
    monkeypatch.setattr(uc, "_stage_min", spy)
    w = uc.witness_search(ExpressionFn.parse("sin(1/x)"), UNIT, EPS, count=3)
    assert seen[0][0] == math.inf
    last = math.inf
    for bound, (v, x, skipped, y) in seen:
        assert bound == (math.inf if last == math.inf else 0.5 * last)
        assert skipped == 0 and (y is None) == (v == math.inf)
        if bound < math.inf and v > bound:
            assert (v, x, y) == (math.inf, None, None)
        if v in w.distances:
            last = v
    assert last == w.distances[-1]
    assert any(bound < v for bound, (v, *_) in seen)  # some stage was rejected by it


# uc_verdict at eps_grid=[0.5] on the full 21-stage, 2,048-point schedules.
SQRT_VERDICT_STAGES = [(0.2500000000005, (0.0,), 0)] * 21
SIN_INV_VERDICT_STAGES = [
    (0.13234060718468973, (0.5,), 0),
    (0.04383885693274783, (0.2990962383976551,), 0),
    (0.012237701641594255, (0.14637274059599414,), 0),
    (0.0020338029814020624, (0.06433194919394236,), 0),
    (0.000518217946285197, (0.032196507083536885,), 0),
    (0.0001453685710106758, (0.01610588666340987,), 0),
    (3.5387104719827745e-05, (0.0078125,), 0),
    (1.3465023170243584e-05, (0.004879473009281876,), 0),
    (1.9571832498254914e-06, (0.001953125,), 0),
    (4.839233027809015e-07, (0.0009765625,), 0),
    (1.207194980762853e-07, (0.00048828125,), 0),
    (3.230361430247507e-08, (0.000244140625,), 0),
    (1.191902718705272e-08, (0.0001220703125,), 0),
    (1.990625795734369e-09, (6.103515625e-05,), 0),
    (6.952512433249025e-10, (3.0517578125e-05,), 0),
    (1.329638082113761e-10, (1.52587890625e-05,), 0),
    (5.856328534979038e-11, (7.62939453125e-06,), 0),
    (7.851803774014926e-12, (3.814697265625e-06,), 0),
    (2.0466946913164554e-12, (1.9073486328125e-06,), 0),
    (5.849560545272977e-13, (9.5367431640625e-07,), 0),
    (9.31605258291453e-10, (4.76837158203125e-07,), 0),
]
SIN_INV_VERDICT_PAIRS = [
    (0.8408964152537146, 0.3704757365303808),
    (0.5946035575013605, 0.38094001592226756),
    (0.42044820762685736, 0.3390766255905245),
    (0.21022410381342868, 0.17358922682904093),
    (0.17677669529663695, 0.16137095355746695),
    (0.10686330033742529, 0.10129023080647855),
    (0.064334637964775, 0.06230078824644012),
    (0.03904694402222285, 0.03985293826511114),
]
SIN_INV_VERDICT_DISTANCES = (
    0.4704206787233338, 0.21366354157909295, 0.08137158203633287, 0.03663487698438774,
    0.015405741739170017, 0.0055730695309467474, 0.0020338497183348754, 0.0008059942428882875,
)


def _stage_rows(verdict):
    (trace,) = verdict.traces
    return [(r.inf_delta, r.argmin.coords, r.skipped) for r in trace.records]


def test_full_scale_sqrt_verdict_is_pinned():
    f, dom = _case("sqrt")
    verdict = uc.uc_verdict(f, dom, eps_grid=[EPS])
    assert verdict.kind is uc.Verdict.EVIDENCE_UC
    assert verdict.lower_bound == 0.2500000000005
    assert verdict.witnesses is None
    assert _stage_rows(verdict) == SQRT_VERDICT_STAGES


def test_full_scale_sin_inv_verdict_is_pinned():
    f, dom = _case("sin_inv")
    verdict = uc.uc_verdict(f, dom, eps_grid=[EPS])
    assert verdict.kind is uc.Verdict.EVIDENCE_NOT_UC
    assert verdict.lower_bound is None
    assert _stage_rows(verdict) == SIN_INV_VERDICT_STAGES
    w = verdict.witnesses
    assert [(x.coords[0], y.coords[0]) for x, y in w.pairs] == SIN_INV_VERDICT_PAIRS
    assert w.distances == SIN_INV_VERDICT_DISTANCES


@pytest.mark.parametrize("name, kind", [
    ("square", uc.Verdict.EVIDENCE_NOT_UC),
    ("identity", uc.Verdict.EVIDENCE_UC),
    ("exp_norm", uc.Verdict.EVIDENCE_NOT_UC),
    ("log_norm", uc.Verdict.EVIDENCE_NOT_UC),
])
def test_catalog_verdicts_at_one_eps_are_pinned(name, kind):
    # The paper's canonical examples at eps 0.5: x^2 on R, e^||x|| and
    # ln ||x|| near 0 are not UC, a full chain of 8 halving pairs each.
    entry = dm.catalog_lookup(name)
    verdict = uc.uc_verdict(entry.function, entry.domain, eps_grid=[EPS])
    assert verdict.kind is kind
    if kind is uc.Verdict.EVIDENCE_NOT_UC:
        assert len(verdict.witnesses.pairs) == 8
    else:
        assert verdict.lower_bound > 0.0


def test_verdict_without_a_grid_tests_the_default_grid():
    # x on [0, 1]: delta(p, eps) = eps wherever a side stays on [0, 1], so
    # the floor is the least eps of the default grid.
    f, dom = ExpressionFn.parse("x"), DomainSpec.interval(0.0, 1.0)
    grid = uc.default_eps_grid(f, dom)[1]
    verdict = uc.uc_verdict(f, dom)
    assert verdict.kind is uc.Verdict.EVIDENCE_UC
    assert verdict.eps_tested == tuple(grid)
    assert verdict.lower_bound == pytest.approx(grid[0], rel=1e-9)


def test_chain_short_of_its_count_gets_its_own_reason():
    # x^2 on R halves its witness distances until the windows stop growing
    # at R_MAX: 17 pairs, short of a chain of 30.
    verdict = uc.uc_verdict(ExpressionFn.parse("x^2"), DomainSpec.interval(-math.inf, math.inf),
                            eps_grid=[EPS], count=30)
    assert verdict.kind is uc.Verdict.INCONCLUSIVE
    assert verdict.reason == ("witness distances halved 17 time(s) but the chain of 30 "
                              "needed for evidence did not complete")


def test_shrinking_infima_get_their_own_reason():
    # square at eps 1e11: delta is about sqrt(eps) = 3.2e5 until the
    # windows pass it, then falls in the last stages, too late for a chain
    # of more than two halving pairs before R_MAX.
    entry = dm.catalog_lookup("square")
    verdict = uc.uc_verdict(entry.function, entry.domain, eps_grid=[1e11])
    assert verdict.kind is uc.Verdict.INCONCLUSIVE
    assert verdict.reason == "stage infima kept shrinking; no stable positive floor"
    (trace,) = verdict.traces
    assert all(math.isfinite(r.inf_delta) for r in trace.records)
    assert trace.records[-1].inf_delta < 0.5 * trace.records[15].inf_delta


@pytest.mark.parametrize("src, dom, y", [
    ("ln(x)", DomainSpec.interval(0.0, 1.0), 0.0),      # f(y) = -inf
    ("sqrt(x)", DomainSpec.interval(-1.0, 1.0), -1.0),  # f(y) is NaN
])
def test_pins_eps_refuses_a_non_finite_end(src, dom, y):
    f = ExpressionFn.parse(src)
    with np.errstate(all="ignore"):  # witness_search's, under which it runs
        assert not uc._pins_eps(f, dom, Point((0.5,)), Point((y,)), EPS)
        assert not uc._pins_eps(f, dom, Point((y,)), Point((0.5,)), EPS)


def test_dim1_ball_stage_stays_inside_the_ball():
    # The line of a dim-1 ball is [c - r, c + r], not the radii [0, r].
    ball = DomainSpec.ball((5.0,), 1.0)
    f = ExpressionFn.parse("x^2")
    schedule = uc.default_schedule(ball, 3, 8)[:1]
    (rec,) = uc.infimum_delta(f, ball, EPS, schedule=schedule).records
    assert ball.contains(rec.argmin)
    assert rec.argmin == Point((5.5,))
    assert rec.inf_delta == pytest.approx(compute_delta(f, ball, 5.5, EPS).value, rel=1e-9)


def test_clipped_monotone_end_is_sampled():
    # (0, 1] clipped to exp(-x)'s interval [0.5, 2] is [0.5, 1]: the clipped
    # end is closed, so 0.5 is a stage point, as compute_delta accepts it.
    # f is steepest there, so 0.5 is the stage argmin, the one delta that a
    # stage always refines (the others may read +inf).
    f = Monotone1DFn(lambda x: np.exp(-x), (0.5, 2.0), False)
    window, resolution = uc.default_schedule(UNIT, stages=3, resolution=8)[0]
    problem = uc.line_problem(f, UNIT)
    pts, values = uc._stage_field(f, UNIT, problem, window, resolution, 0.1)[:2]
    assert pts[0].tolist() == [0.5]
    assert np.argmin(values) == 0
    assert values[0] == pytest.approx(compute_delta(f, UNIT, 0.5, 0.1).value, rel=1e-9)


def test_monotone_stage_is_the_same_with_its_claimed_enclosure():
    # A Monotone1DFn line carries the claimed enclosure, which lets the
    # sampled sweep skip windows it proves clear: the stage's points,
    # values and witnesses are those without it, from no more samples of
    # f, the enclosure's own counted.
    taken = [0]

    def counted(x):
        taken[0] += np.size(x)
        return np.exp(x)
    f = Monotone1DFn(counted, (-math.inf, math.inf), True)
    dom = DomainSpec.interval(-math.inf, math.inf)
    window, resolution = uc.default_schedule(dom, stages=4)[-1]
    taken[0] = 0
    g, line = uc.line_problem(f, dom)
    claimed = uc._stage_field(f, dom, (g, line), window, resolution, EPS)
    n_claimed, taken[0] = taken[0], 0
    bare_line = dataclasses.replace(line, enclose=None)
    bare = uc._stage_field(f, dom, (g, bare_line), window, resolution, EPS)
    for got, want in zip(claimed, bare):
        assert np.array_equal(got, want, equal_nan=True)
    assert 0 < n_claimed <= taken[0]


def test_radial_stage_matches_compute_delta():
    # The radial stage and compute_delta share the line reduction.
    f, dom = _case("log_norm")
    schedule = uc.default_schedule(dom, 3, 16)[:1]
    (rec,) = uc.infimum_delta(f, dom, EPS, schedule=schedule).records
    assert dom.contains(rec.argmin)
    assert rec.inf_delta == pytest.approx(compute_delta(f, dom, rec.argmin, EPS).value, rel=1e-9)


def test_generic_nd_schedule_is_one_stage():
    # Every nD stage grid is capped at the same lattice, so a second stage
    # would only repeat the first.
    box = DomainSpec.box((-2.0, -2.0), (2.0, 2.0))
    assert uc.default_schedule(box) == [(box, 2048)]
    assert uc.default_schedule(box, stages=5, resolution=16) == [(box, 16)]
    assert uc.default_schedule(box, stages=uc._MAX_WITNESS_STAGES) == [(box, 2048)]


@pytest.mark.parametrize("resolution", [0, -4, 100.5, math.nan, math.inf])
def test_schedule_needs_a_point_per_window(resolution):
    # A resolution below 1 samples nothing: an infimum over no points is
    # refused, on a line and without one.  A resolution is a point count,
    # so one that is not an integer is refused too, also in a caller's
    # schedule.
    for f, dom in ((ExpressionFn.parse("x^2"), DomainSpec.interval(-1.0, 1.0)),
                   (ExpressionFn.parse("sqrt(x)"), DomainSpec.half_line(0.0)),
                   (ExpressionFn.parse("x1*x2"), BOX)):
        with pytest.raises(dm.InvalidArgument):
            uc.default_schedule(dom, resolution=resolution)
        with pytest.raises(dm.InvalidArgument):
            uc.stage_schedule(f, dom, resolution=resolution)
        with pytest.raises(dm.InvalidArgument):
            uc.infimum_delta(f, dom, EPS, schedule=[(dom, resolution)])
    assert uc.default_schedule(UNIT, stages=1, resolution=1)[0][1] == 1


@pytest.mark.parametrize("stages", [0, -1, 2.5, math.nan, math.inf])
def test_schedule_needs_a_stage(stages):
    # A stage count below 1 is refused too, also where the domain picks
    # its own count (a compact line, a generic nD problem).
    for f, dom in ((ExpressionFn.parse("x^2"), DomainSpec.interval(-1.0, 1.0)),
                   (ExpressionFn.parse("sqrt(x)"), DomainSpec.half_line(0.0)),
                   (ExpressionFn.parse("x1*x2"), BOX)):
        with pytest.raises(dm.InvalidArgument):
            uc.default_schedule(dom, stages=stages)
        with pytest.raises(dm.InvalidArgument):
            uc.stage_schedule(f, dom, stages=stages)


def test_default_eps_grid_is_the_verdicts_grid():
    f, dom = ExpressionFn.parse("sin(x)"), DomainSpec.interval(0.0, 4.0)
    beta, grid = uc.default_eps_grid(f, dom)
    assert beta == dm.epsilon_bound(f, dom)
    assert grid == [beta / 8.0, beta / 4.0, beta / 2.0]


def test_short_schedule_witness_search_evaluates_no_stage(monkeypatch):
    # A generic nD schedule has one stage: it cannot build a chain of
    # three or more pairs, so witness_search gives up before evaluating it.
    calls = []
    monkeypatch.setattr(uc, "_stage_min", lambda *a: calls.append(a))
    f, box = ExpressionFn.parse("x1*x2"), DomainSpec.box((-2.0, -2.0), (2.0, 2.0))
    for count in (3, 8):
        with pytest.raises(dm.WitnessesStagnated) as stalled:
            uc.witness_search(f, box, EPS, count=count)
        assert stalled.value.pairs is None
    with pytest.raises(dm.InvalidArgument):  # eps is checked first
        uc.witness_search(f, box, math.nan, count=3)
    assert calls == []


@pytest.mark.parametrize("count", [2, 1, 0, -1, 3.5, math.nan, math.inf])
def test_witness_chain_below_three_pairs_is_refused(monkeypatch, count):
    # uc_verdict ignores chains of <= 2 pairs, so a count below 3 could
    # only produce a verdict from no evidence; it is refused before any
    # stage, and so is a count that is no integer (3.5 would build 4 pairs,
    # and no chain reaches nan or inf).
    calls = []
    monkeypatch.setattr(uc, "_stage_min", lambda *a: calls.append(a))
    f = ExpressionFn.parse("x")
    with pytest.raises(dm.InvalidArgument):
        uc.witness_search(f, UNIT, EPS, count=count)
    with pytest.raises(dm.InvalidArgument):
        uc.uc_verdict(f, UNIT, eps_grid=[EPS], count=count)
    assert calls == []


@pytest.mark.parametrize("path", ["line", "lattice"])
def test_stage_field_returns_rows(path):
    # Both paths return (n, d) points, (n,) values and (n, d) witnesses,
    # with NaN witness rows exactly where no delta was found.
    if path == "line":
        f, dom = _case("log_norm")
        (window, res), eps = uc.default_schedule(dom, stages=1, resolution=16)[0], EPS
    else:  # |x1*x2| <= 4 on the box, so eps = 5 is out of reach from the origin
        f, dom, window, res, eps = ExpressionFn.parse("x1*x2"), BOX, BOX, 3, 5.0
    pts, values, wits = uc._stage_field(f, dom, uc.line_problem(f, dom), window, res, eps)
    n, d = pts.shape
    assert d == dom.dimension and values.shape == (n,) and wits.shape == (n, d)
    assert np.isnan(wits).any(axis=1).tolist() == np.isnan(values).tolist()
    assert np.isnan(values).any() == (path == "lattice")
    found = ~np.isnan(values)
    dist = np.sqrt(np.sum((wits[found] - pts[found]) ** 2, axis=1))
    assert dist == pytest.approx(values[found], rel=1e-12)


DISCS = [DomainSpec.ball((0.0, 0.0), 2.0, open_boundary=False),
         DomainSpec.ball((0.0, 0.0), 2.0)]


@pytest.mark.parametrize("disc", DISCS, ids=["closed", "open"])
def test_problem_without_a_line_runs_one_stage(monkeypatch, capsys, disc):
    # x1*x2 does not reduce to a line on a disc, so every stage would be
    # the same capped lattice: the problem, not the disc's radii, sets
    # the schedule.
    calls = []
    monkeypatch.setattr(uc, "_stage_min",
                        lambda *a: calls.append(a) or (0.25, Point((2.0, 0.0)), 0, None))
    f = ExpressionFn.parse("x1*x2")
    assert uc.stage_schedule(f, disc) == [(disc, 2048)]
    (rec,) = uc.infimum_delta(f, disc, EPS).records
    assert (rec.window, rec.resolution, len(calls)) == (disc, 2048, 1)
    with pytest.raises(dm.WitnessesStagnated):
        uc.witness_search(f, disc, EPS)
    assert len(calls) == 1
    verdict = uc.uc_verdict(f, disc, eps_grid=[EPS])
    assert (verdict.kind, len(calls)) == (uc.Verdict.EVIDENCE_UC, 2)
    assert cli.main(["inf", "--fn", "x1*x2", "--domain", disc.describe(), "--eps", "0.5"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert (len(rows), len(calls)) == (2, 3)  # the header and one stage


def test_explicit_schedule_runs_stage_by_stage(monkeypatch):
    calls = []
    monkeypatch.setattr(uc, "_stage_min",
                        lambda *a: calls.append(a[3:5]) or (0.25, Point((2.0, 0.0)), 0, None))
    f, disc = ExpressionFn.parse("x1*x2"), DISCS[0]
    schedule = [(disc, 8), (BOX, 4), (disc, 16)]
    trace = uc.infimum_delta(f, disc, EPS, schedule=schedule)
    assert calls == schedule
    assert [(r.level, r.window, r.resolution) for r in trace.records] == [
        (k, w, res) for k, (w, res) in enumerate(schedule)]


def test_removed_keywords_are_rejected():
    f = ExpressionFn.parse("sqrt(x)")
    half = DomainSpec.half_line(0.0)
    with pytest.raises(TypeError):
        uc.uc_verdict(f, half, eps_grid=[EPS], schedule=[(half, 64)])
    with pytest.raises(TypeError):
        uc.witness_search(f, half, EPS, resolution=64)


@pytest.mark.parametrize("dom", [
    UNIT,
    DomainSpec.interval(0.0, 1.0, open_hi=True),
    DomainSpec.interval(0.0, 1.0, open_lo=True, open_hi=True),
    DomainSpec.annulus((0.0, 0.0), 0.0, math.inf, open_inner=True),
], ids=["(0,1]", "[0,1)", "(0,1)", "punctured plane"])
def test_open_finite_end_gets_every_stage(dom):
    for stages in (1, 3, 21):
        schedule = uc.default_schedule(dom, stages=stages, resolution=8)
        assert len(schedule) == stages
        assert len(set(schedule)) == stages  # windows keep growing
    assert len(uc.default_schedule(dom, stages=uc._MAX_WITNESS_STAGES,
                                   factor=uc._WITNESS_FACTOR)) == uc._MAX_WITNESS_STAGES


@pytest.mark.parametrize("factor", [1.0, 0.5, math.nan, -2.0, math.inf, "2"])
@pytest.mark.parametrize("dom", [
    DomainSpec.interval(0.0, 1.0),  # compact: its stages refine the resolution
    DomainSpec.box((-2.0, -2.0), (2.0, 2.0)),  # nD: one stage, and no line
    UNIT,
    DomainSpec.interval(0.0, 1.0, open_hi=True),
    DomainSpec.interval(0.0, 1.0, open_lo=True, open_hi=True),
    DomainSpec.half_line(0.0),
    DomainSpec.annulus((0.0, 0.0), 0.0, math.inf, open_inner=True),
], ids=["[0,1]", "box", "(0,1]", "[0,1)", "(0,1)", "[0,inf)", "punctured plane"])
def test_every_schedule_refuses_a_factor_not_above_one(dom, factor):
    # An infinite factor once repeated one window (21 times on (0, 1]),
    # and a compact line or a box took any factor unchecked.
    f = ExpressionFn.parse("x1*x2" if dom.dimension > 1 else "x")
    with pytest.raises(dm.InvalidArgument, match="factor"):
        uc.default_schedule(dom, factor=factor)
    with pytest.raises(dm.InvalidArgument, match="factor"):
        uc.stage_schedule(f, dom, factor=factor)


@pytest.mark.parametrize("dom, lo, hi", [
    (DomainSpec.half_line(2e6), 2e6, 2e6 + R_MAX),
    (DomainSpec.interval(-math.inf, -2e6), -2e6 - R_MAX, -2e6),
], ids=["[2e6,inf)", "(-inf,-2e6]"])
def test_line_beyond_the_truncation_radius_gets_every_stage(dom, lo, hi):
    # The infinite end is truncated R_MAX from the finite one, not at
    # +-R_MAX, which would leave no window at all.
    schedule = uc.default_schedule(dom)
    assert len(schedule) == 21
    for window, _ in schedule:
        w_lo, w_hi = window.bounding_box()
        assert lo <= w_lo[0] < w_hi[0] <= hi


def test_verdict_beyond_the_truncation_radius_runs_its_stages():
    f, dom = ExpressionFn.parse("sqrt(x)"), DomainSpec.half_line(2e6)
    verdict = uc.uc_verdict(f, dom, eps_grid=[EPS])
    assert verdict.kind is uc.Verdict.EVIDENCE_UC
    (trace,) = verdict.traces
    assert len(trace.records) == 21
    assert verdict.lower_bound == trace.floor()
    # The stage minimum (the sampled line engine, at its argmin 2e6) and
    # compute_delta there (the proved piece walk) agree to TOL_X * |p|.
    res = compute_delta(f, dom, 2e6, EPS)
    assert res.certified_lower <= trace.floor() <= res.certified_upper + TOL_X * 2e6


def test_eps_without_delta_gets_its_own_reason():
    # |x - p| = 5 has no solution on [0, 1]: every stage skips all of its
    # points.  That is no delta at all, not stage infima that kept shrinking.
    f, dom = ExpressionFn.parse("x"), DomainSpec.interval(0.0, 1.0)
    verdict = uc.uc_verdict(f, dom, eps_grid=[5.0])
    assert verdict.kind is uc.Verdict.INCONCLUSIVE
    (trace,) = verdict.traces
    assert all(r.inf_delta == math.inf and r.skipped == r.resolution for r in trace.records)
    assert verdict.reason == ("at eps 5 all 4 stages skipped every point: "
                              "no x with |f(x) - f(p)| = eps was found")
    # An eps with a floor keeps the reason of the eps without one.
    verdict = uc.uc_verdict(f, dom, eps_grid=[0.5, 5.0])
    assert verdict.reason.startswith("at eps 5 all 4 stages")


@pytest.mark.parametrize("schedule", [[], None], ids=["empty", "default"])
@pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, math.inf])
def test_infimum_checks_eps_before_any_stage(monkeypatch, schedule, eps):
    # A bad eps is refused up front, also when no stage would read it.
    calls = []
    monkeypatch.setattr(uc, "_stage_min", lambda *a: calls.append(a))
    with pytest.raises(dm.InvalidArgument, match="eps"):
        uc.infimum_delta(ExpressionFn.parse("x"), UNIT, eps, schedule=schedule)
    assert calls == []


def test_infimum_over_no_stage_is_refused():
    # An infimum over no points is undefined, as for a zero resolution.
    for f, dom in ((ExpressionFn.parse("x"), UNIT), (ExpressionFn.parse("x1*x2"), BOX)):
        with pytest.raises(dm.InvalidArgument, match="at least one stage"):
            uc.infimum_delta(f, dom, EPS, schedule=[])


def test_each_call_builds_its_line_problem_once(monkeypatch):
    # compute_delta and delta_field build the line problem once and route
    # on it; infimum_delta and witness_search build it once and hand it
    # to every stage, so a uc verdict builds two per eps tested.
    built, line_problem = [], delta.line_problem

    def counted(*args):
        built.append(args)
        return line_problem(*args)
    monkeypatch.setattr(delta, "line_problem", counted)
    monkeypatch.setattr(uc, "line_problem", counted)
    f, dom = ExpressionFn.parse("x^2"), DomainSpec.interval(-1.0, 1.0)
    compute_delta(f, dom, 0.5, EPS)
    assert len(built) == 1
    delta.delta_field(f, dom, [0.0, 0.5], EPS)
    assert len(built) == 2
    problem = uc.line_problem(f, dom)
    built.clear()
    uc._stage_field(f, dom, problem, dom, 64, EPS)
    uc._stage_min(f, dom, problem, dom, 64, EPS, 0.1)
    assert built == []
    for name in ("sqrt", "sin_inv"):
        f, dom = _case(name)
        built.clear()
        verdict = uc.uc_verdict(f, dom, eps_grid=[EPS])
        assert len(verdict.eps_tested) == 1 and len(built) == 2
