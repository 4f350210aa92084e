"""Backend tests for the greatest-delta computation."""

from __future__ import annotations

import dataclasses
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import deltamax as dm
import deltamax.delta as delta_mod
from deltamax import search
from deltamax.delta import (
    compute_delta,
    delta_field,
    delta_ray_nd,
    direction_set,
    epsilon_bound,
    is_delta_epsilon_number,
    line_problem,
)
from deltamax.errors import (
    ConstantFunction,
    DeltamaxError,
    DimensionMismatch,
    DomainViolation,
    EmptySpherePreimage,
    FloatResolutionLimit,
    InvalidArgument,
    NonFinite,
)
from deltamax.model import (
    DomainSpec,
    ExpressionFn,
    Monotone1DFn,
    NormTag,
    Point,
    array_evaluator,
    enclosure_evaluator,
    norm_of,
    norm_of_rows,
)
from deltamax.oracle import GridSpec, brute_force_inf, grid_delta_bounds
from deltamax.search import R_MAX, Line, _sampled_field, line_field, scan_side

REALS = DomainSpec.interval(-math.inf, math.inf)
HALF = DomainSpec.half_line(0.0)


def cube():
    return Monotone1DFn(fn=lambda x: x * x * x,
                        interval=(-math.inf, math.inf), increasing=True,
                        label="x^3")


def exp_half():
    return Monotone1DFn(fn=np.exp, interval=(0.0, math.inf), increasing=True,
                        label="exp")


class TestInverseMonotone:
    """The inverse images behind the monotone formula, each read as the
    delta whose nearer crossing it is: the piece walk's one piece."""

    def test_cube_root(self):
        res = compute_delta(cube(), None, 0.0, 8.0)  # x^3 = +-8
        assert abs(res.value - 2.0) <= 1e-12
        assert res.witness.coords == pytest.approx((-2.0,), abs=1e-12)
        assert res.certified_lower <= 2.0 <= res.certified_upper

    def test_exp_log(self):
        # exp(x) = e - (e - 1) = 1 at x = 0, the only crossing on (-inf, 1].
        g = Monotone1DFn(fn=np.exp, interval=(-math.inf, 1.0), increasing=True)
        res = compute_delta(g, None, 1.0, math.e - 1.0)
        assert abs(res.witness.coords[0]) <= 1e-12
        assert res.one_sided and res.certified_lower <= 1.0 <= res.certified_upper

    def test_out_of_range_bounded(self):
        # A target the range provably misses was searched for in vain everywhere.
        g = Monotone1DFn(fn=lambda x: x, interval=(0.0, 1.0), increasing=True)
        with pytest.raises(EmptySpherePreimage) as err:
            compute_delta(g, None, 0.0, 2.0)
        assert err.value.searched_radius == 1.0

    def test_out_of_range_half_line(self):
        # exp(0.1) - 0.6 is below the range [1, inf): only the +eps side crosses,
        # and the -t side, clear up to 0, bounds nothing.
        res = compute_delta(exp_half(), None, 0.1, 0.6)
        want = math.log(math.exp(0.1) + 0.6) - 0.1
        assert res.one_sided and abs(res.value - want) <= 1e-12
        assert res.certified_lower <= want <= res.certified_upper

    def test_decreasing(self):
        g = Monotone1DFn(fn=lambda x: -x * x * x, interval=(-math.inf, math.inf),
                         increasing=False)
        res = compute_delta(g, None, 0.0, 8.0)
        assert abs(res.value - 2.0) <= 1e-12
        assert res.certified_lower <= 2.0 <= res.certified_upper


class TestMonotoneBackend:
    def test_square_half_line_origin_is_one_sided(self):
        g = Monotone1DFn(fn=lambda x: x * x, interval=(0.0, math.inf),
                         increasing=True)
        res = compute_delta(g, None, 0.0, 1.0)
        assert res.backend == "monotone"
        assert res.one_sided
        assert abs(res.value - 1.0) <= 1e-10

    def test_identity_tie_prefers_left_witness(self):
        g = Monotone1DFn(fn=lambda x: x, interval=(-math.inf, math.inf),
                         increasing=True)
        res = compute_delta(g, None, 7.0, 0.5)
        assert abs(res.value - 0.5) <= 1e-10
        assert res.witness.coords[0] == pytest.approx(6.5, abs=1e-10)
        assert not res.one_sided

    def test_exp_two_sides(self):
        # min(ln(e^2+0.1)-2, 2-ln(e^2-0.1)); the +eps side is closer
        res = compute_delta(exp_half(), None, 2.0, 0.1)
        expected = math.log(math.exp(2.0) + 0.1) - 2.0
        assert abs(res.value - expected) <= 1e-10
        assert not res.one_sided

    def test_exp_one_sided_near_left_end(self):
        # e^0.1 - 0.5 < 1 = g(0), so only the +eps inverse exists
        res = compute_delta(exp_half(), None, 0.1, 0.5)
        assert res.one_sided
        expected = math.log(math.exp(0.1) + 0.5) - 0.1
        assert abs(res.value - expected) <= 1e-10

    def test_empty_preimage(self):
        g = Monotone1DFn(fn=lambda x: x, interval=(0.0, 1.0), increasing=True)
        with pytest.raises(EmptySpherePreimage):
            compute_delta(g, None, 0.5, 5.0)

    def test_achiever(self):
        res = compute_delta(cube(), None, 2.0, 1.0)
        x = res.witness.coords[0]
        assert abs(abs(x - 2.0) - res.value) <= 1e-12
        assert abs(abs(x ** 3 - 8.0) - 1.0) <= 1e-9


class TestLevelSet1D:
    def test_square_closed_form(self):
        f = ExpressionFn.parse("x^2")
        res = compute_delta(f, REALS, 3.0, 1.0)
        assert res.backend == "levelset1d"
        assert abs(res.value - (math.sqrt(10) - 3.0)) <= 1e-9
        assert 0 < res.certified_lower <= res.value <= res.certified_upper

    def test_constant_has_empty_preimage(self):
        with pytest.raises(EmptySpherePreimage) as err:
            compute_delta(ExpressionFn.parse("7"), REALS, 0.0, 1.0)
        assert err.value.searched_radius >= R_MAX / 2

    def test_sine_nearest_crossing(self):
        # |sin x| = 0.5 nearest to 0 is x = pi/6; cross-checked against a
        # brute-force scan at step 1e-6
        res = compute_delta(ExpressionFn.parse("sin(x)"), REALS, 0.0, 0.5)
        xs = np.arange(0.0, 1.0, 1e-6)
        h = np.abs(np.abs(np.sin(xs)) - 0.5)
        brute = xs[int(np.argmin(h))]
        assert abs(res.value - math.pi / 6) <= 1e-9
        assert abs(res.value - brute) <= 2e-6

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            compute_delta(ExpressionFn.parse("x^2"),
                          DomainSpec.interval(0.0, 1.0), 2.0, 0.5)

    def test_domain_restriction_changes_delta(self):
        # On [-5, 5] the crossing sqrt(26) is outside, so delta(5) uses sqrt(24)
        f = ExpressionFn.parse("x^2")
        res = compute_delta(f, DomainSpec.interval(-5.0, 5.0), 5.0, 1.0)
        assert abs(res.value - (5.0 - math.sqrt(24))) <= 1e-9
        assert res.one_sided

    def test_diagnostics_count_enclosed_rounds(self):
        res = compute_delta(ExpressionFn.parse("x^2"), REALS, 3.0, 1.0)
        diag = res.diagnostics
        assert 1 <= diag["enclosed_rounds"] <= diag["detect_rounds"]

    def test_monotone_profile_is_only_sampled(self):
        # A Monotone1DFn has no interval enclosure, so without the claimed
        # one the sampled engine samples every window of it.
        assert enclosure_evaluator(cube()) is None
        line = Line(array_evaluator(cube()), None, None, -math.inf, math.inf, False, False, False)
        res = _sampled_field(line, np.asarray([2.0]), 1.0)
        assert res.detect_rounds[0] >= 2
        assert res.enclosed_rounds[0] == 0
        assert res.values[0] == pytest.approx(compute_delta(cube(), None, 2.0, 1.0).value,
                                              abs=1e-9)

    def test_open_boundary_divergence(self):
        # ln on (0, 1]: the nearest crossing sits between the last grid
        # sample and the open endpoint for large eps
        f = ExpressionFn.parse("ln(x)")
        dom = DomainSpec.interval(0.0, 1.0, open_lo=True)
        res = compute_delta(f, dom, 0.25, 20.0)
        expected = 0.25 - 0.25 * math.exp(-20.0)
        assert abs(res.value - expected) <= 1e-9

    # The open end at 0, pinned bit for bit: at eps = 30 the crossing sits
    # 4.7e-14 from it, and the walk splits its way there window by window.
    @pytest.mark.parametrize("eps, value, lower, upper, witness, achiever_h, rounds", [
        (30.0, 0.4999999999999532, 0.49999999999995315, 0.49999999999995326,
         4.6788114844200975e-14, 0.0, (71, 59)),
        (3.0, 0.4751064658160684, 0.4751064658160669, 0.4751064658160698,
         0.024893534183931615, 1.4210854715202004e-14, (25, 22)),
    ], ids=["eps30", "eps3"])
    def test_open_end_results_pinned(self, eps, value, lower, upper, witness, achiever_h,
                                     rounds):
        res = compute_delta(ExpressionFn.parse("ln(x)"),
                            DomainSpec.interval(0.0, 1.0, open_lo=True), 0.5, eps)
        assert (res.value, res.certified_lower, res.certified_upper, res.witness.coords,
                res.backend, res.one_sided) == (value, lower, upper, (witness,),
                                                "levelset1d", True)
        assert res.diagnostics == {"achiever_h": achiever_h, "searched_radius": 0.5,
                                   "detect_rounds": rounds[0], "enclosed_rounds": rounds[1],
                                   "lower_kind": "proof"}
        assert lower <= 0.5 - 0.5 * math.exp(-eps) <= upper

    def test_tail_probes_finding_nothing(self):
        # |x - 0.5| = 0.75 has no solution on (0, 1]: both sides end in
        # tail probes, and the radius searched is 0.5, either end's distance.
        with pytest.raises(EmptySpherePreimage) as err:
            compute_delta(ExpressionFn.parse("x"),
                          DomainSpec.interval(0.0, 1.0, open_lo=True), 0.5, 0.75)
        assert err.value.searched_radius == 0.5


class TestRadial:
    def test_exp_norm(self):
        entry = dm.catalog_lookup("exp_norm")
        res = compute_delta(entry.function, entry.domain, Point.of(0.6, 0.8), 0.1)
        assert abs(res.value - (math.log(math.e + 0.1) - 1.0)) <= 1e-9
        assert res.backend == "radial"

    def test_log_norm(self):
        entry = dm.catalog_lookup("log_norm")
        res = compute_delta(entry.function, entry.domain, Point.of(2.0, 0.0), 1.0)
        assert abs(res.value - 2.0 * (1 - math.exp(-1))) <= 1e-9

    def test_norm_profile_identity(self):
        f = ExpressionFn.parse("r", dim=2)
        dom = DomainSpec.ball((0.0, 0.0), math.inf)
        res = compute_delta(f, dom, Point.of(3.0, 4.0), 2.0)
        assert abs(res.value - 2.0) <= 1e-9
        radius = math.hypot(*res.witness.coords)
        assert radius == pytest.approx(3.0, abs=1e-9)  # tie resolves inward
        # witness stays on the ray through p
        assert res.witness.coords[0] / res.witness.coords[1] == pytest.approx(0.75)

    def test_witness_achieves_eps(self):
        entry = dm.catalog_lookup("log_norm")
        res = compute_delta(entry.function, entry.domain, Point.of(0.0, 0.25), 0.5)
        fx = math.log(math.hypot(*res.witness.coords))
        fp = math.log(0.25)
        assert abs(abs(fx - fp) - 0.5) <= 1e-9

    def test_diagnostics_count_rounds(self):
        entry = dm.catalog_lookup("log_norm")
        res = compute_delta(entry.function, entry.domain, Point.of(2.0, 0.0), 1.0)
        assert 1 <= res.diagnostics["enclosed_rounds"] <= res.diagnostics["detect_rounds"]
        mono = dm.RadialFn(inner=exp_half(), dim=2)
        for p in (Point.of(1.0, 0.0), Point.of(-0.5, 2.0), Point.of(0.0, 0.0)):
            res = compute_delta(mono, DomainSpec.ball((0.0, 0.0), 5.0), p, 0.5)
            assert res.backend == "radial"
            assert res.diagnostics["inner_backend"] == "monotone"
            assert res.diagnostics["enclosed_rounds"] == 0

    def test_center_at_origin_in_ray(self):
        f = ExpressionFn.parse("r", dim=2)
        dom = DomainSpec.ball((0.0, 0.0), math.inf)
        res = compute_delta(f, dom, Point.of(0.0, 0.0), 1.5)
        assert abs(res.value - 1.5) <= 1e-9
        assert res.witness.coords == pytest.approx((1.5, 0.0))


class TestRayNd:
    def test_needs_two_dimensions(self):
        with pytest.raises(DimensionMismatch, match="dimension >= 2"):
            delta_ray_nd(ExpressionFn.parse("x"), DomainSpec.interval(0.0, 1.0), 0.5, 0.1)

    def test_circle_level_set(self):
        f = ExpressionFn.parse("x1^2+x2^2")
        dom = DomainSpec.box((-10.0, -10.0), (10.0, 10.0))
        res = delta_ray_nd(f, dom, Point.of(0.0, 0.0), 1.0, directions=64)
        assert abs(res.value - 1.0) <= 1e-9
        assert res.backend == "ray_nd"
        assert 0 < res.certified_lower <= res.value

    def test_linear_exact_along_axes(self):
        f = ExpressionFn.parse("x1")
        dom = DomainSpec.box((-10.0, -10.0), (10.0, 10.0))
        res = delta_ray_nd(f, dom, Point.of(0.0, 0.0), 0.5, directions=64)
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_constant(self, monkeypatch):
        f = ExpressionFn.parse("3")
        dom = DomainSpec.box((-10.0, -10.0), (10.0, 10.0))
        sides = []

        def spy(*args, **kw):
            sides.append(scan_side(*args, **kw))
            return sides[-1]

        monkeypatch.setattr(delta_mod, "scan_side", spy)
        with pytest.raises(EmptySpherePreimage) as info:
            delta_ray_nd(f, dom, Point.of(0.0, 0.0), 1.0, directions=8)
        # Every ray stops at its exit from the box, not at r_max = 2**20.
        assert info.value.searched_radius <= 16.0
        assert sides[0].rounds.sum() <= 40

    def test_hole_in_domain_is_not_a_witness(self):
        # The +x1 ray crosses the annulus hole, where k-section points are
        # out of domain; the nearest real violator is (-3.5, 0).
        f = ExpressionFn.parse("x1+0*x2")
        dom = dm.parse_domain("annulus:1:5")
        res = delta_ray_nd(f, dom, Point.of(-1.5, 0.0), 2.0, directions=4)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert dom.contains(res.witness)
        assert res.witness.coords == pytest.approx((-3.5, 0.0), abs=1e-9)
        assert res.certified_lower <= 2.0 <= res.certified_upper

    def test_crossing_beyond_the_annulus_hole(self):
        # f(p) = -1.5: the only crossing, x1 = 2.5, lies past the hole on
        # the +x1 ray (x1 = -5.5 is outside the outer radius).
        f = ExpressionFn.parse("x1+0*x2")
        dom = dm.parse_domain("annulus:1:5")
        res = delta_ray_nd(f, dom, Point.of(-1.5, 0.0), 4.0, directions=4)
        assert res.value == 4.0
        assert res.witness.coords == (2.5, 0.0)
        assert res.diagnostics["searched_radius"] <= 8.0

    @pytest.mark.parametrize("src, p, eps, directions, want", [
        # The +x1 ray never leaves the box; the crossing lies on it.
        ("x1+0*x2", (0.0, 0.0), 3.0, 4, (3.0, (3.0, 0.0), 2.865312994059705)),
        ("x1*x2", (0.5, 0.25), 0.75, 16,
         (0.8622703884025837, (1.227545205774622, 0.7128047064046623), 0.7698540935173789)),
    ])
    def test_half_unbounded_box(self, src, p, eps, directions, want):
        dom = DomainSpec.box((-1.0, -1.0), (math.inf, 1.0))
        res = delta_ray_nd(ExpressionFn.parse(src), dom, Point(p), eps, directions=directions)
        assert (res.value, res.witness.coords, res.certified_lower) == want

    def test_l1_ball(self):
        # In the L1 norm every point of x1 + x2 = f(p) - 1 on the
        # down-left quadrant of p is exactly 1 away.
        dom = DomainSpec.ball((0.0, 0.0), 2.0, norm=NormTag.L1)
        res = delta_ray_nd(ExpressionFn.parse("x1+x2"), dom, Point.of(0.25, -0.5), 1.0,
                           directions=16)
        assert res.value == 1.0
        assert res.witness.coords == (-0.75, -0.5)
        assert res.certified_lower <= 1.0

    def test_linf_ball(self):
        dom = DomainSpec.ball((0.0, 0.0), 2.0, norm=NormTag.LINF)
        res = delta_ray_nd(ExpressionFn.parse("x1*x2"), dom, Point.of(0.5, 0.5), 0.5,
                           directions=16)
        assert (res.value, res.certified_lower) == (0.45219796929458905, 0.3457632925700965)
        assert dom.contains(res.witness)

    # Each case keeps the name it was first recorded under, so that its
    # figures can be pinned again without renaming the test.
    @pytest.mark.parametrize("p, eps, directions, value, lower", [
        pytest.param((0.5, 0.5), 0.5, 16, 0.5359349708081583, 0.5054210296586138,
                     id="p0-0.5-16-0.5359349708078298-0.5054210296583038"),
        pytest.param((-1.9, -1.9), 3.0, 16, 1.5550113904666454, 1.480685992043103,
                     id="p1-3.0-16-1.5550113904664613-1.4806859920429278"),
        pytest.param((-1.25, 0.75), 0.1, 64, 0.06721745556584605, 0.06419968295348315,
                     id="p2-0.1-64-0.06721745556569658-0.06419968295334043"),
        pytest.param((1.5, -1.75), 2.0, 64, 1.1100711348867842, 1.0602337490405687,
                     id="p3-2.0-64-1.1100711348863115-1.0602337490401172"),
    ])
    def test_product_on_box_pinned(self, p, eps, directions, value, lower):
        dom = DomainSpec.box((-2.0, -2.0), (2.0, 2.0))
        res = delta_ray_nd(ExpressionFn.parse("x1*x2"), dom, Point(p), eps,
                           directions=directions)
        assert (res.value, res.certified_lower, res.certified_upper) == (value, lower, value)
        assert 0.0 < res.diagnostics["searched_radius"] <= 8.0
        assert res.diagnostics["detect_rounds"] >= directions

    @pytest.mark.parametrize("k", [100.0, 1e13])
    def test_oracle_zooms_onto_near_violator(self, k):
        # One ray along x1 overshoots delta = 1/sqrt(1+k^2) by a factor k;
        # the oracle's first grid has a violator within one cell of p.
        f = ExpressionFn.parse(f"x1+{k!r}*x2")
        dom = DomainSpec.box((-10.0, -10.0), (10.0, 10.0))
        res = delta_ray_nd(f, dom, Point.of(0.0, 0.0), 1.0, directions=1)
        want = 1.0 / math.hypot(1.0, k)
        assert res.certified_lower <= want <= res.certified_upper
        assert res.certified_lower >= 0.1 * want  # not a tol_x-sized fallback

    def test_below_float_resolution(self):
        f = ExpressionFn.parse("1e20*x1+x2")
        dom = DomainSpec.box((-10.0, -10.0), (10.0, 10.0))
        with pytest.raises(FloatResolutionLimit):
            delta_ray_nd(f, dom, Point.of(1.0, 0.0), 1.0, directions=8)

    def test_directions_deterministic(self, monkeypatch):
        a = direction_set(2, 32)
        b = direction_set(2, 32)
        assert np.array_equal(a, b)
        c = direction_set(3, 16, NormTag.L1)
        assert np.allclose(norm_of_rows(NormTag.L1, c), 1.0)
        # The rows are normalised by one norm_of_rows call, bit for bit as
        # by norm_of row by row.
        counts = (1, 2, 5, 16, 64, 100)
        got = {(norm, dim, n): direction_set(dim, n, norm)
               for norm in NormTag for dim in range(2, 20) for n in counts}
        monkeypatch.setattr(delta_mod, "norm_of_rows",
                            lambda tag, rows: np.array([norm_of(tag, v) for v in rows]))
        for (norm, dim, n), dirs in got.items():
            assert np.array_equal(dirs, direction_set(dim, n, norm)), (norm, dim, n)


# (source, domain, p, eps, directions) -> (value, certified_lower, witness,
# detect_rounds, searched_radius), each exact, as the k-section settle
# gives them: any change to how the ray samples are laid out, evaluated or
# scanned must leave every one of them bit for bit as it is.
RAY_PINS = {
    "product_box": (
        ("x1*x2", DomainSpec.box((-2.0, -2.0), (2.0, 2.0)), (1.0, 1.0), 0.5, 64),
        (0.3178383641760482, 0.3035687982947706,
         (1.2252931815220642, 1.2241968066270625), 74, 2.0)),
    "half_unbounded_box": (
        ("x1*x2", DomainSpec.box((-1.0, -1.0), (math.inf, 1.0)), (0.5, 0.25), 0.75, 64),
        (0.7999079875616502, 0.7639955836041817,
         (1.0184759478883683, 0.8591268176875707), 114, 8.0)),
    "closed_disc": (
        ("x1*x2+x1", DomainSpec.ball((0.0, 0.0), 2.0, open_boundary=False), (0.5, -0.3),
         0.4, 64),
        (0.3830230979784179, 0.3658270198875215,
         (0.8051006651009319, -0.06843947283711396), 88, 4.0)),
    "annulus": (
        ("x1+x2^2", DomainSpec.annulus((0.0, 0.0), 1.0, 3.0), (-1.5, 0.5), 1.0, 64),
        (0.5591866639146237, 0.5340816047398228,
         (-1.2629909720155856, 1.0064745262635124), 116, 4.0)),
    "l1_ball": (
        ("x1*x2", DomainSpec.ball((0.0, 0.0), 2.0, norm=NormTag.L1), (0.3, 0.2), 0.3, 32),
        (0.7043033388344162, 0.672683169507296,
         (0.653010621250978, 0.5512927175834382), 56, 4.0)),
    "linf_box": (
        ("sin(x1)+x2", DomainSpec.box((-3.0, -3.0), (3.0, 3.0), norm=NormTag.LINF),
         (0.4, -0.7), 0.6, 32),
        (0.3186146891571477, 0.2941955176100216,
         (0.08138531084285233, -0.9918771547501436), 45, 4.0)),
    "product_3d": (
        ("x1*x2*x3", DomainSpec.box((-1.5,) * 3, (1.5,) * 3), (0.5, 0.4, -0.3), 0.2, 64),
        (0.4544088757896934, 0.3351034446927089,
         (0.8369465462338742, 0.6447205893297359, -0.48184137190316034), 118, 4.0)),
    "ball_3d": (
        ("sin(x1)+x2*x3", DomainSpec.ball((0.0, 0.0, 0.0), 2.0, open_boundary=False),
         (0.2, -0.4, 0.6), 0.3, 32),
        (0.24195007729700033, 0.1828263010637433,
         (0.01723120587467894, -0.49156607317841045, 0.7294258940115401), 34, 4.0)),
}


@pytest.mark.parametrize("name", sorted(RAY_PINS))
def test_ray_nd_outputs_pinned(name):
    (src, dom, p, eps, directions), want = RAY_PINS[name]
    f = ExpressionFn.parse(src, dim=len(p))
    via_router = compute_delta(f, dom, Point(p), eps, directions=directions)
    direct = delta_ray_nd(f, dom, Point(p), eps, directions=directions)
    for res in (via_router, direct):
        assert res.backend == "ray_nd"
        assert (res.value, res.certified_lower, res.witness.coords,
                res.diagnostics["detect_rounds"], res.diagnostics["searched_radius"]) == want
        assert res.certified_upper == res.value


class TestMembershipPredicate:
    def test_square_true_at_optimum(self):
        entry = dm.catalog_lookup("square")
        v = math.sqrt(10) - 3.0
        assert is_delta_epsilon_number(entry.function, entry.domain, 3.0, 1.0, v,
                                       samples=4096)

    def test_square_false_past_optimum(self):
        entry = dm.catalog_lookup("square")
        v = (math.sqrt(10) - 3.0) * 1.01
        assert not is_delta_epsilon_number(entry.function, entry.domain, 3.0, 1.0, v,
                                           samples=4096)

    def test_identity_interior(self):
        entry = dm.catalog_lookup("identity")
        assert is_delta_epsilon_number(entry.function, entry.domain, 0.0, 1.0, 0.5)

    def test_constant_vacuously_true(self):
        f = ExpressionFn.parse("5")
        assert is_delta_epsilon_number(f, REALS, 0.0, 1.0, 100.0, samples=512)


class TestEpsilonBound:
    def test_identity_unit_interval(self):
        beta = epsilon_bound(ExpressionFn.parse("x"), DomainSpec.interval(0.0, 1.0),
                             samples=4001)
        assert beta == pytest.approx(0.2475, abs=1e-9)

    def test_sine_truncated_reals(self):
        beta = epsilon_bound(ExpressionFn.parse("sin(x)"), REALS, samples=4001)
        assert beta == pytest.approx(0.495, abs=2e-3)

    def test_constant(self):
        with pytest.raises(ConstantFunction):
            epsilon_bound(ExpressionFn.parse("2"), DomainSpec.interval(0.0, 1.0))

    def test_no_finite_sample(self):
        # sqrt(-1-x^2) is NaN at every sample: there is no spread to read.
        with pytest.raises(ConstantFunction, match="no finite samples"):
            epsilon_bound(ExpressionFn.parse("sqrt(-1-x^2)"), DomainSpec.interval(-1.0, 1.0))

    def test_spread_that_overflows(self):
        # 1e302*x spans +-1e308 on the truncated line: its spread is +inf in
        # float64, so no finite beta, and no eps grid, can be read from it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatResolutionLimit, match="overflows float64"):
                epsilon_bound(ExpressionFn.parse("1e302*x"), REALS)


class TestBackendAgreement:
    """Monotone formula vs generic level-set scan on monotone functions."""

    @pytest.mark.parametrize("mono,expr,interval,ps,epss", [
        ("identity", "x", (-math.inf, math.inf),
         np.linspace(-8, 8, 10), (0.25, 1.0)),
        ("exp", "exp(x)", (0.0, math.inf),
         np.linspace(0.0, 4.0, 10), (0.1, 0.9)),
        ("cube", "x^3", (-math.inf, math.inf),
         np.linspace(-2.5, 2.5, 10), (0.2, 1.0)),
    ])
    def test_agreement(self, mono, expr, interval, ps, epss):
        fns = {
            "identity": lambda x: x,
            "exp": np.exp,
            "cube": lambda x: x * x * x,
        }
        g = Monotone1DFn(fn=fns[mono], interval=interval, increasing=True,
                         label=mono)
        f = ExpressionFn.parse(expr)
        dom = DomainSpec.interval(*interval)
        for p in ps:
            for eps in epss:
                a = compute_delta(g, None, float(p), eps)
                b = compute_delta(f, dom, float(p), eps)
                assert (a.backend, b.backend) == ("monotone", "levelset1d")
                assert abs(a.value - b.value) <= 1e-9, (mono, p, eps)
                assert a.one_sided == b.one_sided, (mono, p, eps)


class TestCatalogRegression:
    """The generic backends reproduce every closed-form delta, and their
    certified bracket contains it."""

    def test_square_and_identity(self):
        rng = np.random.default_rng(11)
        mono_identity = Monotone1DFn(fn=lambda x: x, interval=(-math.inf, math.inf),
                                     increasing=True)
        for name, p_lo, p_hi in [("square", -10.0, 10.0), ("identity", -20.0, 20.0)]:
            entry = dm.catalog_lookup(name)
            for _ in range(50):
                p = float(rng.uniform(p_lo, p_hi))
                eps = float(rng.uniform(0.05, 5.0))
                got = compute_delta(entry.function, entry.domain, p, eps)
                assert got.backend == "levelset1d"
                assert got.diagnostics["lower_kind"] == "proof"
                want = entry.closed_form_delta(p, eps)
                assert abs(got.value - want) <= 1e-9, (name, p, eps)
                assert got.certified_lower <= want <= got.certified_upper, (name, p, eps)
                if name == "identity":
                    mono = compute_delta(mono_identity, None, p, eps)
                    assert mono.backend == "monotone"
                    assert mono.certified_lower <= want <= mono.certified_upper, (p, eps)

    def test_radial_entries(self):
        rng = np.random.default_rng(12)
        for name, t_lo, t_hi, e_hi in [("exp_norm", 0.0, 5.0, 2.0),
                                       ("log_norm", 0.1, 10.0, 3.0)]:
            entry = dm.catalog_lookup(name)
            for _ in range(50):
                t = float(rng.uniform(t_lo, t_hi))
                theta = float(rng.uniform(0, 2 * math.pi))
                eps = float(rng.uniform(0.05, e_hi))
                p = Point.of(t * math.cos(theta), t * math.sin(theta))
                if not entry.domain.contains(p):
                    continue
                got = compute_delta(entry.function, entry.domain, p, eps)
                assert got.backend == "radial"
                assert got.diagnostics["lower_kind"] == "proof"
                want = entry.closed_form_delta(t, eps)
                assert abs(got.value - want) <= 1e-9, (name, t, eps)
                assert got.certified_lower <= want <= got.certified_upper, (name, t, eps)


class TestProvedBrackets:
    """Line brackets that the sampled engine missed or left loose, now
    proved on monotone pieces, against exact deltas."""

    def test_stationary_point(self):
        # r0 = eps / |f'(0)| is unbounded; the sampled lower end read 0.46.
        res = compute_delta(dm.catalog_lookup("square").function, None, 0.0, 2.0)
        assert res.diagnostics["lower_kind"] == "proof"
        assert res.certified_lower <= math.sqrt(2.0) <= res.certified_upper
        assert math.sqrt(2.0) - res.certified_lower <= 1e-9

    def test_exp_sweep_has_no_miss(self):
        f = ExpressionFn.parse("exp(x)")
        rng = np.random.default_rng(5)
        ps = rng.uniform(-10.0, 10.0, 2000)
        epss = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 2000))
        with localcontext() as ctx:
            ctx.prec = 50
            for p, eps in zip(ps.tolist(), epss.tolist()):
                res = compute_delta(f, None, p, eps)
                want = (1 + Decimal(eps) * (-Decimal(p)).exp()).ln()
                assert Decimal(res.certified_lower) <= want <= Decimal(res.certified_upper), \
                    (p, eps)

    @pytest.mark.parametrize("p, eps", [
        # exp_norm items of perfbench's point_queries at seeds 77 and 2026
        # (||p|| = 8.613309618380125 and 8.74693447885361), where the sampled
        # violator end passed h >= 0 only through the rounding of f.
        ((-8.535521116233118, -1.1549813229737174), 0.04064303801275888),
        ((-8.100170873391342, -3.300923294961674), 0.9176995703054758),
    ])
    def test_violator_end_past_the_rounding(self, p, eps):
        entry = dm.catalog_lookup("exp_norm")
        res = compute_delta(entry.function, None, p, eps)
        t = res.diagnostics["radius"]
        assert t == math.hypot(*p)
        with localcontext() as ctx:
            ctx.prec = 50
            want = (1 + Decimal(eps) * (-Decimal(t)).exp()).ln()
        assert Decimal(res.certified_lower) <= want <= Decimal(res.certified_upper)
        assert res.diagnostics["lower_kind"] == "proof"

    def test_sliver_beside_a_hole(self):
        # sqrt(x^2-1) at eps = f(p) - 0.01: the -t violators [1, 1.00005] end
        # where f becomes undefined, thinner than a detect step.
        f = ExpressionFn.parse("sqrt(x^2-1)")
        with localcontext() as ctx:
            ctx.prec = 50
            for p in np.linspace(1.05, 6.0, 400).tolist():
                eps = math.sqrt(p * p - 1.0) - 0.01
                res = compute_delta(f, None, p, eps)
                fp, e = (Decimal(p) ** 2 - 1).sqrt(), Decimal(eps)
                want = min(Decimal(p) - (1 + (fp - e) ** 2).sqrt(),
                           (1 + (fp + e) ** 2).sqrt() - Decimal(p))
                assert Decimal(res.certified_lower) <= want <= Decimal(res.certified_upper), p

    @pytest.mark.parametrize("src, p, want", [("1/x", 2.0, 1.0), ("exp(x)", -2.0, None)])
    def test_one_sided_queries(self, src, p, want):
        # The side without a crossing bounds nothing; the sampled engine
        # subtracted its coarse grid step and read about 2e-12.
        want = math.log1p(0.5 * math.exp(2.0)) if want is None else want
        res = compute_delta(ExpressionFn.parse(src), None, p, 0.5)
        assert res.one_sided and res.diagnostics["lower_kind"] == "proof"
        assert res.certified_lower <= want <= res.certified_upper
        assert want - res.certified_lower <= 1e-9 * want

    @pytest.mark.parametrize("p, want", [
        (1e-9, 5.31535891489091e-19), (1e-11, 7.47831817956741e-23),
    ])
    def test_sin_inv_near_zero(self, p, want):
        # want: mpmath at 60 digits, at the float p.  Padded by 1e-9 |1/x|,
        # every sin enclosure there was [-1, 1]; the walk gave up, and the
        # sampled engine's lower ends, 2.5e-18 and 2.7e-18, lay above delta.
        res = compute_delta(ExpressionFn.parse("sin(1/x)"),
                            DomainSpec.interval(0.0, 1.0, open_lo=True), p, 0.5)
        assert res.diagnostics["lower_kind"] == "proof"
        assert res.certified_lower <= want <= res.certified_upper

    def test_fallback_row_on_a_line_with_only_an_upper_end(self):
        # (-inf, 1): the sampled engine tests its samples against the upper
        # end alone.  The +t crossing of 0.9 would lie past 1, so delta is
        # the -t one, eps/3.
        f = ExpressionFn.parse("3*abs(x)")
        dom = DomainSpec.interval(-math.inf, 1.0, open_hi=True)
        line = line_problem(f, dom)[1]
        assert line.contains(np.array([-1e300, 0.9, 1.0, 2.0])).tolist() == \
            [True, True, False, False]
        res = compute_delta(f, dom, 0.9, 0.5)
        assert res.diagnostics["lower_kind"] == "samples" and res.one_sided
        assert res.value == pytest.approx(0.5 / 3.0, rel=1e-9)
        assert res.certified_lower <= 0.5 / 3.0 * (1.0 + 1e-15)

    def test_one_sided_fallback_subtracts_its_own_step(self):
        # min has no derivative rule: line_field, whose lower end is now
        # the least over sides of clear - step, that side's own step
        # (1e-12 when the far side's coarse step was subtracted).
        res = compute_delta(ExpressionFn.parse("min(x, 0)"), None, 1.0, 0.5)
        assert res.diagnostics["lower_kind"] == "samples" and res.one_sided
        assert res.value == 1.5 and 1.4999 < res.certified_lower <= 1.5


class TestSampledBrackets:
    """Sampled brackets against closed forms: the violator end must be a
    violator of the exact f, not one that h >= 0 only by rounding."""

    def test_abs_fallback_rows(self):
        # abs has no derivative rule, so every row is line_field's; delta = eps/3.
        f = ExpressionFn.parse("3*abs(x)")
        rng = np.random.default_rng(3)
        ps = rng.uniform(-10.0, 10.0, 2000)
        epss = 10.0 ** rng.uniform(-3.0, 0.5, 2000)
        short = []
        for p, eps in zip(ps.tolist(), epss.tolist()):
            res = compute_delta(f, None, p, eps)
            assert res.diagnostics["lower_kind"] == "samples"
            want = eps / 3.0
            assert res.certified_lower <= want * (1.0 + 1e-15), (p, eps)
            if res.certified_upper < want * (1.0 - 1e-15):
                short.append((p, eps))
        # One known row falls short, by 4e-14 relative: r0 = eps/(2*slope)
        # puts the end of the second detect window on the crossing of a
        # linear profile, and there that detect sample reads h >= 0 by
        # rounding alone.  The settle keeps its ends inside the sweep's
        # bracket, so it cannot move an end that the sweep found.
        assert short == [(-9.60799162896781, 0.001044135703962784)]

    def test_linear_rays(self):
        # Eight rays include the gradient's (1, 1)/sqrt(2); delta = eps/sqrt(2).
        f = ExpressionFn.parse("x1+x2")
        dom = DomainSpec.box((-50.0, -50.0), (50.0, 50.0))
        rng = np.random.default_rng(3)
        ps = rng.uniform(-40.0, 40.0, (150, 2))
        epss = 10.0 ** rng.uniform(-3.0, 0.5, 150)
        for p, eps in zip(ps.tolist(), epss.tolist()):
            res = compute_delta(f, dom, Point(tuple(p)), eps, directions=8)
            assert res.backend == "ray_nd"
            want = eps / math.sqrt(2.0)
            assert res.certified_lower <= want * (1.0 + 1e-15), (p, eps)
            assert res.certified_upper >= want * (1.0 - 1e-15), (p, eps)


class TestFloatResolution:
    """delta below the float spacing at p, or an overflowing f(p), is a
    typed error rather than a bracket that excludes delta."""

    @pytest.mark.parametrize("p,eps", [(1e8, 1e-9), (1e200, 1.0)])
    def test_square(self, p, eps):
        entry = dm.catalog_lookup("square")
        with pytest.raises(FloatResolutionLimit):
            compute_delta(entry.function, None, p, eps)

    def test_resolvable_neighbour(self):
        # delta = 5e-9 is a few hundred ulps at p = 1e-1: still resolved
        entry = dm.catalog_lookup("square")
        res = compute_delta(entry.function, None, 0.1, 1e-9)
        want = entry.closed_form_delta(0.1, 1e-9)
        assert res.certified_lower <= want <= res.certified_upper


class TestComputeDeltaRouting:
    def test_catalog_radial(self):
        entry = dm.catalog_lookup("exp_norm")
        res = compute_delta(entry.function, None, Point.of(1.0, 0.0), 0.5)
        assert res.backend == "radial"

    def test_monotone(self):
        res = compute_delta(cube(), REALS, 1.0, 0.5)
        assert res.backend == "monotone"

    def test_monotone_checks_the_domain(self):
        # 0 lies in exp's interval (-1, 3) but not in (0, 1]
        g = Monotone1DFn(fn=np.exp, interval=(-1.0, 3.0), increasing=True)
        unit = DomainSpec.interval(0.0, 1.0, open_lo=True)
        with pytest.raises(DomainViolation):
            compute_delta(g, unit, 0.0, 0.1)
        with pytest.raises(DomainViolation):
            compute_delta(ExpressionFn.parse("exp(x)"), unit, 0.0, 0.1)
        assert compute_delta(g, unit, 0.5, 0.1).backend == "monotone"

    def test_monotone_clipped_at_its_upper_end(self):
        # R clipped to exp's interval (-inf, 1] ends at 1, closed.  At eps
        # 1.5 the +t crossing of 0.5 lies past that end, so delta is the -t
        # one; 1.5 lies on R but not on the clipped line, which the line
        # gate refuses.
        g = Monotone1DFn(fn=np.exp, interval=(-math.inf, 1.0), increasing=True)
        line = line_problem(g, REALS)[1]
        assert (line.hi, line.open_hi, line.monotone, line.slope) == (1.0, False, True, None)
        res = compute_delta(g, REALS, 0.5, 1.5)
        want = 0.5 - math.log(math.exp(0.5) - 1.5)
        assert res.backend == "monotone" and res.one_sided
        assert res.value == pytest.approx(want, rel=1e-9)
        assert res.certified_lower <= want * (1.0 + 1e-12)
        end, past = delta_field(g, REALS, [1.0, 1.5], 1.5)
        assert end.value == pytest.approx(1.0 - math.log(math.e - 1.5), rel=1e-9)
        assert isinstance(past, DomainViolation)
        with pytest.raises(DomainViolation):
            compute_delta(g, REALS, 1.5, 1.5)

    def test_expression_1d(self):
        res = compute_delta(ExpressionFn.parse("x^2"), REALS, 1.0, 0.5)
        assert res.backend == "levelset1d"

    def test_nd(self):
        f = ExpressionFn.parse("x1+x2")
        dom = DomainSpec.box((-5.0, -5.0), (5.0, 5.0))
        res = compute_delta(f, dom, Point.of(0.0, 0.0), 0.5)
        assert res.backend == "ray_nd"

    def test_one_d_function_on_a_two_d_domain(self):
        # A fault of the problem, not of a point: both entries raise it.
        f = ExpressionFn.parse("x^2")
        dom = DomainSpec.box((-1.0, -1.0), (1.0, 1.0))
        with pytest.raises(DimensionMismatch, match="1-d function on a 2-d domain"):
            compute_delta(f, dom, Point.of(0.0, 0.0), 0.5)
        with pytest.raises(DimensionMismatch, match="1-d function on a 2-d domain"):
            delta_field(f, dom, [Point.of(0.0, 0.0)], 0.5)


def _bits(x):
    """x with every float as its hex text, so that == compares bits
    (a Point or a DeltaResult goes through dataclasses.asdict first)."""
    if dataclasses.is_dataclass(x):
        x = dataclasses.asdict(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    return x


def _outcome(call):
    """call()'s result, or the DeltamaxError it raised."""
    try:
        return call()
    except DeltamaxError as exc:
        return exc


def _row_bits(row):
    """A delta_field row, or a compute_delta outcome, compared bit for
    bit: a result field by field, an error by type, text and radius."""
    if isinstance(row, DeltamaxError):
        return type(row), str(row), _bits(getattr(row, "searched_radius", None))
    return _bits(row)


def _raised(row):
    """A delta_field row, raised when it is an error."""
    if isinstance(row, DeltamaxError):
        raise row
    return row


class TestDeltaField:
    """delta_field(f, dom, ps, eps) is compute_delta at every p of ps, bit
    for bit, with each failed point's error in its row."""

    BOX = DomainSpec.box((-2.0, -2.0), (2.0, 2.0))
    CASES = {
        "monotone": (cube(), REALS, [-2.0, -0.5, 0.0, 1.0, 2.0], 0.5),
        # one-sided near the left end; -1 is outside exp's (0, inf)
        "monotone_one_sided": (exp_half(), None, [0.1, -1.0, 2.0], 0.5),
        "monotone_empty": (Monotone1DFn(fn=lambda x: x, interval=(0.0, 1.0), increasing=True),
                           None, [0.25, 2.0, 0.5], 5.0),
        "monotone_resolution": (cube(), REALS, [1.0, 1e8, 2.0], 1e-9),
        # 1e16 has no float clear of p; square(1e200) overflows
        "levelset1d": (ExpressionFn.parse("x^2"), REALS,
                       [-3.0, -1.0, 1e16, 0.0, 1e200, 0.5, math.nan, 3.0], 0.5),
        "levelset1d_strict_fp": (ExpressionFn.parse("ln(x)"), None,
                                 [-2.0, -1.0, 0.0, 1.0, 2.0], 0.5),
        # f(1e-200) = -inf
        "levelset1d_neg_inf": (ExpressionFn.parse("-1/x^2"), REALS, [1e-200, 0.5, -2.0], 0.5),
        # 2 lies in the domain but outside the claimed interval, which clips the line
        "monotone_clipped": (Monotone1DFn(fn=np.exp, interval=(-1.0, 1.0), increasing=True,
                                          label="exp"),
                             DomainSpec.interval(-5.0, 5.0), [0.5, 2.0, -0.25], 0.5),
        "levelset1d_empty": (ExpressionFn.parse("x"), DomainSpec.interval(0.0, 1.0),
                             [0.0, 0.5, 1.0, 1.5], 5.0),
        "levelset1d_open_end": (ExpressionFn.parse("sin(1/x)"),
                                DomainSpec.interval(0.0, 1.0, open_lo=True),
                                [0.0, 0.001, 0.3, 1.0], 0.5),
        "radial": (dm.catalog_lookup("log_norm").function, None,
                   [Point.of(0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (0.3, -0.4)], 0.5),
        "radial_origin": (dm.catalog_lookup("exp_norm").function, None,
                          [(0.0, 0.0), (0.6, 0.8), (-1.0, 2.0)], 0.5),
        "radial_monotone": (dm.RadialFn(inner=exp_half(), dim=2),
                            DomainSpec.ball((0.0, 0.0), 5.0),
                            [(1.0, 0.0), (0.0, 0.0), (4.0, 4.0)], 0.5),
        "ray_nd": (ExpressionFn.parse("x1*x2"), BOX, [(1.0, 1.0), (3.0, 0.0), (0.5, -0.5)], 0.5),
        "ray_nd_empty": (ExpressionFn.parse("x1+x2"), DomainSpec.box((-1.0, -1.0), (1.0, 1.0)),
                         [(0.0, 0.0), (0.5, 0.5)], 10.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_equal_compute_delta(self, case):
        f, dom, ps, eps = self.CASES[case]
        rows = delta_field(f, dom, ps, eps, directions=16)
        assert len(rows) == len(ps)
        for p, row in zip(ps, rows):
            want = _outcome(lambda: compute_delta(f, dom, p, eps, directions=16))
            assert _row_bits(row) == _row_bits(want), p

    # Per (case, row): the error of a row that the point gates or the
    # strict read of f(p) stop, as the CLI's scan goldens cannot pin them
    # (a NaN point, a point off a clipped Monotone1DFn line) or beside them.
    GATE_ERRORS = {
        ("levelset1d", 4): (FloatResolutionLimit, "f(1e+200) = inf is beyond the float64 "
                            "range, so delta(p, eps) cannot be resolved at this point"),
        ("levelset1d", 6): (NonFinite, "point coordinates must be finite, got (nan,)"),
        ("levelset1d_strict_fp", 1): (NonFinite, "f(-1.0) = nan"),
        ("levelset1d_neg_inf", 0): (FloatResolutionLimit, "f(1e-200) = -inf is beyond the "
                                    "float64 range, so delta(p, eps) cannot be resolved at "
                                    "this point"),
        ("monotone_clipped", 1): (DomainViolation,
                                  "(2.0,) is outside the domain interval:-5.0:5.0"),
    }

    @pytest.mark.parametrize("case, k", sorted(GATE_ERRORS))
    def test_gate_errors_are_pinned(self, case, k):
        f, dom, ps, eps = self.CASES[case]
        row = delta_field(f, dom, ps, eps)[k]
        assert (type(row), str(row)) == self.GATE_ERRORS[case, k]

    def test_every_backend_and_row_failure_is_covered(self):
        seen = set()
        for f, dom, ps, eps in self.CASES.values():
            for row in delta_field(f, dom, ps, eps, directions=16):
                seen.add(type(row).__name__ if isinstance(row, DeltamaxError)
                         else row.diagnostics.get("inner_backend", row.backend))
        assert seen >= {"monotone", "levelset1d", "ray_nd", "DomainViolation", "NonFinite",
                        "FloatResolutionLimit", "EmptySpherePreimage"}
        assert "radial" in {r.backend for r in delta_field(*self.CASES["radial"])
                            if not isinstance(r, DeltamaxError)}

    def test_many_chunks_in_one_line_field_call(self, monkeypatch):
        # 2,090 rows reach the line engine, more than one 2,048-point
        # chunk; rows outside the domain and NaN points fail in between.
        ps = np.linspace(-10.0, 10.0, 2200)
        ps[::150] = math.nan
        # x^2 with no derivative rule (abs): every row takes the sampled engine.
        f, dom = ExpressionFn.parse("abs(x)^2"), DomainSpec.interval(-9.5, 9.5)
        calls = []

        def counted(line, ts, *args, **kwargs):
            calls.append(ts.size)
            return line_field(line, ts, *args, **kwargs)

        monkeypatch.setattr(delta_mod, "line_field", counted)
        rows = delta_field(f, dom, ps, 0.5)
        assert calls == [sum(isinstance(r, dm.DeltaResult) for r in rows)]
        assert calls[0] > 2048
        monkeypatch.undo()
        for p, row in zip(ps, rows):
            assert _row_bits(row) == _row_bits(_outcome(lambda: compute_delta(f, dom, p, 0.5)))

    def test_many_chunks_in_one_piece_field_call(self, monkeypatch):
        # The same rows of x^2 itself: one line_field call walks them in
        # 2,048-point chunks, and no row needs the sampled engine.
        ps = np.linspace(-10.0, 10.0, 2200)
        ps[::150] = math.nan
        f, dom = ExpressionFn.parse("x^2"), DomainSpec.interval(-9.5, 9.5)
        calls = []

        def counted(line, ts, *args):
            calls.append(ts.size)
            return line_field(line, ts, *args)

        monkeypatch.setattr(delta_mod, "line_field", counted)
        monkeypatch.setattr(search, "_sampled_field", None)
        rows = delta_field(f, dom, ps, 0.5)
        assert calls == [sum(isinstance(r, dm.DeltaResult) for r in rows)]
        assert calls[0] > 2048
        assert {r.diagnostics["lower_kind"] for r in rows if isinstance(r, dm.DeltaResult)} \
            == {"proof"}
        monkeypatch.undo()
        for p, row in zip(ps, rows):
            assert _row_bits(row) == _row_bits(_outcome(lambda: compute_delta(f, dom, p, 0.5)))

    def test_no_points(self):
        assert delta_field(ExpressionFn.parse("x^2"), REALS, [], 0.5) == []
        assert delta_field(ExpressionFn.parse("x1*x2"), self.BOX, [], 0.5) == []

    def test_bad_directions_raise_once(self):
        # A fault of the problem is not written into every row.
        with pytest.raises(InvalidArgument, match="at least one direction"):
            delta_field(ExpressionFn.parse("x1*x2"), self.BOX,
                        [(1.0, 1.0), (0.5, 0.5), (3.0, 0.0)], 0.5, directions=0)


class TestMonotoneBracket:
    """The monotone bounds are the k-section brackets of the inverse
    images, so they hold the exact delta, not a padded value."""

    @staticmethod
    def exact(name, p, eps):
        """delta on R at 50 digits: identity eps, exp ln(1 + eps e^-p),
        cube the nearer of the two cube-root crossings."""
        with localcontext() as ctx:
            ctx.prec = 50
            P, E = Decimal(p), Decimal(eps)
            if name == "identity":
                return E
            if name == "exp":
                return (1 + E * (-P).exp()).ln()
            cbrt = lambda y: (abs(y) ** (Decimal(1) / 3)).copy_sign(y)
            return min(cbrt(P ** 3 + E) - P, P - cbrt(P ** 3 - E))

    def test_identity_one_ulp_case(self):
        g = Monotone1DFn(fn=lambda x: x, interval=(-math.inf, math.inf), increasing=True)
        eps = 667685.2413501737
        res = compute_delta(g, None, 0.0, eps)
        assert res.certified_lower <= eps <= res.certified_upper
        assert res.certified_lower < res.certified_upper

    def test_seeded_sweep_holds_the_exact_delta(self):
        fns = {"identity": lambda x: x, "exp": np.exp, "cube": lambda x: x * x * x}
        rng = np.random.default_rng(20)
        for name, fn in fns.items():
            g = Monotone1DFn(fn=fn, interval=(-math.inf, math.inf), increasing=True)
            ps = np.concatenate([[0.0], rng.uniform(-5.0, 5.0, 299)])
            epss = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 300))
            for p, eps in zip(ps.tolist(), epss.tolist()):
                res = compute_delta(g, None, p, eps)
                want = self.exact(name, p, eps)
                assert Decimal(res.certified_lower) <= want <= Decimal(res.certified_upper), \
                    (name, p, eps)
                assert res.certified_upper - res.certified_lower <= 1e-6 * float(want)

    def test_crossing_below_resolution_is_typed(self):
        # g(p) + eps rounds to g(p): the only bracket reaches p itself
        g = Monotone1DFn(fn=lambda x: x, interval=(-math.inf, math.inf), increasing=True)
        with pytest.raises(FloatResolutionLimit):
            compute_delta(g, None, 1e8, 1e-12)


def _same_result(a, b):
    """Equal field by field, diagnostics included."""
    return dataclasses.asdict(a) == dataclasses.asdict(b)


class TestPointDimension:
    """A point must have the problem's dimension; numbers of any kind
    are 1-d points."""

    def test_two_d_point_on_a_line_problem(self):
        square = dm.catalog_lookup("square").function
        with pytest.raises(DimensionMismatch):
            compute_delta(square, REALS, Point.of(1.0, 2.0), 0.5)
        with pytest.raises(DimensionMismatch):
            compute_delta(cube(), REALS, Point.of(1.0, 2.0), 0.5)

    @pytest.mark.parametrize("p", [(1.0,), np.float32(1.0), np.int64(1), np.array(1.0)])
    def test_one_d_point_forms(self, p):
        square = dm.catalog_lookup("square").function
        assert _same_result(compute_delta(square, REALS, p, 0.5),
                            compute_delta(square, REALS, 1.0, 0.5))

    def test_radial_point_of_the_wrong_dimension(self):
        entry = dm.catalog_lookup("exp_norm")
        with pytest.raises(DimensionMismatch):
            compute_delta(entry.function, entry.domain, Point.of(0.6, 0.8, 0.0), 0.5)
        # a 3-d radial function on a 2-d ball
        ball = DomainSpec.ball((0.0, 0.0), 5.0)
        with pytest.raises(DimensionMismatch):
            compute_delta(dm.RadialFn(inner=exp_half(), dim=3), ball, Point.of(1.0, 0.0), 0.5)

    @pytest.mark.parametrize("entry", [
        "compute_delta", "compute_delta_natural", "ray_nd_3d", "ray_nd_1d", "levelset1d",
        "monotone", "radial", "grid_delta_bounds", "is_delta_epsilon_number", "eval_fn",
        "eval_fn_on_dom", "f_wider_than_domain", "radial_dim_off_domain", "nd_stage",
        "epsilon_bound", "monotone_on_box", "delta_field", "delta_field_line",
    ])
    def test_wrong_dimension_everywhere(self, entry):
        # model.point_in is the one gate: a point of the wrong dimension is
        # a DimensionMismatch (CLI exit 4) from every entry point.  So is
        # an f of the wrong dimension, caught where f is evaluated.
        f = ExpressionFn.parse("x1*x2")
        box = DomainSpec.box((-2.0, -2.0), (2.0, 2.0))
        p3, p2 = Point.of(0.5, 0.5, 0.5), Point.of(1.0, 2.0)
        exp_norm = dm.catalog_lookup("exp_norm")
        call = {
            "compute_delta": lambda: compute_delta(f, box, p3, 0.5),
            "compute_delta_natural": lambda: compute_delta(f, None, p3, 0.5),
            "delta_field": lambda: delta_field(f, box, [Point.of(1.0, 1.0), p3], 0.5),
            "delta_field_line": lambda: delta_field(ExpressionFn.parse("x^2"), REALS,
                                                    [1.0, p2], 0.5),
            "ray_nd_3d": lambda: delta_ray_nd(f, box, p3, 0.5),
            "ray_nd_1d": lambda: delta_ray_nd(f, box, 0.5, 0.5),
            "levelset1d": lambda: compute_delta(ExpressionFn.parse("x^2"), REALS, p2, 0.5),
            "monotone": lambda: compute_delta(cube(), None, p2, 0.5),
            "radial": lambda: compute_delta(exp_norm.function, exp_norm.domain, p3, 0.5),
            "grid_delta_bounds": lambda: grid_delta_bounds(
                f, box, p3, 0.5, GridSpec(h=0.5, window=box)),
            "is_delta_epsilon_number": lambda: is_delta_epsilon_number(f, box, p3, 0.5, 0.1),
            "eval_fn": lambda: dm.eval_fn(f, p3),
            "eval_fn_on_dom": lambda: dm.eval_fn(f, p3, box),
            "f_wider_than_domain": lambda: compute_delta(ExpressionFn.parse("x1*x3"), box, p2, 0.5),
            "radial_dim_off_domain": lambda: compute_delta(
                ExpressionFn.parse("exp(r)", dim=3), box, Point.of(0.5, 0.5), 0.5),
            "nd_stage": lambda: dm.infimum_delta(ExpressionFn.parse("x1*x3"), box, 0.5,
                                                 schedule=[(box, 3)]),
            "epsilon_bound": lambda: dm.epsilon_bound(ExpressionFn.parse("x1*x3"), box),
            "monotone_on_box": lambda: grid_delta_bounds(
                cube(), box, p2, 0.5, GridSpec(h=0.5, window=box)),
        }[entry]
        with pytest.raises(DimensionMismatch):
            call()


class TestInvalidArgument:
    """Bad numeric arguments raise InvalidArgument, a DeltamaxError that
    is still a ValueError."""

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("case", ["monotone", "levelset1d", "radial", "ray_nd",
                                      "delta_field/monotone", "delta_field/levelset1d",
                                      "delta_field/radial", "delta_field/ray_nd"])
    def test_eps(self, case, eps):
        entry, _, case = case.rpartition("/")
        f, dom, p = {
            "monotone": (cube(), REALS, 1.0),
            "levelset1d": (ExpressionFn.parse("x^2"), REALS, 1.0),
            "radial": (dm.catalog_lookup("exp_norm").function, None, Point.of(1.0, 0.0)),
            "ray_nd": (ExpressionFn.parse("x1+x2"),
                       DomainSpec.box((-5.0, -5.0), (5.0, 5.0)), Point.of(0.0, 0.0)),
        }[case]
        with pytest.raises(InvalidArgument):
            if entry:
                delta_field(f, dom, [p, p], eps)
            else:
                compute_delta(f, dom, p, eps)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("entry", [
        "grid_delta_bounds", "is_delta_epsilon_number", "brute_force_inf"])
    def test_eps_of_the_oracle_and_the_predicate(self, entry, eps):
        f = ExpressionFn.parse("x1*x2")
        box = DomainSpec.box((-2.0, -2.0), (2.0, 2.0))
        p = Point.of(0.1, 0.2)
        call = {
            "grid_delta_bounds": lambda: grid_delta_bounds(
                f, box, p, eps, GridSpec.around(p, 0.5, 21)),
            "is_delta_epsilon_number": lambda: is_delta_epsilon_number(f, box, p, eps, 0.1),
            "brute_force_inf": lambda: brute_force_inf(f, box, eps, GridSpec(h=0.5, window=box)),
        }[entry]
        with pytest.raises(InvalidArgument):
            call()

    @pytest.mark.parametrize("samples", [math.nan, math.inf, -4])
    @pytest.mark.parametrize("entry", ["is_delta_epsilon_number", "epsilon_bound"])
    def test_samples(self, entry, samples):
        # NaN and inf raised a bare ValueError and OverflowError; -4 sampled 3 points.
        square = dm.catalog_lookup("square")
        with pytest.raises(InvalidArgument, match="samples"):
            if entry == "epsilon_bound":
                epsilon_bound(square.function, square.domain, samples=samples)
            else:
                is_delta_epsilon_number(square.function, square.domain, 3.0, 1.0, 0.1,
                                        samples=samples)

    def test_other_arguments(self):
        box = DomainSpec.box((-5.0, -5.0), (5.0, 5.0))
        with pytest.raises(InvalidArgument):
            compute_delta(ExpressionFn.parse("x1+x2"), box, Point.of(0.0, 0.0), 0.5,
                          directions=0)
        square = dm.catalog_lookup("square")
        with pytest.raises(InvalidArgument):
            is_delta_epsilon_number(square.function, square.domain, 3.0, 1.0, 0.0)
        with pytest.raises(InvalidArgument):
            dm.uc_verdict(square.function, square.domain, eps_grid=[])

    def test_infinite_beta(self):
        # An infinite ball is no delta: refused, not searched, and without
        # numpy warnings from an infinite radius.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgument, match="beta must be a positive finite"):
                is_delta_epsilon_number(ExpressionFn.parse("x^2"), DomainSpec.interval(-5.0, 5.0),
                                        1.0, 1.0, beta=math.inf)

    def test_is_a_deltamax_value_error(self):
        assert issubclass(InvalidArgument, DeltamaxError)
        assert issubclass(InvalidArgument, ValueError)


class TestStrictFp:
    """Every delta entry point reads f(p) by one rule: NaN raises
    NonFinite, +/-inf raises FloatResolutionLimit (CLI exit 5)."""

    ENTRY_POINTS = {
        "compute_delta": lambda f, p: compute_delta(f, REALS, p, 1.0),
        "delta_field": lambda f, p: _raised(delta_field(f, REALS, [p], 1.0)[0]),
        "is_delta_epsilon_number": lambda f, p: is_delta_epsilon_number(f, REALS, p, 1.0, 1.0),
        "grid_delta_bounds": lambda f, p: grid_delta_bounds(
            f, REALS, p, 1.0, GridSpec.around(p, 1e-3 * abs(p), 9)),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("source, p, error", [
        ("square", 1e200, FloatResolutionLimit),     # f(p) = +inf
        ("-x^2", 1e200, FloatResolutionLimit),       # f(p) = -inf
        ("ln(x)", -1.0, NonFinite),                  # f(p) = NaN
    ])
    def test_same_exception_everywhere(self, entry, source, p, error):
        f = dm.catalog_lookup(source).function if source == "square" else ExpressionFn.parse(source)
        with pytest.raises(error):
            self.ENTRY_POINTS[entry](f, p)


class TestNaturalDomain:
    """compute_delta(f, None, ...) runs on f.domain_hint(), the domain the
    CLI picks without --domain, for every kind of f."""

    @pytest.mark.parametrize("source, dom, p, eps", [
        ("x^2", REALS, 3.0, 1.0),
        ("exp(r)", DomainSpec.ball((0.0, 0.0), math.inf), Point.of(0.6, -0.8), 0.5),
        ("x1*x2", DomainSpec.box((-math.inf, -math.inf), (math.inf, math.inf)),
         Point.of(1.0, 1.0), 0.5),
        ("log_norm", dm.catalog_lookup("log_norm").domain, Point.of(1.5, 2.0), 0.3),
    ])
    def test_equals_the_cli_default(self, source, dom, p, eps):
        if source in dm.catalog_names():
            f = dm.catalog_lookup(source).function
        else:
            f = ExpressionFn.parse(source)
        assert _same_result(compute_delta(f, None, p, eps), compute_delta(f, dom, p, eps))

    def test_catalog_domain_travels_with_the_function(self, monkeypatch):
        from deltamax import catalog

        square = dm.catalog_lookup("square")
        monkeypatch.setitem(catalog._REGISTRY, "square", square)  # restored afterwards
        dm.register("square", "x^3", DomainSpec.interval(0.0, 1.0))
        assert dm.catalog_lookup("square").function != square.function
        assert square.function.domain_hint() is square.domain
        assert _same_result(compute_delta(square.function, None, 3.0, 1.0),
                            compute_delta(square.function, REALS, 3.0, 1.0))


# One call per public entry, each of which evaluates f where numpy would
# warn (log of 0, overflow, 0/0, ...) unless the entry's errstate (one per
# public call) silences it: no RuntimeWarning may escape.
_SIN_INV = (ExpressionFn.parse("sin(1/x)"), DomainSpec.interval(0.0, 1.0, open_lo=True))
_SQRT = (ExpressionFn.parse("sqrt(x)"), HALF)
QUIET_CALLS = {
    "compute_delta_sqrt_at_0": lambda: compute_delta(ExpressionFn.parse("sqrt(x)"), None, 0.0, 0.5),
    "compute_delta_ln_tail": lambda: compute_delta(
        ExpressionFn.parse("ln(x)"), DomainSpec.interval(0.0, 1.0, open_lo=True), 0.5, 30.0),
    "compute_delta_inverse": lambda: compute_delta(
        ExpressionFn.parse("1/x"), DomainSpec.interval(0.0, 1.0, open_lo=True), 0.5, 0.5),
    "compute_delta_exp_700": lambda: compute_delta(ExpressionFn.parse("exp(x)"), None, 700.0, 1.0),
    "compute_delta_sin_inv": lambda: compute_delta(*_SIN_INV, 1e-15, 0.5),
    "compute_delta_hole": lambda: compute_delta(ExpressionFn.parse("sqrt(x^2-1)"), None,
                                                1.2609, 0.1),
    "compute_delta_resolution": lambda: compute_delta(ExpressionFn.parse("x^2"), None, 1e8, 1e-9),
    "compute_delta_ray_nd": lambda: compute_delta(
        ExpressionFn.parse("x1*x2"), DomainSpec.box((-2.0, -2.0), (2.0, 2.0)), (1.0, 1.0), 0.5),
    **{f"delta_field_{src}": (lambda src=src: delta_field(
        ExpressionFn.parse(src), None, [math.nan, -1.0, 0.0, 1e-200, 1e200, 0.5, 2.0], 0.5))
       for src in ("x^2", "ln(x)", "-1/x^2")},
    **{f"{name}_{f[0].source}": (lambda call=call, f=f: call(*f, 0.5))
       for f in (_SQRT, _SIN_INV)
       for name, call in (("infimum_delta", dm.infimum_delta),
                          ("witness_search", dm.witness_search),
                          ("uc_verdict", lambda g, dom, eps: dm.uc_verdict(g, dom, [eps])))},
    "eval_fn_ln_at_0": lambda: dm.eval_fn(ExpressionFn.parse("ln(x)"), 0.0),
    "delta_ray_nd": lambda: delta_ray_nd(
        ExpressionFn.parse("ln(x1*x2)"), DomainSpec.box((-2.0, -2.0), (2.0, 2.0)), (1.0, 1.0),
        0.5, directions=8),
    # Both grids hold x = 0, where 1/x is inf.
    "grid_delta_bounds": lambda: grid_delta_bounds(
        ExpressionFn.parse("1/x"), REALS, 0.5, 0.5, GridSpec.around(0.5, 1.0, 5)),
    "is_delta_epsilon_number": lambda: is_delta_epsilon_number(
        ExpressionFn.parse("1/x"), REALS, 0.5, 0.5, 1.0, samples=5),
    "epsilon_bound": lambda: epsilon_bound(ExpressionFn.parse("ln(x)"), HALF),
}


@pytest.mark.parametrize("name", sorted(QUIET_CALLS))
def test_no_floating_point_warning_escapes_a_public_entry(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _outcome(QUIET_CALLS[name])
