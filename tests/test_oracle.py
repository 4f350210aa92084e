"""Brute-force oracle tests and oracle-vs-backend sandwich checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

import deltamax as dm
from deltamax.delta import compute_delta
from deltamax.errors import DimensionMismatch, InvalidArgument, InvalidDomain, WindowTooSmall
from deltamax.model import DomainSpec, ExpressionFn, Point
from deltamax.oracle import GridSpec, brute_force_inf, grid_delta_bounds

REALS = DomainSpec.interval(-math.inf, math.inf)


class TestGridSpec:
    def test_point_count_guard(self):
        with pytest.raises(InvalidDomain):
            GridSpec(h=1e-9, window=DomainSpec.interval(0.0, 1e3))

    def test_positive_step(self):
        # A bad step is a bad argument (exit 2), not a domain error.
        for h in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidArgument):
                GridSpec(h=h, window=DomainSpec.interval(0.0, 1.0))

    def test_window_must_be_bounded(self):
        with pytest.raises(InvalidDomain):
            GridSpec(h=0.1, window=REALS)

    def test_around_takes_the_dimension_of_p(self):
        p = Point.of(1.0, 2.0)
        g = GridSpec.around(p, 0.5, 3)
        assert g.window == GridSpec.around(p, 0.5, 3, dim=2).window
        assert g.window == DomainSpec.box((0.5, 1.5), (1.5, 2.5))
        with pytest.raises(DimensionMismatch):
            GridSpec.around(p, 0.5, 3, dim=1)
        with pytest.raises(DimensionMismatch):
            GridSpec.around(1.0, 0.5, 3, dim=2)

    def test_points_include_clamped_endpoint(self):
        g = GridSpec(h=1e-3, window=DomainSpec.interval(0.0, 5.0))
        pts = g.points()[:, 0]
        assert pts[0] == 0.0 and pts[-1] == 5.0


class TestGridDeltaBounds:
    def test_square_straddles_closed_form(self):
        entry = dm.catalog_lookup("square")
        g = GridSpec(h=1e-5, window=DomainSpec.interval(-10.0, 10.0))
        lo, up = grid_delta_bounds(entry.function, entry.domain, 3.0, 1.0, g)
        v = math.sqrt(10) - 3.0
        assert lo <= v <= up
        assert up - lo <= 2e-5

    def test_identity_straddles_one(self):
        entry = dm.catalog_lookup("identity")
        g = GridSpec(h=1e-4, window=DomainSpec.interval(-3.0, 3.0))
        lo, up = grid_delta_bounds(entry.function, entry.domain, 0.0, 1.0, g)
        assert lo <= 1.0 <= up
        assert up - lo <= 2e-4

    def test_constant_reports_inf_upper(self):
        f = ExpressionFn.parse("7")
        g = GridSpec(h=1e-3, window=DomainSpec.interval(-2.0, 2.0))
        lo, up = grid_delta_bounds(f, REALS, 0.0, 1.0, g)
        assert up == math.inf and lo >= 0.0

    def test_window_too_small(self):
        f = ExpressionFn.parse("7")
        g = GridSpec(h=1e-3, window=DomainSpec.interval(-2.0, 2.0))
        with pytest.raises(WindowTooSmall):
            grid_delta_bounds(f, REALS, 0.0, 1.0, g, require_radius=5.0)

    def test_2d_radial(self):
        entry = dm.catalog_lookup("log_norm")
        p = Point.of(2.0, 0.0)
        g = GridSpec(h=2e-3, window=DomainSpec.box((0.5, -1.5), (3.5, 1.5)))
        lo, up = grid_delta_bounds(entry.function, entry.domain, p, 1.0, g)
        v = 2.0 * (1 - math.exp(-1))
        assert lo <= v <= up + g.h * math.sqrt(2)


class TestBruteForceInf:
    def test_square_window_edge(self):
        # infimum over the window [0,5] with the domain still all of R:
        # attained at p=5 with value sqrt(26)-5, up to grid slack
        entry = dm.catalog_lookup("square")
        g = GridSpec(h=2e-3, window=DomainSpec.interval(0.0, 5.0))
        value, argmin = brute_force_inf(entry.function, entry.domain, 1.0, g)
        expected = math.sqrt(26) - 5.0
        assert expected - 1e-12 <= value <= expected + 4 * g.h
        assert argmin.coords[0] >= 5.0 - 0.15

    def test_identity_everywhere_one(self):
        entry = dm.catalog_lookup("identity")
        g = GridSpec(h=1e-2, window=DomainSpec.interval(-2.0, 2.0))
        value, _ = brute_force_inf(entry.function, entry.domain, 1.0, g)
        assert value == pytest.approx(1.0, abs=1e-2)

    def test_log_norm_annulus_window(self):
        # window ||x|| in [1, 2] over the punctured plane: argmin at the
        # inner edge, value 1 - 1/e
        entry = dm.catalog_lookup("log_norm")
        g = GridSpec(h=0.05, window=DomainSpec.annulus((0.0, 0.0), 1.0, 2.0))
        value, argmin = brute_force_inf(entry.function, entry.domain, 1.0, g)
        expected = 1.0 - math.exp(-1)
        slack = 4 * g.h
        assert expected - slack <= value <= expected + slack
        assert math.hypot(*argmin.coords) <= 1.0 + 3 * g.h

    def test_no_violators_raises(self):
        entry = dm.catalog_lookup("square")
        g = GridSpec(h=1e-2, window=DomainSpec.interval(0.0, 0.1))
        with pytest.raises(WindowTooSmall):
            brute_force_inf(entry.function, DomainSpec.interval(0.0, 0.1), 1e6, g)

    def test_window_that_misses_a_thin_domain_raises(self):
        # An annulus 1e-9 thick: no point of the 5 x 5 grid around (0, 50) lies in it.
        thin = DomainSpec.annulus((0.0, 0.0), 100.0, 100.0 + 1e-9)
        with pytest.raises(WindowTooSmall, match="the oracle window misses the domain entirely"):
            brute_force_inf(ExpressionFn.parse("x1+x2"), thin, 1.0,
                            GridSpec.around((0.0, 50.0), 1.0, 5))


class TestSandwich:
    """Oracle invariant: grid lower <= value <= grid upper + h*sqrt(dim)."""

    @pytest.mark.parametrize("p,eps", [(3.0, 1.0), (-2.0, 0.5), (0.0, 2.0)])
    def test_square(self, p, eps):
        entry = dm.catalog_lookup("square")
        res = compute_delta(entry.function, entry.domain, p, eps)
        g = GridSpec.around(p, 4.0 * res.value, 20001)
        lo, up = grid_delta_bounds(entry.function, entry.domain, p, eps, g)
        assert lo <= res.value <= up + g.h

    def test_radial(self):
        entry = dm.catalog_lookup("exp_norm")
        p = Point.of(1.0, 1.0)
        res = compute_delta(entry.function, entry.domain, p, 0.5)
        g = GridSpec.around(p, 4.0 * res.value, 301, dim=2)
        lo, up = grid_delta_bounds(entry.function, entry.domain, p, 0.5, g)
        assert lo <= res.value <= up + g.h * math.sqrt(2)


class TestMonotoneRefinement:
    def test_halving_h_tightens(self):
        entry = dm.catalog_lookup("square")
        window = DomainSpec.interval(2.0, 4.0)
        uppers, lowers = [], []
        for h in (4e-3, 2e-3, 1e-3):
            lo, up = grid_delta_bounds(entry.function, entry.domain, 3.0, 1.0,
                                       GridSpec(h=h, window=window))
            lowers.append(lo)
            uppers.append(up)
        for coarse, fine in zip(uppers, uppers[1:]):
            assert fine <= coarse + 1e-12
        for coarse, fine in zip(lowers, lowers[1:]):
            assert fine >= coarse - 1e-12
