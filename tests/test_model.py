"""Types, metrics, domains and the function catalog."""

from __future__ import annotations

import math

import numpy as np
import pytest

import deltamax as dm
from deltamax.domaintext import format_domain, parse_domain
from deltamax.errors import (
    DimensionMismatch,
    DomainParseError,
    DomainViolation,
    FloatResolutionLimit,
    InvalidDomain,
    NonFinite,
    UnknownCatalogEntry,
)
from deltamax.model import (
    DomainSpec,
    ExpressionFn,
    Monotone1DFn,
    NormTag,
    Point,
    RadialFn,
    array_evaluator,
    distance,
    eval_fn,
)


class TestPoint:
    def test_requires_coordinates(self):
        with pytest.raises(InvalidDomain):
            Point(())

    def test_requires_finite(self):
        with pytest.raises(NonFinite):
            Point((1.0, math.inf))

    def test_of(self):
        assert Point.of(1, 2).coords == (1.0, 2.0)

    def test_iterates_its_coordinates(self):
        assert tuple(Point.of(1.0, 2.0)) == (1.0, 2.0)


class TestDistance:
    def test_l2_triangle(self):
        assert distance(NormTag.L2, Point.of(3, 4), Point.of(0, 0)) == 5.0

    def test_linf(self):
        assert distance(NormTag.LINF, Point.of(1, -2), Point.of(0, 0)) == 2.0

    def test_l1(self):
        assert distance(NormTag.L1, Point.of(1, 1), Point.of(0, 0)) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance(NormTag.L2, Point.of(1), Point.of(1, 2))

    @pytest.mark.parametrize("tag", list(NormTag))
    def test_metric_axioms_on_random_triples(self, tag):
        rng = np.random.default_rng(42)
        x, y, z = rng.standard_normal((3, 10_000, 3)) * 10.0
        from deltamax.model import norm_of_rows

        dxy = norm_of_rows(tag, x - y)
        dyz = norm_of_rows(tag, y - z)
        dxz = norm_of_rows(tag, x - z)
        assert np.all(dxy >= 0)
        # identity of indiscernibles on exact copies
        assert np.all(norm_of_rows(tag, x - x) == 0.0)
        # triangle inequality up to 4 ulp of the summed magnitude
        slack = 4 * np.spacing(dxy + dyz)
        assert np.all(dxz <= dxy + dyz + slack)

    @pytest.mark.parametrize("tag", list(NormTag))
    def test_row_norms_ignore_the_memory_layout(self, tag):
        # The ray samples reach the membership test as column-major rows;
        # their norms must be the row-major ones bit for bit, also in
        # dimensions where numpy sums contiguous rows blockwise.
        from deltamax.model import norm_of_rows

        rng = np.random.default_rng(7)
        for dim in (2, 3, 8, 13):
            rows = rng.standard_normal((2000, dim)) * 10.0
            assert np.array_equal(norm_of_rows(tag, np.asfortranarray(rows)),
                                  norm_of_rows(tag, rows))


class TestDomainSpec:
    def test_interval_ordering(self):
        with pytest.raises(InvalidDomain):
            DomainSpec.interval(2.0, 1.0)

    def test_dim1_annulus_rejected(self):
        with pytest.raises(InvalidDomain):
            DomainSpec(1, center=(0.0,), r_in=1.0, r_out=2.0)

    def test_annulus_radius_ordering(self):
        with pytest.raises(InvalidDomain):
            DomainSpec.annulus((0.0, 0.0), 2.0, 1.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: DomainSpec(0), "dimension must be >= 1"),
        (lambda: DomainSpec(2), "box-like domain needs lo/hi bounds"),
        (lambda: DomainSpec(2, lo=(0.0,), hi=(1.0,)), "bounds do not match dimension"),
        (lambda: DomainSpec(2, center=(0.0,)),
         "radial domain needs a center of matching dimension"),
    ], ids=["dimension_0", "no_bounds", "short_bounds", "short_center"])
    def test_malformed_fields(self, make, message):
        with pytest.raises(InvalidDomain, match=f"^{message}$"):
            make()

    def test_open_interval_membership(self):
        dom = DomainSpec.interval(0.0, 1.0, open_lo=True)
        assert not dom.contains(0.0)
        assert dom.contains(1.0)
        assert dom.contains(0.5)

    def test_half_line(self):
        dom = DomainSpec.half_line(2.0)
        assert dom.contains(2.0) and dom.contains(1e9)
        assert not dom.contains(1.999)
        assert not dom.is_bounded

    def test_punctured_plane(self):
        dom = DomainSpec.annulus((0.0, 0.0), 0.0, math.inf, open_inner=True)
        assert not dom.contains(Point.of(0, 0))
        assert dom.contains(Point.of(1e-9, 0))

    def test_ball_linf(self):
        dom = DomainSpec.ball((0.0, 0.0), 1.0, open_boundary=False, norm=NormTag.LINF)
        assert dom.contains(Point.of(1, 1))
        assert not dom.contains(Point.of(1.0001, 0))

    def test_box_membership_rows(self):
        dom = DomainSpec.box((0.0, 0.0), (1.0, 2.0))
        rows = np.array([[0.5, 1.0], [1.5, 1.0], [1.0, 2.0]])
        assert list(dom.contains_rows(rows)) == [True, False, True]

    def test_wrong_dimension_point(self):
        dom = DomainSpec.interval(0.0, 1.0)
        assert not dom.contains(Point.of(0.5, 0.5))

    def test_flat_rows_on_a_line(self):
        # A 1-d domain reads an (n,) array as n one-coordinate rows.
        dom = DomainSpec.interval(0.0, 1.0, open_hi=True)
        flat = np.array([-0.5, 0.0, 0.5, 1.0])
        assert dom.contains_rows(flat).tolist() == [False, True, True, False]
        assert dom.contains_rows(flat).tolist() == dom.contains_rows(flat[:, None]).tolist()


class TestDomainText:
    @pytest.mark.parametrize("text", [
        "interval:-inf:inf",
        "interval:0.0:5.0:open-left",
        "interval:0.0:inf",
        "box:-1.0,-1.0:1.0,1.0",
        "ball:0.0,0.0:5.0:dim=2",
        "annulus:1.0:inf:dim=2",
        "annulus:0.0:1.0:open-inner:dim=2",
        "interval:0.0:1.0:norm=linf",
        "ball:5",
        "ball:0:5:dim=2",
        "annulus:1,1:0.5:2",
        "interval:0:1:open-right",
        "box:0,0:1,1:open-right",
        "annulus:1:2:open-outer:dim=2",
    ])
    def test_round_trip(self, text):
        dom = parse_domain(text)
        assert format_domain(parse_domain(format_domain(dom))) == format_domain(dom)

    def test_bad_shape(self):
        with pytest.raises(DomainParseError):
            parse_domain("circle:1")

    def test_bad_number(self):
        with pytest.raises(DomainParseError):
            parse_domain("interval:a:b")

    @pytest.mark.parametrize("text", [
        "interval:0:1:norm=l3",     # unknown norm
        "interval:0",               # too few parameters
        "half_line:0:1",            # too many
        "box:0,0:1",                # bounds of unequal length
    ])
    def test_bad_parameters(self, text):
        with pytest.raises(DomainParseError):
            parse_domain(text)

    @pytest.mark.parametrize("text, want", [
        # A ball's centre defaults to the origin, and a one-number centre
        # is repeated over dim=N; an annulus may name its centre.
        ("ball:5", DomainSpec.ball((0.0, 0.0), 5.0)),
        ("ball:0:5:dim=2", DomainSpec.ball((0.0, 0.0), 5.0)),
        ("annulus:1,1:0.5:2", DomainSpec.annulus((1.0, 1.0), 0.5, 2.0)),
        ("interval:0:1:open-right", DomainSpec.interval(0.0, 1.0, open_hi=True)),
        ("box:0,0:1,1:open-right", DomainSpec.box((0.0, 0.0), (1.0, 1.0), open_hi=(True, True))),
        ("annulus:1:2:open-outer:dim=2",
         DomainSpec.annulus((0.0, 0.0), 1.0, 2.0, open_outer=True)),
    ])
    def test_parses_to(self, text, want):
        assert parse_domain(text) == want

    def test_family_decides_the_text(self):
        # A 1-d box is an interval and a closed zero-radius annulus a ball.
        box = DomainSpec.box((0.0,), (1.0,))
        assert box == DomainSpec.interval(0.0, 1.0)
        assert format_domain(box) == "interval:0.0:1.0"
        assert DomainSpec.box((0.0,), (math.inf,)) == DomainSpec.half_line(0.0)
        shell = DomainSpec.annulus((0.0, 0.0), 0.0, 1.0)
        assert shell == DomainSpec.ball((0.0, 0.0), 1.0, open_boundary=False)
        assert format_domain(shell) == "ball:0.0,0.0:1.0:dim=2:closed-outer"
        assert parse_domain(format_domain(shell)) == shell

    @pytest.mark.parametrize("flag", ["dim=0", "dim=-1", "dim=two"])
    def test_bad_dimension_flag(self, flag):
        with pytest.raises(DomainParseError):
            parse_domain(f"ball:1:{flag}")

    def test_interval_to_inf_is_half_line(self):
        dom = parse_domain("interval:0:inf")
        assert dom == DomainSpec.half_line(0.0)


class TestEval:
    def test_catalog_square(self):
        entry = dm.catalog_lookup("square")
        assert eval_fn(entry.function, 3.0) == 9.0

    def test_catalog_log_norm_at_0_e(self):
        entry = dm.catalog_lookup("log_norm")
        got = eval_fn(entry.function, Point.of(0.0, math.e), entry.domain)
        assert abs(got - 1.0) < 1e-15

    def test_expression(self):
        f = ExpressionFn.parse("exp(x)-x")
        assert eval_fn(f, 0.0) == 1.0

    def test_domain_violation(self):
        entry = dm.catalog_lookup("log_norm")
        with pytest.raises(DomainViolation):
            eval_fn(entry.function, Point.of(0.0, 0.0), entry.domain)

    def test_monotone_interval_check(self):
        g = Monotone1DFn(fn=np.exp, interval=(0.0, math.inf), increasing=True)
        with pytest.raises(DomainViolation):
            eval_fn(g, -1.0)

    def test_radial_rotation_invariance(self):
        entry = dm.catalog_lookup("exp_norm")
        rng = np.random.default_rng(7)
        ev = array_evaluator(entry.function)
        for _ in range(20):
            radius = rng.uniform(0.1, 4.0)
            angles = rng.uniform(0, 2 * math.pi, size=8)
            pts = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
            vals = ev(pts)
            assert np.max(np.abs(vals - vals[0])) < 1e-12 * max(1.0, abs(vals[0]))


class TestFunctionSpecs:
    def test_monotone_spot_check_rejects_non_monotone(self):
        with pytest.raises(InvalidDomain):
            Monotone1DFn(fn=np.sin, interval=(0.0, 20.0), increasing=True)

    def test_monotone_decreasing_accepted(self):
        g = Monotone1DFn(fn=lambda x: -x, interval=(-5.0, 5.0), increasing=False)
        assert eval_fn(g, 2.0) == -2.0

    def test_scalar_only_callable_wrapped(self):
        g = Monotone1DFn(fn=lambda x: math.exp(x), interval=(0.0, 4.0),
                         increasing=True, vectorized=False)
        out = array_evaluator(g)(np.array([0.0, 1.0]))
        assert out.shape == (2,)

    def test_variable_mixing_rejected(self):
        with pytest.raises(InvalidDomain):
            ExpressionFn.parse("x+x1")
        with pytest.raises(InvalidDomain):
            ExpressionFn.parse("r+x1")

    def test_radial_from_r_variable(self):
        f = ExpressionFn.parse("exp(r)", dim=3)
        assert isinstance(f, RadialFn)
        assert f.dimension == 3

    def test_dimension_inference(self):
        assert ExpressionFn.parse("x^2").dimension == 1
        assert ExpressionFn.parse("x1+x4").dimension == 4

    def test_monotone_direction_checked(self):
        # An increasing function claimed decreasing is refused as well.
        with pytest.raises(InvalidDomain, match="not strictly decreasing"):
            Monotone1DFn(fn=np.exp, interval=(0.0, 4.0), increasing=False)

    def test_radial_cannot_nest(self):
        inner = RadialFn(ExpressionFn.parse("exp(x)"), 2)
        with pytest.raises(InvalidDomain, match="cannot nest"):
            RadialFn(inner, 2)

    def test_radial_needs_a_dimension(self):
        with pytest.raises(InvalidDomain, match="dimension must be >= 1"):
            RadialFn(ExpressionFn.parse("exp(x)"), 0)


class TestCatalog:
    def test_unknown(self):
        with pytest.raises(UnknownCatalogEntry):
            dm.catalog_lookup("nope")

    def test_paper_closed_forms(self):
        square = dm.catalog_lookup("square").closed_form_delta
        assert abs(square(3.0, 1.0) - (math.sqrt(10) - 3)) < 1e-15
        log_norm = dm.catalog_lookup("log_norm").closed_form_delta
        assert abs(log_norm(2.0, 1.0) - 2.0 * (1 - math.exp(-1))) < 1e-15
        exp_norm = dm.catalog_lookup("exp_norm").closed_form_delta
        assert abs(exp_norm(1.0, 0.1) - (math.log(math.e + 0.1) - 1)) < 1e-15
        ident = dm.catalog_lookup("identity").closed_form_delta
        assert ident(17.0, 0.25) == 0.25

    def test_manifest_round_trip(self):
        text = dm.serialize_manifest()
        for line in text.strip().splitlines():
            name, source, domain = line.split("|")
            assert name in dm.catalog_names()
            parse_domain(domain)

    def test_entries_load_back_as_registered(self):
        from deltamax.catalog import _builtin_entries

        for entry in _builtin_entries():
            assert parse_domain(format_domain(entry.domain)) == entry.domain, entry.name
        # Open on one lower face only: the manifest's open-left would open both.
        mixed = DomainSpec.box((0.0, 0.0), (1.0, 1.0), open_lo=(True, False))
        assert not parse_domain(format_domain(mixed)).contains(Point.of(0.5, 0.0))
        with pytest.raises(DomainParseError):
            dm.register("tilt", "x1+x2", mixed)
        assert "tilt" not in dm.catalog_names()

    def test_register_and_load(self, monkeypatch):
        from deltamax import catalog

        # Register into a copy: the process-wide registry stays as it was.
        monkeypatch.setattr(catalog, "_REGISTRY", dict(catalog._REGISTRY))
        dm.register("cubic_test", "x^3", DomainSpec.interval(-math.inf, math.inf))
        entry = dm.catalog_lookup("cubic_test")
        assert eval_fn(entry.function, 2.0) == 8.0
        loaded = dm.load_manifest("loaded_test|x^2+1|interval:0:1\n")
        assert loaded[0].name == "loaded_test"
        assert eval_fn(dm.catalog_lookup("loaded_test").function, 1.0) == 2.0

    def test_manifest_skips_blank_and_comment_lines(self, monkeypatch):
        from deltamax import catalog

        monkeypatch.setattr(catalog, "_REGISTRY", dict(catalog._REGISTRY))
        text = "# a comment\n\n   \nskip_a|x+1|interval:0:1\n  # indented\nskip_b|x|interval:0:2\n"
        assert [e.name for e in dm.load_manifest(text)] == ["skip_a", "skip_b"]

    def test_manifest_names_the_bad_line(self, monkeypatch):
        from deltamax import catalog

        monkeypatch.setattr(catalog, "_REGISTRY", dict(catalog._REGISTRY))
        with pytest.raises(DomainParseError, match="manifest line 3"):
            dm.load_manifest("# header\ntwo_ok|x|interval:0:1\ntwo_fields|x\n")

    @pytest.mark.parametrize("name, source", [("a|b", "x"), ("ab", "x|x")])
    def test_register_refuses_a_pipe(self, monkeypatch, name, source):
        from deltamax import catalog

        # The manifest separates fields with '|': such an entry is refused
        # when it is registered, so every later manifest still serializes.
        monkeypatch.setattr(catalog, "_REGISTRY", dict(catalog._REGISTRY))
        with pytest.raises(dm.InvalidArgument, match="cannot contain"):
            dm.register(name, source, DomainSpec.interval(0.0, 1.0))
        assert name not in dm.catalog_names()
        assert dm.serialize_manifest().count("\n") == len(dm.catalog_names())

    @pytest.mark.parametrize("name, source", [
        ("#c", "x"), (" sp ", "x"), ("sp ", "x"), ("", "x"),
        ("a\nb", "x"), ("ab", "x\n+1"), ("ab", "x\r"), ("sp", " x + 1 "),
    ])
    def test_register_refuses_what_does_not_load_back(self, monkeypatch, name, source):
        from deltamax import catalog

        # A comment name, surrounding blanks (in a name or an expression) or
        # a line break would make the manifest line load back as another
        # entry, or as none.
        monkeypatch.setattr(catalog, "_REGISTRY", dict(catalog._REGISTRY))
        with pytest.raises(dm.InvalidArgument):
            dm.register(name, source, DomainSpec.interval(0.0, 1.0))
        assert name not in dm.catalog_names()

    def test_inner_blank_loads_back(self, monkeypatch):
        from deltamax import catalog

        monkeypatch.setattr(catalog, "_REGISTRY", dict(catalog._REGISTRY))
        entry = dm.register("a b", "x + 1", DomainSpec.interval(0.0, 1.0))
        (loaded,) = dm.load_manifest(entry.manifest_line())
        assert (loaded.name, loaded.source) == ("a b", "x + 1")

    def test_resolve_function_prefers_catalog(self):
        from deltamax.catalog import resolve_function

        entry = dm.catalog_lookup("square")
        fn = resolve_function("square")
        assert fn is entry.function and fn.domain_hint() is entry.domain
        assert isinstance(resolve_function("x^2+x"), ExpressionFn)


class TestEvaluatorRows:
    """array_evaluator takes (n, d) rows for every f and agrees bit for bit
    with the one strict point read behind eval_fn; a 1-d f also takes the
    line engine's (n,) array."""

    LINE = np.array([-7.5, -1.0, -0.3, 0.0, 0.25, 1.0, 2.5, 9.75])
    PLANE = np.array([[0.5, 0.0], [-1.25, 2.0], [3.0, -0.75], [0.1, 0.2], [-4.0, -4.0]])

    def _cases(self):
        line, plane = self.LINE[:, None], self.PLANE
        for name in dm.catalog_names():
            f = dm.catalog_lookup(name).function
            yield name, f, line if f.dimension == 1 else plane
        yield "monotone", Monotone1DFn(np.exp, (-8.0, 10.0), True), line
        yield "r profile", ExpressionFn.parse("ln(1+r)+sin(r)").inner, np.abs(line)
        yield "x1*x2", ExpressionFn.parse("x1*x2"), plane

    def test_rows_match_eval_fn(self):
        for name, f, rows in self._cases():
            got = array_evaluator(f)(rows)
            want = [eval_fn(f, tuple(row)) for row in rows]
            assert got.tolist() == want, name
            if f.dimension == 1:
                assert array_evaluator(f)(rows[:, 0]).tolist() == want, name

    def test_radial_rows_use_the_norm(self):
        f = dm.catalog_lookup("exp_norm").function
        dom = DomainSpec.ball((0.0, 0.0), math.inf, norm=NormTag.L1)
        got = array_evaluator(f, NormTag.L1)(self.PLANE)
        assert got.tolist() == [eval_fn(f, tuple(row), dom) for row in self.PLANE]
        assert got[1] == math.exp(3.25)

    def test_strict_point_read(self):
        square = dm.catalog_lookup("square").function
        with pytest.raises(FloatResolutionLimit):
            eval_fn(square, 1e200)
        with pytest.raises(FloatResolutionLimit):
            eval_fn(ExpressionFn.parse("ln(x)"), 0.0)
        with pytest.raises(NonFinite):
            eval_fn(ExpressionFn.parse("ln(x)"), -1.0)

    def test_overflowing_norm_is_inside_the_plane(self):
        # (1e200, 1e200) lies in R^2, the natural domain of a radial f,
        # although its norm overflows; f there is beyond float64.
        f = dm.catalog_lookup("exp_norm").function
        p = Point.of(1e200, 1e200)
        with np.errstate(over="ignore"):
            assert f.domain_hint().contains(p) and dm.catalog_lookup("exp_norm").domain.contains(p)
            with pytest.raises(FloatResolutionLimit):
                eval_fn(f, p)
            with pytest.raises(FloatResolutionLimit):
                dm.compute_delta(f, None, p, 1.0)

    @pytest.mark.parametrize("source, dim, width, ok", [
        ("x1*x3", 2, 2, False),
        ("x1*x3", 2, 3, True),
        ("x1*x2", 2, 3, True),      # fewer variables than the rows: extra columns unread
        ("x1*x2", 2, 1, False),
        ("exp(r)", 3, 2, False),
        ("exp(r)", 3, 3, True),
        ("exp(r)", 3, 4, False),
        ("exp(r)", 1, 1, True),
        ("x^2", 1, 2, True),
        ("monotone", 1, 1, True),
        ("monotone", 1, 2, False),
    ])
    def test_row_width_checked(self, source, dim, width, ok):
        f = (Monotone1DFn(np.exp, (-8.0, 10.0), True) if source == "monotone"
             else ExpressionFn.parse(source, dim=dim))
        ev = array_evaluator(f)
        rows = np.full((3, width), 0.5)
        if ok:
            assert ev(rows).shape == (3,)
        else:
            with pytest.raises(DimensionMismatch):
                ev(rows)

    def test_results_are_fresh_arrays_of_one_value_per_row(self):
        # A bare variable evaluates to its input column; the caller still
        # gets an array of its own that it may write to.
        line, plane = self.LINE, self.PLANE
        for source, arr, want in (("x", line, line), ("x", line[:, None], line),
                                  ("x1", plane, plane[:, 0]), ("x2", plane, plane[:, 1])):
            out = array_evaluator(ExpressionFn.parse(source))(arr)
            assert out.flags.writeable and not np.shares_memory(out, arr), source
            assert out.tolist() == want.tolist(), source
        for arr in (self.LINE, self.LINE[:, None], self.PLANE):
            const = array_evaluator(ExpressionFn.parse("3"))(arr)
            assert const.shape == (arr.shape[0],) and const.flags.writeable
            assert (const == 3.0).all()

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            eval_fn(ExpressionFn.parse("x1*x2"), 1.0)
        with pytest.raises(DimensionMismatch):
            eval_fn(dm.catalog_lookup("square").function, Point.of(1.0, 2.0))
