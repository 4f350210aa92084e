"""Tokenizer, parser and evaluator tests, including the golden table."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from deltamax.errors import LexError, ParseError, UnboundVariable
from deltamax.expr import (
    Binary,
    Call,
    Const,
    Unary,
    Var,
    derivative,
    enclose_ast_array,
    eval_ast_array,
    free_vars,
    parse,
    parse_source,
    to_source,
    tokenize,
)

# eval_ast_array and enclose_ast_array leave numpy's floating-point
# warnings (log of 0, overflow, ...) to their caller's errstate, which
# every public entry of the package sets; these tests call them bare.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class TestTokenize:
    def test_power_expression(self):
        kinds = [(t.kind, t.lexeme) for t in tokenize("x^2")]
        assert kinds == [("identifier", "x"), ("operator", "^"), ("number", "2")]

    def test_call_with_exponent_literal(self):
        kinds = [(t.kind, t.lexeme) for t in tokenize("ln(r)+1e-3")]
        assert kinds == [
            ("identifier", "ln"), ("lparen", "("), ("identifier", "r"),
            ("rparen", ")"), ("operator", "+"), ("number", "1e-3"),
        ]

    def test_lex_error_position(self):
        with pytest.raises(LexError) as err:
            tokenize("x$2")
        assert err.value.position == 1

    def test_spans_cover_non_whitespace(self):
        src = " 3.5 * sin( x1 ) - 7e2 "
        toks = tokenize(src)
        covered = set()
        for t in toks:
            span = range(*t.span)
            assert not covered & set(span), "overlapping spans"
            covered |= set(span)
        non_ws = {i for i, c in enumerate(src) if not c.isspace()}
        assert covered == non_ws

    def test_number_forms(self):
        for text, val in [("2", 2.0), ("2.5", 2.5), (".5", 0.5), ("2.", 2.0),
                          ("1e3", 1e3), ("1.5E-7", 1.5e-7), ("3e+2", 300.0)]:
            (tok,) = tokenize(text)
            assert tok.kind == "number"
            assert float(tok.lexeme) == val


class TestParse:
    def test_call(self):
        assert parse_source("exp(r)") == Call("exp", (Var("r"),))

    def test_unary_minus_binds_below_power(self):
        assert parse_source("-x^2") == Unary("neg", Binary("^", Var("x"), Const(2.0)))

    def test_power_right_associative(self):
        assert parse_source("x^2^3") == Binary(
            "^", Var("x"), Binary("^", Const(2.0), Const(3.0)))

    def test_signed_exponent(self):
        assert parse_source("x^-2") == Binary("^", Var("x"), Unary("neg", Const(2.0)))

    def test_precedence_chain(self):
        assert parse_source("1+2*3") == Binary(
            "+", Const(1.0), Binary("*", Const(2.0), Const(3.0)))
        assert parse_source("(1+2)*3") == Binary(
            "*", Binary("+", Const(1.0), Const(2.0)), Const(3.0))

    def test_subtraction_left_associative(self):
        assert parse_source("1-2-3") == Binary(
            "-", Binary("-", Const(1.0), Const(2.0)), Const(3.0))

    def test_truncated_call(self):
        with pytest.raises(ParseError):
            parse_source("min(x,")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_source("2x")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_source("y+1")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_source("tanh(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="argument"):
            parse_source("min(x)")
        with pytest.raises(ParseError, match="argument"):
            parse_source("sin(x, x)")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse(tokenize(""))

    def test_leftover_tokens(self):
        with pytest.raises(ParseError):
            parse_source("1 2")

    @pytest.mark.parametrize("src, position, text, expected", [
        ("(x", 2, "2: unexpected end of input (expected ))", (")",)),
        ("(x 2)", 3, "3: unexpected '2' (expected ))", (")",)),
        ("sin + 1", 0, "0: builtin 'sin' requires arguments (expected ()", ("(",)),
        ("*x", 0, "0: unexpected '*'", ()),
    ])
    def test_error_position_text_and_expected(self, src, position, text, expected):
        with pytest.raises(ParseError) as err:
            parse_source(src)
        assert (err.value.position, str(err.value), err.value.expected) == (
            position, text, expected)


# 50 hand-checked (expression, env, expected) triples; the expected side is
# written directly against math.* so it never touches the evaluator code.
_E = math.e
GOLDEN = [
    ("1+2", {}, 3.0),
    ("2*3+4", {}, 10.0),
    ("2+3*4", {}, 14.0),
    ("2-3-4", {}, -5.0),
    ("12/4/3", {}, 1.0),
    ("2^3", {}, 8.0),
    ("2^3^2", {}, 512.0),
    ("(2^3)^2", {}, 64.0),
    ("-2^2", {}, -4.0),
    ("(-2)^2", {}, 4.0),
    ("2^-2", {}, 0.25),
    ("--3", {}, 3.0),
    ("-(2+3)", {}, -5.0),
    ("1/3", {}, 1.0 / 3.0),
    (".5*4", {}, 2.0),
    ("1e-3+1", {}, 1.001),
    ("2.5e2", {}, 250.0),
    ("x^2", {"x": 3.0}, 9.0),
    ("x^2", {"x": -3.0}, 9.0),
    ("x^3", {"x": -2.0}, -8.0),
    ("x*x-x", {"x": 7.0}, 42.0),
    ("ln(r)", {"r": 1.0}, 0.0),
    ("ln(r)", {"r": _E}, 1.0),
    ("ln(x)", {"x": 10.0}, math.log(10.0)),
    ("exp(x)", {"x": 0.0}, 1.0),
    ("exp(x)-x", {"x": 0.0}, 1.0),
    ("exp(x)", {"x": 2.5}, math.exp(2.5)),
    ("exp(ln(x))", {"x": 5.5}, 5.5),
    ("sqrt(x)", {"x": 2.0}, math.sqrt(2.0)),
    ("sqrt(x^2+1)", {"x": 3.0}, math.sqrt(10.0)),
    ("abs(-x)", {"x": 4.5}, 4.5),
    ("abs(x-5)", {"x": 2.0}, 3.0),
    ("sin(x)", {"x": 0.5}, math.sin(0.5)),
    ("cos(x)", {"x": 0.5}, math.cos(0.5)),
    ("sin(x)^2+cos(x)^2", {"x": 0.7}, math.sin(0.7) ** 2 + math.cos(0.7) ** 2),
    ("sin(cos(x))", {"x": 1.2}, math.sin(math.cos(1.2))),
    ("min(x, 2)", {"x": 3.0}, 2.0),
    ("min(-x, x)", {"x": 1.5}, -1.5),
    ("max(x, x^2)", {"x": 0.5}, 0.5),
    ("max(2, 3)", {}, 3.0),
    ("pow(x, 3)", {"x": 2.0}, 8.0),
    ("pow(2, 0.5)", {}, math.pow(2.0, 0.5)),
    ("x1+2*x2", {"x1": 1.0, "x2": 2.0}, 5.0),
    ("x1^2+x2^2", {"x1": 3.0, "x2": 4.0}, 25.0),
    ("sqrt(x1^2+x2^2)", {"x1": 3.0, "x2": 4.0}, 5.0),
    ("x3*x8", {"x3": 2.0, "x8": 3.5}, 7.0),
    ("exp(r)+ln(r)", {"r": 2.0}, math.exp(2.0) + math.log(2.0)),
    ("1/(1+x^2)", {"x": 2.0}, 0.2),
    ("(x-1)*(x+1)", {"x": 4.0}, 15.0),
    ("2*3.141592653589793*x", {"x": 1.0}, 2.0 * math.pi),
]


def test_golden_table_has_50_cases():
    assert len(GOLDEN) == 50


@pytest.mark.parametrize("src,env,expected", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_table(src, env, expected):
    got = float(eval_ast_array(parse_source(src), env))
    if expected == 0.0:
        assert abs(got) <= 1e-15
    else:
        assert abs(got - expected) <= 1e-15 * abs(expected)


class TestEvalErrors:
    """The evaluator is lenient: an invalid point yields NaN or inf (the
    strict read of f, model.value_at, raises on them); only an unbound
    variable raises."""

    def test_sqrt_negative(self):
        assert math.isnan(eval_ast_array(parse_source("sqrt(x)"), {"x": -1.0}))

    def test_ln_negative(self):
        assert math.isnan(eval_ast_array(parse_source("ln(x)"), {"x": -1.0}))

    def test_division_by_zero(self):
        assert eval_ast_array(parse_source("1/x"), {"x": 0.0}) == math.inf

    def test_overflow(self):
        assert eval_ast_array(parse_source("exp(x)"), {"x": 1e6}) == math.inf

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_ast_array(parse_source("x+1"), {})

    def test_unbound_variable_in_an_enclosure(self):
        # The interval extension raises on an unbound variable too.
        box = (np.array([0.0]), np.array([1.0]))
        with pytest.raises(UnboundVariable, match="'x2'"):
            enclose_ast_array(parse_source("x1+x2"), {"x1": box})


class TestFreeVars:
    def test_single(self):
        assert free_vars(parse_source("x^2")) == {"x"}

    def test_radial(self):
        assert free_vars(parse_source("exp(r)")) == {"r"}

    def test_constant(self):
        assert free_vars(parse_source("3.14")) == set()

    def test_many(self):
        assert free_vars(parse_source("x1*x2+min(x3, x1)")) == {"x1", "x2", "x3"}


class TestPrinter:
    @pytest.mark.parametrize("src", [
        "x^2", "-x^2", "(-x)^2", "x^2^3", "(x^2)^3", "1-2-3", "1-(2-3)",
        "x*(x+1)", "min(x, max(x1, x2))", "x^-2",
        "-(x+1)", "--x", "sin(cos(x))", "1/(x*x)",
    ])
    def test_round_trip(self, src):
        ast = parse_source(src)
        assert parse_source(to_source(ast)) == ast


# ---------------------------------------------------------------------------
# Interval enclosure
# ---------------------------------------------------------------------------

_X = Var("x")
_leaves = st.one_of(
    st.just(_X),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, -1.5, math.pi]).map(Const),
)


def _extend(children):
    unary = st.one_of(
        children.map(lambda c: Unary("neg", c)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "abs"]), children)
        .map(lambda t: Call(t[0], (t[1],))),
        st.tuples(children, st.sampled_from([2.0, 3.0, 4.0, 5.0, 0.0, 1.0, -1.0, -2.0]))
        .map(lambda t: Binary("^", t[0], Const(t[1]))),
    )
    binary = st.tuples(st.sampled_from(["+", "-", "*", "/", "min", "max"]),
                       children, children).map(
        lambda t: Call(t[0], (t[1], t[2])) if t[0] in ("min", "max")
        else Binary(t[0], t[1], t[2]))
    return st.one_of(unary, binary)


_asts = st.recursive(_leaves, _extend, max_leaves=6)


@st.composite
def _intervals(draw):
    kind = draw(st.sampled_from(["straddle", "extremum", "wide", "ulps", "any"]))
    if kind == "straddle":
        return -draw(st.floats(1e-6, 20.0)), draw(st.floats(1e-6, 20.0))
    if kind == "extremum":  # around a peak or trough of sin/cos
        c = draw(st.integers(-8, 8)) * 0.5 * math.pi
        return c - draw(st.floats(1e-9, 1.0)), c + draw(st.floats(1e-9, 1.0))
    if kind == "wide":
        lo = draw(st.floats(-30.0, 30.0))
        return lo, lo + draw(st.floats(2.0 * math.pi, 40.0))
    lo = draw(st.floats(-1e3, 1e3))
    if kind == "ulps":
        return lo, float(np.nextafter(lo, np.inf) + draw(st.integers(0, 6)) * abs(np.spacing(lo)))
    return lo, lo + draw(st.floats(0.0, 10.0))


def _enclose(ast, lo, hi):
    elo, ehi = enclose_ast_array(ast, {"x": (np.array([lo]), np.array([hi]))})
    return float(np.ravel(elo)[0]), float(np.ravel(ehi)[0])


def _encloses(ast, lo, hi, xs):
    """Every value at xs lies in the enclosure over [lo, hi], unless that
    is (-inf, inf)."""
    elo, ehi = _enclose(ast, lo, hi)
    vals = eval_ast_array(ast, {"x": xs}) + np.zeros_like(xs)
    if (elo, ehi) == (-math.inf, math.inf):
        return True
    return bool(np.all(np.isfinite(vals) & (elo <= vals) & (vals <= ehi)))


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_asts, _intervals())
def test_enclosure_holds_every_sampled_value(ast, interval):
    lo, hi = interval
    xs = np.clip(lo + (hi - lo) * np.linspace(0.0, 1.0, 257), lo, hi)
    assert _encloses(ast, lo, hi, xs), to_source(ast)


@st.composite
def _periodic_intervals(draw):
    """(lo, hi, j) with |lo|, |hi| up to 1e15.  Mostly each end lies a few
    ulps or up to a radian off the float nearest the extremum pi/2*j of
    sin or cos, on either side; else j is None."""
    if draw(st.booleans()):
        lo = draw(st.floats(-1e15, 1e15))
        return lo, lo + draw(st.floats(0.0, 10.0)), None
    j = draw(st.one_of(st.integers(-40, 40), st.integers(-6 * 10 ** 14, 6 * 10 ** 14)))
    c = float(_half_pi_times(j))
    ends = []
    for sign in (-1.0, 1.0):
        if draw(st.booleans()):
            ends.append(c + draw(st.integers(-3, 3)) * float(np.spacing(c)))
        else:
            ends.append(c + sign * draw(st.floats(0.0, 1.0)))
    return min(ends), max(ends), j


def _half_pi_times(j: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal("1.57079632679489661923132169163975144209858469968755291") * j


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.sampled_from(["sin", "cos"]), _periodic_intervals())
# The float below a maximum of sin and the next: without a pad the
# reduced ends missed the maximum's k.
@example("sin", (150740239059844.5, 150740239059844.53, 95964216676913))
def test_periodic_enclosure_holds_far_from_zero(fn, interval):
    # The reduction (x - peak)/fl(2*pi) errs by about 1e-16 |x|, which its
    # pad must cover up to |x| = 1e15, where floats lie 0.125 apart: the
    # enclosure holds every float sample, and +-1 where the exact
    # extremum pi/2*j lies in [lo, hi].
    lo, hi, j = interval
    xs = np.clip(lo + (hi - lo) * np.linspace(0.0, 1.0, 257), lo, hi)
    if j is not None:
        c = float(_half_pi_times(j))
        xs = np.concatenate((xs, c + np.arange(-4, 5) * np.spacing(c)))
    ast = parse_source(f"{fn}(x)")
    assert _encloses(ast, lo, hi, xs[(lo <= xs) & (xs <= hi)]), (lo, hi)
    if j is not None and Decimal(lo) <= _half_pi_times(j) <= Decimal(hi):
        elo, ehi = _enclose(ast, lo, hi)
        assert elo <= (0, 1, 0, -1)[(j + (fn == "cos")) % 4] <= ehi, (lo, hi, j)


@pytest.mark.parametrize("x", [4e15, -1e16, 1e300])
def test_periodic_enclosure_past_the_pad_limit_is_the_whole_range(x):
    # Past |x| = 3.5e15 the reduction's pad exceeds 2*pi.
    for fn in ("sin", "cos"):
        assert _enclose(parse_source(f"{fn}(x)"), x, x) == (-1.0, 1.0)


@pytest.mark.parametrize("src,lo,hi", [
    ("x^2", -3.0, 2.0), ("x^3", -3.0, 2.0), ("x^4-x", -1.0, 1.0), ("x^-1", 0.5, 2.0),
    ("sin(x)", 1.0, 2.0), ("sin(x)", -100.0, 100.0), ("cos(x)", -0.1, 0.1),
    ("exp(x)", -3.0, 3.0), ("ln(x)", 1e-3, 5.0), ("sqrt(x)", 0.0, 4.0), ("abs(x)", -2.0, 1.0),
    ("min(x, 1)-max(x, 0)", -2.0, 3.0), ("sin(1/x)", 0.01, 1.0), ("x*x-x/3", -4.0, 4.0),
    ("(x+1)/(x-5)", -1.0, 4.0),
])
def test_enclosure_of_each_node(src, lo, hi):
    ast = parse_source(src)
    assert all(map(math.isfinite, _enclose(ast, lo, hi)))
    assert _encloses(ast, lo, hi, np.linspace(lo, hi, 10001))


def test_enclosure_is_tight_on_a_monotone_window():
    elo, ehi = _enclose(parse_source("sqrt(x)"), 4.0, 9.0)
    assert 2.0 - 1e-15 < elo <= 2.0 and 3.0 <= ehi < 3.0 + 1e-15


@pytest.mark.parametrize("src,lo,hi", [
    ("pow(x, 2)", 1.0, 2.0), ("x^0.5", 1.0, 2.0), ("x^x", 1.0, 2.0),
    ("ln(x)", 0.0, 1.0), ("ln(x)", -1.0, 1.0), ("sqrt(x)", -1e-9, 1.0),
    ("1/x", -1.0, 1.0), ("1/x", 0.0, 1.0), ("x^-2", -1.0, 1.0),
    ("exp(x)", 700.0, 800.0), ("x^3", 1e200, 1e201), ("min(sqrt(x), 1)", -1.0, 1.0),
    ("min(max(exp(x)-exp(x), 0), 1)", 0.0, 1000.0),  # inf - inf is NaN at 1000
])
def test_enclosure_gives_up_where_no_bound_holds(src, lo, hi):
    assert _enclose(parse_source(src), lo, hi) == (-math.inf, math.inf)


# ---------------------------------------------------------------------------
# Symbolic derivative
# ---------------------------------------------------------------------------

def _extend_smooth(children):
    """_extend without abs, min and max, whose derivative is None."""
    unary = st.one_of(
        children.map(lambda c: Unary("neg", c)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]), children)
        .map(lambda t: Call(t[0], (t[1],))),
        st.tuples(children, st.sampled_from([2.0, 3.0, 4.0, 0.0, 1.0, -1.0, -2.0, 0.5]))
        .map(lambda t: Binary("^", t[0], Const(t[1]))),
    )
    binary = st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children).map(
        lambda t: Binary(t[0], t[1], t[2]))
    return st.one_of(unary, binary)


_smooth_asts = st.recursive(_leaves, _extend_smooth, max_leaves=6)


def _value(ast, x):
    return float(np.ravel(eval_ast_array(ast, {"x": np.array([x])}))[0])


def _central(ast, x, h):
    return (_value(ast, x + h) - _value(ast, x - h)) / (2.0 * h)


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_smooth_asts, st.floats(-3.0, 3.0))
@example(Binary("^", _X, Const(-2.0)), 2.4918250443237124e-63)  # a pole inside the step
def test_derivative_agrees_with_central_differences(ast, x):
    d_ast = derivative(ast, "x")
    assert d_ast is not None
    d = float(np.ravel(eval_ast_array(d_ast, {"x": np.array([x])}))[0])
    h = 1e-5 * max(1.0, abs(x))
    coarse, fine = _central(ast, x, h), _central(ast, x, 0.5 * h)
    # Only where f is smooth enough there for the differences to settle,
    # and moves little over the step (no pole within it).
    assume(math.isfinite(d) and math.isfinite(coarse) and math.isfinite(fine))
    assume(abs(coarse - fine) <= 1e-6 * (1.0 + abs(fine)))
    fx = _value(ast, x)
    assume(all(abs(_value(ast, x + t) - fx) <= 1e-2 * (1.0 + abs(fx)) for t in (-h, h)))
    assert abs(d - fine) <= 1e-4 * (1.0 + abs(fine)), (to_source(ast), to_source(d_ast), x)


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_smooth_asts, _intervals())
def test_derivative_enclosure_holds_every_sampled_slope(ast, interval):
    lo, hi = interval
    xs = np.clip(lo + (hi - lo) * np.linspace(0.0, 1.0, 257), lo, hi)
    d_ast = derivative(ast, "x")
    assert _encloses(d_ast, lo, hi, xs), (to_source(ast), to_source(d_ast))


@pytest.mark.parametrize("src,want", [
    ("7", "0.0"), ("x", "1.0"), ("x^2", "2.0*x"), ("x^3", "3.0*x^2.0"), ("-x", "-1.0"),
    ("x*x", "x+x"), ("1/x", "-1.0/x^2.0"), ("x/2", "1.0/2.0"), ("sin(x)", "cos(x)"),
    ("cos(2*x)", "-sin(2.0*x)*2.0"), ("exp(x)", "exp(x)"), ("ln(x)", "1.0/x"),
    ("sqrt(x)", "0.5/sqrt(x)"), ("exp(3)", "0.0"),
])
def test_derivative_rules(src, want):
    assert to_source(derivative(parse_source(src), "x")) == want


@pytest.mark.parametrize("src", ["abs(x)", "min(x, 1)", "max(x, 1)", "pow(x, 2)", "x^x",
                                 "2^x", "sin(abs(x))"])
def test_derivative_gives_up_on_corners_and_variable_powers(src):
    assert derivative(parse_source(src), "x") is None


def test_derivative_of_another_variable():
    assert to_source(derivative(parse_source("exp(r)*x1"), "r")) == "exp(r)*x1"
    assert to_source(derivative(parse_source("exp(r)*x1"), "x1")) == "exp(r)"
