"""Small arithmetic expression language: tokenizer, parser, evaluator.

Grammar (highest binding first):

    power:  ^            right-associative, binds tighter than unary minus
    unary:  -
    mul:    * /
    add:    + -

so ``-x^2`` means ``-(x^2)``.  Builtins: sin, cos, exp, ln, sqrt, abs,
min, max, pow.  Variable names are restricted to ``x``, ``x1``..``x8``
and the reserved ``r`` (the norm of the input point, for radial
functions).  There is no implicit multiplication: ``2x`` is a parse
error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import LexError, ParseError, UnboundVariable

ALLOWED_VARIABLES = frozenset({"x", "r"} | {f"x{i}" for i in range(1, 9)})

# name -> arity
BUILTINS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "ln": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
}


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # number | identifier | operator | lparen | rparen | comma
    lexeme: str
    span: tuple[int, int]  # [start, end) byte offsets into the source


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<identifier>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<operator>[+\-*/^])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    """Longest-match tokenization; raises LexError on the first bad character."""
    tokens: list[Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LexError(pos, f"unrecognized character {source[pos]!r}")
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append(Token(kind, m.group(), (m.start(), m.end())))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ast:
    pass


@dataclass(frozen=True)
class Const(Ast):
    value: float


@dataclass(frozen=True)
class Var(Ast):
    name: str


@dataclass(frozen=True)
class Unary(Ast):
    op: str  # "neg"
    child: Ast


@dataclass(frozen=True)
class Binary(Ast):
    op: str  # + - * / ^
    left: Ast
    right: Ast


@dataclass(frozen=True)
class Call(Ast):
    fn: str
    args: tuple[Ast, ...]


# ---------------------------------------------------------------------------
# Parser (recursive descent; precedence encoded in the rule chain)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], end: int):
        self.tokens = tokens
        self.i = 0
        self.end = end  # position reported for end-of-input errors

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.end, "unexpected end of input")
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.end, "unexpected end of input", (what,))
        if tok.kind != kind:
            raise ParseError(tok.span[0], f"unexpected {tok.lexeme!r}", (what,))
        self.i += 1
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self) -> Ast:
        node = self.term()
        while (tok := self.peek()) is not None and tok.lexeme in ("+", "-"):
            self.advance()
            node = Binary(tok.lexeme, node, self.term())
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Ast:
        node = self.unary()
        while (tok := self.peek()) is not None and tok.lexeme in ("*", "/"):
            self.advance()
            node = Binary(tok.lexeme, node, self.unary())
        return node

    # unary := '-' unary | power
    def unary(self) -> Ast:
        tok = self.peek()
        if tok is not None and tok.lexeme == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    # power := atom ('^' unary)?   -- right-associative, exponent may be signed
    def power(self) -> Ast:
        node = self.atom()
        tok = self.peek()
        if tok is not None and tok.lexeme == "^":
            self.advance()
            return Binary("^", node, self.unary())
        return node

    def atom(self) -> Ast:
        tok = self.advance()
        if tok.kind == "number":
            return Const(float(tok.lexeme))
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen", ")")
            return node
        if tok.kind == "identifier":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "lparen":
                return self.call(tok)
            if tok.lexeme in BUILTINS:
                raise ParseError(tok.span[0], f"builtin {tok.lexeme!r} requires arguments", ("(",))
            if tok.lexeme not in ALLOWED_VARIABLES:
                raise ParseError(
                    tok.span[0],
                    f"unknown variable {tok.lexeme!r}",
                    tuple(sorted(ALLOWED_VARIABLES)),
                )
            return Var(tok.lexeme)
        raise ParseError(tok.span[0], f"unexpected {tok.lexeme!r}")

    def call(self, name: Token) -> Ast:
        if name.lexeme not in BUILTINS:
            raise ParseError(name.span[0], f"unknown function {name.lexeme!r}",
                             tuple(sorted(BUILTINS)))
        self.expect("lparen", "(")
        args = [self.expr()]
        while (tok := self.peek()) is not None and tok.kind == "comma":
            self.advance()
            args.append(self.expr())
        self.expect("rparen", ")")
        arity = BUILTINS[name.lexeme]
        if len(args) != arity:
            raise ParseError(
                name.span[0],
                f"{name.lexeme} takes {arity} argument(s), got {len(args)}",
            )
        return Call(name.lexeme, tuple(args))


def parse(tokens: list[Token]) -> Ast:
    """Parse a token list (from tokenize) into an Ast."""
    end = tokens[-1].span[1] if tokens else 0
    p = _Parser(tokens, end)
    node = p.expr()
    leftover = p.peek()
    if leftover is not None:
        raise ParseError(leftover.span[0], f"unexpected {leftover.lexeme!r} after expression")
    return node


def parse_source(source: str) -> Ast:
    return parse(tokenize(source))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_ARRAY_FNS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
}


def eval_ast_array(a: Ast, env: dict[str, np.ndarray]) -> np.ndarray:
    """Vectorized evaluation in IEEE doubles, of arrays or of scalars.

    It is lenient: invalid points yield NaN/inf in the output and the
    caller decides what they mean (usually: point outside the usable
    domain, or a definite |f| = inf exceedance; model._strict_read is
    the strict f(p) rule).  It does not silence numpy's
    floating-point warnings: every public entry of the package runs under
    one errstate (model._quiet) that does.
    """
    return np.asarray(_eval_array(a, env), dtype=float)


def _eval_array(a: Ast, env: dict[str, np.ndarray]):
    if isinstance(a, Const):
        return a.value
    if isinstance(a, Var):
        try:
            return env[a.name]
        except KeyError:
            raise UnboundVariable(f"variable {a.name!r} is not bound") from None
    if isinstance(a, Unary):
        return -_eval_array(a.child, env)
    if isinstance(a, Binary):
        lhs = _eval_array(a.left, env)
        if a.op == "^" and isinstance(a.right, Const) and a.right.value in (2.0, 3.0):
            sq = np.multiply(lhs, lhs)
            return sq if a.right.value == 2.0 else np.multiply(sq, lhs)
        rhs = _eval_array(a.right, env)
        if a.op == "+":
            return lhs + rhs
        if a.op == "-":
            return lhs - rhs
        if a.op == "*":
            return lhs * rhs
        if a.op == "/":
            return np.divide(lhs, rhs)
        if a.op == "^":
            return np.power(lhs, rhs)
        raise AssertionError(f"bad operator {a.op!r}")
    if isinstance(a, Call):
        return _ARRAY_FNS[a.fn](*[_eval_array(arg, env) for arg in a.args])
    raise AssertionError(f"bad node {a!r}")


# ---------------------------------------------------------------------------
# Interval enclosure
# ---------------------------------------------------------------------------

_LIBM_ULPS = 16.0 * 2.0 ** -52  # relative widening that covers libm error
_TWO_PI = 2.0 * math.pi


def enclose_ast_array(a: Ast, env: dict[str, tuple[np.ndarray, np.ndarray]]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Outward-rounded interval extension of eval_ast_array (Moore).

    env maps each variable to (lo, hi) arrays.  The returned (lo, hi)
    hold, for every choice of variables inside their intervals, both the
    exact value and the value eval_ast_array computes.  Where no finite
    bound is known -- pow, a power that is not an integer constant, ln
    with lo <= 0, sqrt with lo < 0, division by an interval holding 0,
    overflow -- the result is (-inf, +inf).  Internally such a node has
    NaN ends, which every later node carries on.  Like eval_ast_array, it
    leaves numpy's floating-point warnings to the caller's errstate.
    """
    lo, hi = _enclose(a, env)
    ok = np.isfinite(hi - lo)
    return np.where(ok, lo, -np.inf), np.where(ok, hi, np.inf)


def _unbounded_to_nan(lo, hi):
    """An infinite end becomes NaN at both ends.  Later nodes cannot then
    turn it finite (as min, max, exp or 1/x would), while the float
    evaluation there may have met inf - inf or 0 * inf."""
    g = (hi - lo) * 0.0
    return lo + g, hi + g


def _out(lo, hi):
    """One rounding step outward (correctly rounded IEEE operations)."""
    return _unbounded_to_nan(np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf))


def _out_libm(lo, hi):
    """Outward by a few ulps: libm results and chains of roundings."""
    return _unbounded_to_nan(lo - (np.abs(lo) * _LIBM_ULPS + 1e-300),
                             hi + (np.abs(hi) * _LIBM_ULPS + 1e-300))


def _hull(*vals):
    lo = hi = vals[0]
    for v in vals[1:]:
        lo, hi = np.minimum(lo, v), np.maximum(hi, v)
    return lo, hi


def _abs_iv(lo, hi):
    return np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)


def _periodic(fn, peak):
    """Enclosure of sin or cos; `peak` is the float nearest its maximum P
    (pi/2 or 0).  [lo, hi] holds a maximum P + 2*pi*k when an integer k
    lies in [a, b] for a = (lo - d - peak)/fl(2*pi), b = (hi + d - peak)/
    fl(2*pi), a minimum when k + 1/2 does.  Each subtraction and the
    division round by a relative u = 2**-53 at most, fl(2*pi) and peak lie
    within 0.64u and u of 2*pi and P: so 2*pi*a lies within 3.7u(M + d) +
    5.2u of lo - d - P for M = max(1, |lo|, |hi|), and d = 16uM covers
    that: a <= (lo - P)/(2*pi) and b >= (hi - P)/(2*pi).  Monotone
    rounding keeps those k (and k + 1/2 while |a|, |b| < 2**52) past ceil
    and floor.  Past M = 3.5e15, d exceeds 2*pi: the enclosure is [-1, 1]."""
    def enclose(lo, hi):
        vlo, vhi = _out_libm(*_hull(fn(lo), fn(hi)))
        pad = 2.0 ** -49 * np.maximum(1.0, np.maximum(-lo, hi))  # d = 16uM
        a = (lo - pad - peak) / _TWO_PI
        b = (hi + pad - peak) / _TWO_PI
        has_max = np.ceil(a) <= np.floor(b)
        has_min = np.ceil(a - 0.5) <= np.floor(b - 0.5)
        return (np.maximum(np.where(has_min, -1.0, vlo), -1.0),
                np.minimum(np.where(has_max, 1.0, vhi), 1.0))
    return enclose


def _power(lo, hi, n: float):
    if n % 2.0 == 0.0:
        lo, hi = _abs_iv(lo, hi)
    elif n < 0.0:  # a pole at 0 that the end values do not show
        lo = np.where(lo * hi <= 0.0, np.nan, lo)
    return _out_libm(*_hull(np.power(lo, n), np.power(hi, n)))


def _divide(alo, ahi, blo, bhi):
    blo = np.where(blo * bhi <= 0.0, np.nan, blo)  # a pole in the divisor
    div = np.divide
    return _out(*_hull(div(alo, blo), div(alo, bhi), div(ahi, blo), div(ahi, bhi)))


def _unknown(*args):
    return np.nan, np.nan


# ln and sqrt below their domain give NaN or -inf at lo, which is enough.
_ENCLOSE_FNS = {
    "sin": _periodic(np.sin, 0.5 * math.pi),
    "cos": _periodic(np.cos, 0.0),
    "exp": lambda lo, hi: _out_libm(np.exp(lo), np.exp(hi)),
    "ln": lambda lo, hi: _out_libm(np.log(lo), np.log(hi)),
    "sqrt": lambda lo, hi: _out(np.sqrt(lo), np.sqrt(hi)),
    "abs": _abs_iv,
    "min": lambda alo, ahi, blo, bhi: (np.minimum(alo, blo), np.minimum(ahi, bhi)),
    "max": lambda alo, ahi, blo, bhi: (np.maximum(alo, blo), np.maximum(ahi, bhi)),
    "pow": _unknown,
}


def _enclose(a: Ast, env):
    if isinstance(a, Const):
        return a.value, a.value
    if isinstance(a, Var):
        try:
            return env[a.name]
        except KeyError:
            raise UnboundVariable(f"variable {a.name!r} is not bound") from None
    if isinstance(a, Unary):
        lo, hi = _enclose(a.child, env)
        return -hi, -lo
    if isinstance(a, Binary):
        alo, ahi = _enclose(a.left, env)
        if a.op == "^" and isinstance(a.right, Const) and a.right.value == 2.0:
            # evaluated as x*x: one rounding
            alo, ahi = _abs_iv(alo, ahi)
            return _out(alo * alo, ahi * ahi)
        blo, bhi = _enclose(a.right, env)
        if a.op == "+":
            return _out(alo + blo, ahi + bhi)
        if a.op == "-":
            return _out(alo - bhi, ahi - blo)
        if a.op == "*":
            return _out(*_hull(alo * blo, alo * bhi, ahi * blo, ahi * bhi))
        if a.op == "/":
            return _divide(alo, ahi, blo, bhi)
        if a.op == "^":
            if np.ndim(blo) == 0 and blo == bhi and float(blo).is_integer():
                return _power(alo, ahi, float(blo))
            return _unknown()
        raise AssertionError(f"bad operator {a.op!r}")
    if isinstance(a, Call):
        args = [bound for arg in a.args for bound in _enclose(arg, env)]
        return _ENCLOSE_FNS[a.fn](*args)
    raise AssertionError(f"bad node {a!r}")


# ---------------------------------------------------------------------------
# Symbolic derivative
# ---------------------------------------------------------------------------

_ZERO, _ONE = Const(0.0), Const(1.0)


def _add(a: Ast, b: Ast) -> Ast:
    if a == _ZERO:
        return b
    return a if b == _ZERO else Binary("+", a, b)


def _sub(a: Ast, b: Ast) -> Ast:
    if b == _ZERO:
        return a
    return _neg(b) if a == _ZERO else Binary("-", a, b)


def _neg(a: Ast) -> Ast:
    return Const(-a.value) if isinstance(a, Const) else Unary("neg", a)


def _mul(a: Ast, b: Ast) -> Ast:
    if _ZERO in (a, b):
        return _ZERO
    if a == _ONE:
        return b
    return a if b == _ONE else Binary("*", a, b)


def derivative(a: Ast, var: str) -> Ast | None:
    """d a / d var by forward symbolic differentiation, or None where a
    uses abs, min, max or pow, or a power whose exponent is not a
    constant.  Zero and one factors and terms are folded away; its
    interval extension is enclose_ast_array of the result."""
    if isinstance(a, Const):
        return _ZERO
    if isinstance(a, Var):
        return _ONE if a.name == var else _ZERO
    if isinstance(a, Unary):
        d = derivative(a.child, var)
        return None if d is None else _neg(d)
    if isinstance(a, Binary):
        if a.op == "^":
            if not isinstance(a.right, Const):
                return None
            d, n = derivative(a.left, var), a.right.value
            if d is None:
                return None
            power = _ONE if n == 1.0 else a.left if n == 2.0 else Binary("^", a.left, Const(n - 1.0))
            return _mul(_mul(Const(n), power), d)
        da, db = derivative(a.left, var), derivative(a.right, var)
        if da is None or db is None:
            return None
        if a.op == "+":
            return _add(da, db)
        if a.op == "-":
            return _sub(da, db)
        if a.op == "*":
            return _add(_mul(da, a.right), _mul(a.left, db))
        if a.op == "/":
            if db == _ZERO:
                return _ZERO if da == _ZERO else Binary("/", da, a.right)
            return Binary("/", _sub(_mul(da, a.right), _mul(a.left, db)),
                          Binary("^", a.right, Const(2.0)))
        raise AssertionError(f"bad operator {a.op!r}")
    if isinstance(a, Call):
        if a.fn not in ("sin", "cos", "exp", "ln", "sqrt"):
            return None
        (u,) = a.args
        du = derivative(u, var)
        if du is None or du == _ZERO:
            return du
        outer = {"sin": lambda: Call("cos", (u,)),
                 "cos": lambda: _neg(Call("sin", (u,))),
                 "exp": lambda: a,
                 "ln": lambda: Binary("/", _ONE, u),
                 "sqrt": lambda: Binary("/", Const(0.5), a)}[a.fn]()
        return _mul(outer, du)
    raise AssertionError(f"bad node {a!r}")


def free_vars(a: Ast) -> set[str]:
    """Exact set of variable names appearing in the tree."""
    if isinstance(a, Var):
        return {a.name}
    if isinstance(a, Unary):
        return free_vars(a.child)
    if isinstance(a, Binary):
        return free_vars(a.left) | free_vars(a.right)
    if isinstance(a, Call):
        out: set[str] = set()
        for arg in a.args:
            out |= free_vars(arg)
        return out
    return set()


# ---------------------------------------------------------------------------
# Pretty printer (minimal parentheses; reparses to an identical tree)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_PREC_UNARY = 3
_PREC_ATOM = 5


def to_source(a: Ast) -> str:
    return _print(a)[0]


def _print(a: Ast) -> tuple[str, int]:
    if isinstance(a, Const):
        return repr(a.value), _PREC_ATOM
    if isinstance(a, Var):
        return a.name, _PREC_ATOM
    if isinstance(a, Call):
        return f"{a.fn}({', '.join(_print(arg)[0] for arg in a.args)})", _PREC_ATOM
    if isinstance(a, Unary):
        body, prec = _print(a.child)
        if prec < _PREC_UNARY:
            body = f"({body})"
        return f"-{body}", _PREC_UNARY
    if isinstance(a, Binary):
        prec = _PREC[a.op]
        right_assoc = a.op == "^"
        left, lp = _print(a.left)
        right, rp = _print(a.right)
        if lp < prec or (lp == prec and right_assoc):
            left = f"({left})"
        if rp < prec or (rp == prec and not right_assoc):
            right = f"({right})"
        return f"{left}{a.op}{right}", prec
    raise AssertionError(f"bad node {a!r}")
