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

from .errors import LexError, NonFinite, ParseError, UnboundVariable

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


def eval_ast(a: Ast, env: dict[str, float]) -> float:
    """Strict scalar evaluation in IEEE doubles.

    The vectorized evaluator runs on the scalar environment; a NaN or
    inf result (ln/sqrt of a negative, division by zero, overflow)
    raises NonFinite instead of being returned.
    """
    value = float(eval_ast_array(a, env))
    if not math.isfinite(value):
        raise NonFinite(f"expression evaluated to {value!r}")
    return value


def eval_ast_array(a: Ast, env: dict[str, np.ndarray]) -> np.ndarray:
    """Vectorized evaluation used by the search internals.

    Unlike eval_ast this is lenient: invalid points yield NaN/inf in the
    output and the caller decides what they mean (usually: point outside
    the usable domain, or a definite |f| = inf exceedance).
    """
    with np.errstate(all="ignore"):
        out = _eval_array(a, env)
    return np.asarray(out, dtype=float)


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
