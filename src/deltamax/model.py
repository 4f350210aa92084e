"""Functions, domains and metrics.

Scalar-valued continuous functions on subsets of R^n.  Domains are
restricted to shapes whose metric balls (intersected with the domain)
stay path-connected: intervals, boxes, balls, annuli (dim >= 2) and
half-lines.  The codomain is R with |.|.

This module owns evaluation and inputs: array_evaluator maps (n, d) rows
to values for every FunctionSpec, value_at reads f at one point under
the strict f(p) rule (_strict_read), point_in gates a point into a domain
(every FunctionSpec has a natural one), and require_positive checks eps.
No evaluator silences numpy's floating-point warnings: each public entry
of the package runs under one np.errstate(all="ignore") (_quiet).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import expr as expr_mod
from .errors import (
    DimensionMismatch,
    DomainViolation,
    FloatResolutionLimit,
    InvalidArgument,
    InvalidDomain,
    NonFinite,
)

INF = math.inf


def _quiet(fn):
    """fn under one np.errstate(all="ignore") per call (a public entry)."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return run


# ---------------------------------------------------------------------------
# Points and norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Point:
    """An immutable point of R^n (n >= 1, all coordinates finite)."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise InvalidDomain("a point needs at least one coordinate")
        coords = tuple(float(c) for c in self.coords)
        if not all(math.isfinite(c) for c in coords):
            raise NonFinite(f"point coordinates must be finite, got {coords}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def of(cls, *coords: float) -> "Point":
        return cls(tuple(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


class NormTag(enum.Enum):
    """p-norm selector; on R all three coincide with |.|."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def _as_point(p) -> Point:
    """p as a Point: a number (Python or numpy, 0-d arrays included) is
    a 1-d point, a sequence or array its coordinates."""
    if isinstance(p, Point):
        return p
    if np.ndim(p) == 0:
        return Point((float(p),))
    return Point(tuple(p))


def norm_of(tag: NormTag, v: np.ndarray) -> float:
    v = np.asarray(v, dtype=float)
    if tag is NormTag.L1:
        return float(np.sum(np.abs(v)))
    if tag is NormTag.L2:
        return float(np.sqrt(np.sum(v * v)))
    return float(np.max(np.abs(v)))


def distance(n: NormTag, x, y) -> float:
    """p-norm of x - y; raises DimensionMismatch on unequal dimensions."""
    xp, yp = _as_point(x), _as_point(y)
    if xp.dim != yp.dim:
        raise DimensionMismatch(f"dimensions differ: {xp.dim} vs {yp.dim}")
    return norm_of(n, xp.as_array() - yp.as_array())


def lattice(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Row-major grid of every combination of one value per axis, as
    (n, d) rows."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def norm_of_rows(tag: NormTag, arr: np.ndarray) -> np.ndarray:
    """Norms of the rows of an (n, d) array (or |.| of a 1-d array)."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        return np.abs(arr)
    if arr.shape[1] >= 8:
        # numpy sums rows of 8 or more entries blockwise only when they
        # are contiguous; row-major input keeps the sums layout-independent.
        arr = np.ascontiguousarray(arr)
    if tag is NormTag.L1:
        return np.sum(np.abs(arr), axis=-1)
    if tag is NormTag.L2:
        return np.sqrt(np.sum(arr * arr, axis=-1))
    return np.max(np.abs(arr), axis=-1)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """A connected subset of R^n with per-boundary openness flags.

    Two families, told apart by `center`: a box (center None; a 1-d box
    is an interval) with per-axis bounds, or a radial shell r_in <= |x -
    center| <= r_out with the radius measured in `norm`.  A shell whose
    inner radius is a closed 0 is a ball.  Unbounded extents use explicit
    inf sentinels.  A dim-1 shell other than a ball is rejected: its
    metric balls split into two components, which breaks the standing
    path-connectedness hypothesis.
    """

    dimension: int
    norm: NormTag = NormTag.L2
    # box bounds (per axis); None for radial shells
    lo: tuple[float, ...] | None = None
    hi: tuple[float, ...] | None = None
    open_lo: tuple[bool, ...] | None = None
    open_hi: tuple[bool, ...] | None = None
    # radial shell parameters; center None for boxes
    center: tuple[float, ...] | None = None
    r_in: float = 0.0
    r_out: float = INF
    open_inner: bool = False
    open_outer: bool = True  # balls/annuli default to open outer boundary

    # -- constructors --------------------------------------------------

    @classmethod
    def interval(cls, a: float, b: float, *, open_lo: bool = False,
                 open_hi: bool = False, norm: NormTag = NormTag.L2) -> "DomainSpec":
        return cls(1, norm, lo=(float(a),), hi=(float(b),),
                   open_lo=(open_lo,), open_hi=(open_hi or math.isinf(b),))

    @classmethod
    def half_line(cls, a: float, *, open_lo: bool = False,
                  norm: NormTag = NormTag.L2) -> "DomainSpec":
        return cls.interval(a, INF, open_lo=open_lo, norm=norm)

    @classmethod
    def box(cls, lo: Iterable[float], hi: Iterable[float], *,
            open_lo: Iterable[bool] | None = None,
            open_hi: Iterable[bool] | None = None,
            norm: NormTag = NormTag.L2) -> "DomainSpec":
        lo_t = tuple(float(v) for v in lo)
        hi_t = tuple(float(v) for v in hi)
        d = len(lo_t)
        ol = tuple(open_lo) if open_lo is not None else (False,) * d
        oh = tuple(open_hi) if open_hi is not None else (False,) * d
        if d == len(hi_t) == 1:  # an interval, open at +inf as every interval is
            return cls.interval(lo_t[0], hi_t[0], open_lo=ol[0], open_hi=oh[0], norm=norm)
        return cls(d, norm, lo=lo_t, hi=hi_t, open_lo=ol, open_hi=oh)

    @classmethod
    def ball(cls, center: Iterable[float], radius: float, *,
             open_boundary: bool = True, norm: NormTag = NormTag.L2) -> "DomainSpec":
        return cls.annulus(center, 0.0, radius, open_outer=open_boundary, norm=norm)

    @classmethod
    def annulus(cls, center: Iterable[float], r_in: float, r_out: float, *,
                open_inner: bool = False, open_outer: bool = False,
                norm: NormTag = NormTag.L2) -> "DomainSpec":
        c = tuple(float(v) for v in center)
        return cls(len(c), norm, center=c, r_in=float(r_in),
                   r_out=float(r_out), open_inner=open_inner,
                   open_outer=open_outer or math.isinf(r_out))

    # -- validation -----------------------------------------------------

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidDomain("dimension must be >= 1")
        if self.center is None:
            if self.lo is None or self.hi is None:
                raise InvalidDomain("box-like domain needs lo/hi bounds")
            if len(self.lo) != self.dimension or len(self.hi) != self.dimension:
                raise InvalidDomain("bounds do not match dimension")
            for a, b in zip(self.lo, self.hi):
                if not a < b:  # NaN included
                    raise InvalidDomain(f"empty interior: bounds [{a}, {b}]")
        else:
            if len(self.center) != self.dimension:
                raise InvalidDomain("radial domain needs a center of matching dimension")
            if not (0.0 <= self.r_in < self.r_out):
                raise InvalidDomain(f"need 0 <= r_in < r_out, got [{self.r_in}, {self.r_out}]")
            if self.dimension == 1 and not self.is_ball:
                raise InvalidDomain(
                    "dim-1 annulus rejected: its metric balls are not path-connected")

    # -- queries ----------------------------------------------------------

    @property
    def is_bounded(self) -> bool:
        if self.is_radial:
            return math.isfinite(self.r_out)
        return all(math.isfinite(v) for v in self.lo + self.hi)

    @property
    def is_radial(self) -> bool:
        return self.center is not None

    @property
    def is_ball(self) -> bool:
        return self.is_radial and self.r_in == 0.0 and not self.open_inner

    def contains(self, p) -> bool:
        pt = _as_point(p)
        return pt.dim == self.dimension and bool(self.contains_rows(pt.as_array()[None])[0])

    def contains_rows(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n, d) array (or (n,) when d == 1)."""
        arr = np.asarray(arr, dtype=float)
        if self.dimension == 1 and arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if self.center is None:
            ok = np.ones(arr.shape[0], dtype=bool)
            for ax in range(self.dimension):
                col = arr[:, ax]
                lo, hi = self.lo[ax], self.hi[ax]
                ok &= (col > lo) if self.open_lo[ax] else (col >= lo)
                ok &= (col < hi) if self.open_hi[ax] else (col <= hi)
            return ok
        radii = norm_of_rows(self.norm, arr - np.asarray(self.center))
        ok = (radii > self.r_in) if self.open_inner else (radii >= self.r_in)
        if math.isfinite(self.r_out):  # inf bounds nothing, not even an overflowing norm
            ok &= (radii < self.r_out) if self.open_outer else (radii <= self.r_out)
        return ok

    def bounding_box(self, truncate: float = INF) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned lo/hi arrays covering the domain, truncated for
        unbounded extents."""
        if self.center is None:
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
        else:
            c = np.asarray(self.center, dtype=float)
            r = self.r_out
            lo, hi = c - r, c + r
        lo = np.maximum(lo, -truncate)
        hi = np.minimum(hi, truncate)
        return lo, hi

    def describe(self) -> str:
        """Flat `shape:param[:flags]` text (the CLI domain grammar)."""
        from .domaintext import format_domain  # local import: avoid cycle
        return format_domain(self)


# ---------------------------------------------------------------------------
# Input gates
# ---------------------------------------------------------------------------

def point_in(dom: DomainSpec, p) -> Point:
    """p (a Point, a number or coordinates) as a Point of dom: a point of
    another dimension raises DimensionMismatch, one outside dom
    DomainViolation.  Every entry point takes its point through here, or
    through _sized_point and one membership test of all its points."""
    pt = _sized_point(dom, p)
    if not dom.contains(pt):
        raise DomainViolation(f"{pt.coords} is outside the domain {dom.describe()}")
    return pt


def _sized_point(dom: DomainSpec, p) -> Point:
    """p as a Point of dom's dimension (DimensionMismatch otherwise)."""
    pt = _as_point(p)
    if pt.dim != dom.dimension:
        raise DimensionMismatch(f"a {pt.dim}-d point on a {dom.dimension}-d domain")
    return pt


def require_positive(name: str, value: float) -> None:
    """Raise InvalidArgument unless 0 < value < +inf (NaN included); the
    one check of eps, beta and a window radius."""
    if not 0 < value < math.inf:
        raise InvalidArgument(f"{name} must be a positive finite number, got {value!r}")


# ---------------------------------------------------------------------------
# Function specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """Base class; concrete variants below.

    All variants are immutable and evaluation is pure, so specs can be
    shared freely across threads.
    """

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    def domain_hint(self) -> DomainSpec:
        """The natural domain of f, which every spec has: R^k for an
        expression in k variables, an unbounded ball for a RadialFn, a
        Monotone1DFn's interval, a catalog entry's domain.  It is the
        domain of compute_delta(dom=None) and of the CLI without --domain."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExpressionFn(FunctionSpec):
    """Function defined by a parsed expression over x (1-d) or x1..xk."""

    ast: expr_mod.Ast
    source: str

    def __post_init__(self):
        names = expr_mod.free_vars(self.ast)
        if "r" in names and len(names) > 1:
            raise InvalidDomain("the radial variable r cannot be mixed with x-variables")
        if "x" in names and any(n.startswith("x") and n != "x" for n in names):
            raise InvalidDomain("mixing x with x1..x8 is ambiguous; use one style")

    @classmethod
    def parse(cls, source: str, dim: int = 2) -> "FunctionSpec":
        """The expression as a FunctionSpec; an expression in r is the
        profile of a `dim`-dimensional RadialFn."""
        ast = expr_mod.parse_source(source)
        fn = cls(ast=ast, source=source)
        return RadialFn(inner=fn, dim=dim) if "r" in expr_mod.free_vars(ast) else fn

    @property
    def dimension(self) -> int:
        names = expr_mod.free_vars(self.ast)
        if not names or names == {"x"}:
            return 1
        if "r" in names:
            return 1  # used as a radial profile g(r)
        return max(int(n[1:]) for n in names)

    def domain_hint(self) -> DomainSpec:
        d = self.dimension
        if d == 1:
            return DomainSpec.interval(-INF, INF)
        return DomainSpec.box((-INF,) * d, (INF,) * d)


@dataclass(frozen=True)
class Monotone1DFn(FunctionSpec):
    """Strictly monotone scalar function on an interval.

    Only the forward evaluator is stored; inverses are always computed
    numerically so there is a single trusted code path.  `fn` must accept
    numpy arrays (set vectorized=False to wrap a scalar-only callable).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    interval: tuple[float, float]
    increasing: bool
    label: str = ""
    vectorized: bool = True

    def __post_init__(self):
        self.domain_hint()  # an empty (or NaN) interval raises InvalidDomain
        if not self.vectorized:
            object.__setattr__(self, "fn", np.vectorize(self.fn, otypes=[float]))
            object.__setattr__(self, "vectorized", True)
        self._spot_check()

    def _spot_check(self, points: int = 64):
        a, b = self.interval
        lo = a if math.isfinite(a) else min(b - 8.0, 0.0) if math.isfinite(b) else -4.0
        hi = b if math.isfinite(b) else max(a + 8.0, 0.0) if math.isfinite(a) else 4.0
        xs = np.linspace(lo, hi, points)
        with np.errstate(all="ignore"):
            ys = np.asarray(self.fn(xs), dtype=float)
        ok = np.isfinite(ys)
        diffs = np.diff(ys[ok])
        if self.increasing and np.any(diffs <= 0):
            raise InvalidDomain(f"{self.label or 'function'} is not strictly increasing")
        if not self.increasing and np.any(diffs >= 0):
            raise InvalidDomain(f"{self.label or 'function'} is not strictly decreasing")

    @property
    def dimension(self) -> int:
        return 1

    def domain_hint(self) -> DomainSpec:
        return DomainSpec.interval(*self.interval)


@dataclass(frozen=True)
class RadialFn(FunctionSpec):
    """f(x) = g(||x||) with g a 1-d profile (Monotone1DFn or ExpressionFn in r)."""

    inner: FunctionSpec
    dim: int = 2

    def __post_init__(self):
        if isinstance(self.inner, RadialFn):
            raise InvalidDomain("radial wrapper cannot nest")
        if self.dim < 1:
            raise InvalidDomain("radial dimension must be >= 1")

    @property
    def dimension(self) -> int:
        return self.dim

    def domain_hint(self) -> DomainSpec:
        return DomainSpec.ball((0.0,) * self.dim, INF)


@dataclass(frozen=True)
class CatalogFn(FunctionSpec):
    """A catalog entry's function, carrying the entry's domain as its
    natural one (so re-registering the name later does not change it)."""

    inner: FunctionSpec
    domain: DomainSpec

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def domain_hint(self) -> DomainSpec:
        return self.domain


def unwrap(f: FunctionSpec) -> FunctionSpec:
    """Strip catalog wrappers."""
    while isinstance(f, CatalogFn):
        f = f.inner
    return f


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def array_evaluator(f: FunctionSpec, norm: NormTag = NormTag.L2) -> Callable[[np.ndarray], np.ndarray]:
    """Return a lenient vectorized evaluator of f.

    Input: (n, d) rows for every f, d being f's dimension; a 1-d f also
    takes the line engine's (n,) array, and given (n, 1) rows evaluates
    their column.  A radial f measures each row in `norm`.  Invalid
    points produce NaN (and genuine overflow produces inf), which the
    search layer interprets; it never raises on non-finite values.

    The width of the rows is checked: rows narrower than an expression
    in x1..xk (k columns; wider rows leave the extra columns unread), or
    of another width than a RadialFn's dim (1 for a Monotone1DFn), raise
    DimensionMismatch.  An (n,) array is not checked.
    """
    g = unwrap(f)
    if isinstance(g, ExpressionFn):
        ast, dim = g.ast, g.dimension
        # A bare variable (x, r, x1, ...) evaluates to its input column.
        is_input = isinstance(ast, expr_mod.Var)

        def run(arr: np.ndarray) -> np.ndarray:
            arr = _columns(arr, dim)
            if arr.ndim == 1:
                env = {"x": arr, "r": arr, "x1": arr}
            else:
                env = {f"x{i + 1}": arr[:, i] for i in range(arr.shape[1])}
                env["x"] = arr[:, 0]
            out = expr_mod.eval_ast_array(ast, env)
            if out.shape != arr.shape[:1]:  # a constant expression's scalar
                return np.full(arr.shape[:1], out)
            return out.copy() if is_input else out

        return run
    if isinstance(g, Monotone1DFn):
        fn = g.fn

        def run(arr: np.ndarray) -> np.ndarray:
            arr = _columns(arr, 1, exact=True)
            out = np.array(fn(arr), dtype=float)  # a copy: fn may return arr
            # broadcast_to is slow on the monotone inverse's one-point
            # calls, so only a constant fn (a scalar out) pays for it.
            return out if out.shape == arr.shape else np.broadcast_to(out, arr.shape)

        return run
    if isinstance(g, RadialFn):
        inner_eval = array_evaluator(g.inner)

        def run(arr: np.ndarray) -> np.ndarray:
            return inner_eval(norm_of_rows(norm, _columns(arr, g.dim, exact=True)))

        return run
    raise TypeError(f"cannot build evaluator for {type(g).__name__}")


def _columns(arr, dim: int = 1, exact: bool = False) -> np.ndarray:
    """arr as floats, with (n, 1) rows as their (n,) column.  (n, d) rows
    raise DimensionMismatch when d < dim (d != dim if exact)."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 2 and (arr.shape[1] != dim if exact else arr.shape[1] < dim):
        raise DimensionMismatch(f"a {dim}-d function evaluated at {arr.shape[1]}-d points")
    return arr[:, 0] if arr.ndim == 2 and arr.shape[1] == 1 else arr


def value_at(f: FunctionSpec, x, norm: NormTag = NormTag.L2) -> float:
    """f(x) at one point x (a Point, a number or coordinates), read by
    array_evaluator and checked by _strict_read.  Membership and dimension
    are not checked (eval_fn adds those)."""
    row = np.asarray(x.coords if isinstance(x, Point) else x, dtype=float).reshape(1, -1)
    return _strict_read(row[0].tolist(), float(array_evaluator(f, norm)(row)[0]))


def _strict_read(x: list[float], value: float) -> float:
    """value, read as f(x), under the strict f(p) rule of every delta
    entry point: NaN means f is undefined at x and raises NonFinite;
    +/-inf means f(x) lies beyond the float64 range, so delta(x, eps)
    cannot be resolved there, and raises FloatResolutionLimit."""
    if math.isfinite(value):
        return value
    where = f"f({', '.join(map(repr, x))}) = {value!r}"
    if math.isnan(value):
        raise NonFinite(where)
    raise FloatResolutionLimit(
        f"{where} is beyond the float64 range, so delta(p, eps) cannot be "
        "resolved at this point")


@_quiet
def eval_fn(f: FunctionSpec, x, dom: DomainSpec | None = None) -> float:
    """f at one point x, strict about dimension, membership and value.

    x passes point_in on the natural domain of f's formula (unwrap(f)'s:
    a catalog entry's domain bounds its delta queries, not evaluation),
    then on dom when given.  A radial f measures ||x|| in dom's norm (L2
    without dom).  The value is read by value_at: NaN raises NonFinite
    and +/-inf FloatResolutionLimit.
    """
    pt = point_in(unwrap(f).domain_hint(), x)
    if dom is None:
        return value_at(f, pt)
    return value_at(f, point_in(dom, pt), dom.norm)


IntervalFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def enclosure_evaluator(f: FunctionSpec) -> IntervalFn | None:
    """Interval extension of a 1-d expression function, or None.

    The returned callable maps (lo, hi) arrays to (lo, hi) bounds of f
    over each interval (expr.enclose_ast_array; a constant f gives
    scalars, which broadcast against the intervals); a radial profile
    in r counts as 1-d.  Any other f (Monotone1DFn, nD, radial wrappers)
    has no enclosure, and its searches keep sampling.
    """
    g = unwrap(f)
    if not isinstance(g, ExpressionFn) or g.dimension != 1:
        return None
    return _interval_fn(g.ast)


def slope_enclosure(f: FunctionSpec) -> IntervalFn | None:
    """Interval extension of f' for a 1-d expression function
    (expr.derivative, enclosed as enclosure_evaluator encloses f), or
    None: no enclosure of f, or abs, min, max or pow in the expression."""
    g = unwrap(f)
    if enclosure_evaluator(g) is None:
        return None
    var = next(iter(expr_mod.free_vars(g.ast)), "x")
    d = expr_mod.derivative(g.ast, var)
    return None if d is None else _interval_fn(d)


def _interval_fn(ast: expr_mod.Ast) -> IntervalFn:
    """(lo, hi) -> enclose_ast_array of ast, its one variable (x, r or x1)
    over [lo, hi]."""

    def run(lo, hi):
        iv = (lo, hi)
        return expr_mod.enclose_ast_array(ast, {"x": iv, "r": iv, "x1": iv})

    return run
