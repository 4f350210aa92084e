"""Greatest delta-epsilon numbers.

delta(p, eps) is the distance from p to the set of domain points whose
image is exactly eps away from f(p).  On the domains this package
accepts, that distance is the largest delta satisfying the epsilon-delta
continuity condition at p.  compute_delta routes (f, dom) by its
hypotheses to one of four methods, whose name labels DeltaResult.backend:

* monotone   -- the paper's explicit formula for a strictly monotone 1-d
                function: min over the inverse images of f(p) +/- eps;
* levelset1d -- the same formula for any other 1-d function, on pieces
                of the line that interval enclosures of f and f' prove
                monotone (search's piece walk);
* radial     -- reduction of f(x) = g(||x||) to the 1-d problem at
                ||p||, exact on origin-centered balls/annuli, where
                dist(p, {||x|| = t}) = | ||p|| - t |;
* ray_nd     -- direction sweep estimator for generic functions in
                dimension >= 2; its value is only guaranteed to lie
                between the certified bounds.  A ray without a crossing
                stops at its exit from the domain's bounding box.

delta_field is the batched entry, with a DeltaResult or the point's
DeltamaxError per row; compute_delta is its batch of one.  The first
three backends share its line path: line_problem reduces (f, dom) to
one search.Line, a profile's interval of the line with its evaluators,
built once per call (model.array_evaluator, then one
model.interval_extensions call for the enclosures of f and f', shaped
like their inputs), whose route (line or ray_nd) is decided on it (None
is ray_nd's); one search.line_field call then runs every point that
passes the point gates.  Every point starts at the piece walk, and the
points it leaves go to the sampled engine: every point of a profile
with neither an enclosure of f' nor a monotone claim, and those whose
nearest crossing the walk cannot settle in few enough pieces.

Every result's diagnostics["lower_kind"] says what its bracket rests on:
"proof" where enclosures of f proved both ends (the piece walk on an
expression profile), "samples" otherwise (sampled points, Monotone1DFn
profiles, whose monotonicity is the user's claim, and ray_nd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConstantFunction,
    DeltamaxError,
    DimensionMismatch,
    DomainViolation,
    EmptySpherePreimage,
    FloatResolutionLimit,
    InvalidArgument,
)
from .model import (
    DomainSpec,
    FunctionSpec,
    Monotone1DFn,
    NormTag,
    Point,
    RadialFn,
    _quiet,
    _sized_point,
    _strict_read,
    array_evaluator,
    interval_extensions,
    lattice,
    norm_of,
    norm_of_rows,
    point_in,
    require_positive,
    unwrap,
    value_at,
)
from .oracle import GridSpec, grid_delta_bounds
from .search import R_MAX, SCAN_POINTS, TOL_F, Line, line_field, scan_side


@dataclass(frozen=True, slots=True)
class DeltaResult:
    """A computed delta with its achiever and certified bounds.

    The bracket promise is certified_lower <= delta(p, eps) <=
    certified_upper, and diagnostics["lower_kind"] says what backs it:

    * "proof" -- interval enclosures of f and of f(p), rounded outward,
      proved every point closer to p than certified_lower clear and a
      point certified_upper away (or nearer) a violator, on pieces where
      an enclosure of f' proved f monotone.  Both ends hold for the
      exact f; a radial result's are those of its profile at the float
      ||p||.
    * "samples" -- the same two ends, resting on a user's claim or on
      samples.  For a Monotone1DFn they are proofs if the function is
      monotone as claimed, from its values widened by 16 ulps.  Points
      the piece walk leaves go through the sampled line engine: the lower
      end is a clear radius less its grid step, which an enclosure
      proved where a detect window was skipped, and the upper end is the
      sampled violator, unless that lower end lies past a violator the
      walk proved: the walk's proved clear radius and crossing stand
      then.  ray_nd's lower end is the grid oracle's.

    `witness` is a domain point with |f(witness) - f(p)| >= eps as
    evaluated, the violator end of the final crossing bracket, and
    `value` its distance from p; diagnostics["achiever_h"] is
    |f(witness) - f(p)| - eps >= 0 there.  The line backends'
    diagnostics count the windows tested ("detect_rounds") and the ones
    proved clear ("enclosed_rounds"), over both sides, and give the
    farthest window end reached ("searched_radius").  The ray_nd
    diagnostics give the ray count ("directions"), the grid oracle's step
    ("oracle_step"), the farthest window end over all rays
    ("searched_radius") and the windows summed over rays
    ("detect_rounds"), each ray's counted until it crossed, left its
    reach, or was stopped by the running minimum of the crossings found
    (search.scan_side).  1-d and radial queries go through one line front
    end, so a radial result carries the same numbers as its 1-d profile
    at ||p||, with the witness lifted along the ray through p.
    """

    value: float
    witness: Point | None
    certified_lower: float
    certified_upper: float
    backend: str
    one_sided: bool = False
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (0.0 < self.certified_lower <= self.value <= self.certified_upper):
            raise ValueError(
                f"inconsistent bounds: 0 < {self.certified_lower} <= "
                f"{self.value} <= {self.certified_upper} violated")


# ---------------------------------------------------------------------------
# Line reduction
# ---------------------------------------------------------------------------

def line_bounds(dom: DomainSpec) -> tuple[float, float, bool, bool]:
    """(lo, hi, open_lo, open_hi) of the line a 1-d problem on dom lives
    on: the interval of a 1-d domain (a dim-1 ball is [c - r, c + r]),
    or the radii of a ball/annulus in dimension >= 2."""
    if dom.is_radial and dom.dimension > 1:
        return dom.r_in, dom.r_out, dom.open_inner, dom.open_outer
    if dom.is_radial:
        c, r = dom.center[0], dom.r_out
        return c - r, c + r, dom.open_outer, dom.open_outer
    return dom.lo[0], dom.hi[0], dom.open_lo[0], dom.open_hi[0]


def line_problem(f: FunctionSpec, dom: DomainSpec) -> Line | None:
    """The 1-d problem behind delta(p, eps) on (f, dom), as one
    search.Line, or None for a generic nD f.

    The line is that of a profile: a 1-d f on a 1-d domain is its own
    profile on line_bounds(dom); a radial f = g(||x||) on an
    origin-centered ball/annulus in dimension >= 2 reduces to g over the
    radii.  The line carries the profile's evaluator and its
    model.interval_extensions; a Monotone1DFn, clipped to its interval (a
    clipped end is closed), carries the monotone claim too.
    """
    g = unwrap(f)
    if (isinstance(g, RadialFn) and dom.is_radial and dom.dimension > 1
            and not any(dom.center)):
        if g.dim != dom.dimension:
            raise DimensionMismatch(f"{g.dim}-d radial function on a {dom.dimension}-d domain")
        g = unwrap(g.inner)
    elif g.dimension != 1:
        return None
    elif dom.dimension != 1:
        raise DimensionMismatch(f"1-d function on a {dom.dimension}-d domain")
    lo, hi, open_lo, open_hi = line_bounds(dom)
    claimed = isinstance(g, Monotone1DFn)  # one monotone piece, on the user's claim
    if claimed:
        a, b = g.interval
        if a > lo:
            lo, open_lo = a, False
        if b < hi:
            hi, open_hi = b, False
        if (lo, hi) != (a, b):
            g = replace(g, interval=(lo, hi))
    f_arr = array_evaluator(g)
    return Line(f_arr, *interval_extensions(g, f_arr), lo, hi, open_lo, open_hi, claimed)


def _attempt(call, *args):
    """call(*args), or the DeltamaxError it raises at one point; a fault
    of the problem (DimensionMismatch, InvalidArgument) raises."""
    try:
        return call(*args)
    except (DimensionMismatch, InvalidArgument):
        raise
    except DeltamaxError as exc:
        return exc


def _line_rows(line: Line, dom: DomainSpec, ps, eps: float) -> list:
    """delta_field of the line problem `line` (line_problem's) on dom,
    built once by the caller; a bad eps raises InvalidArgument.

    The line coordinate t of p is p itself on a 1-d domain and ||p|| on
    a radial one.  The point gates run on all rows at once: each p as a
    Point of dom's dimension, then one test of membership in dom and in
    the clipped line; a row that fails them never reaches the engine.
    One line_field call runs the others and reads f(p) once for each
    (res.fp), and the strict f(p) rule (model._strict_read) checks that
    read.  A radial witness is lifted along the ray through p (along the
    first axis when p is the origin).
    """
    require_positive("eps", eps)
    radial = dom.dimension > 1
    backend = "monotone" if line.monotone else "levelset1d"

    rows = [_attempt(_sized_point, dom, p) for p in ps]
    live = [i for i, row in enumerate(rows) if isinstance(row, Point)]
    arr = np.array([rows[i].coords for i in live], dtype=float).reshape(len(live), dom.dimension)
    ts = norm_of_rows(dom.norm, arr) if radial else arr[:, 0]
    inside = dom.contains_rows(arr) & (ts >= line.lo) & (ts <= line.hi)
    for i, ok in zip(live, inside.tolist()):
        if not ok:
            rows[i] = DomainViolation(f"{rows[i].coords} is outside the domain {dom.describe()}")
    live, ts = [i for i in live if isinstance(rows[i], Point)], ts[inside]
    res = line_field(line, ts, eps)

    def solve(k, pt, t, fp):
        """Row k of res, whose point pt has line coordinate t and f(p) fp."""
        _strict_read([t], fp)
        value, lower, searched = float(res.values[k]), float(res.lower[k]), float(res.searched[k])
        if math.isnan(value):
            raise EmptySpherePreimage(
                f"no point with |f(x)-f({t})| = {eps} found within radius "
                f"{searched}: the sphere preimage looks empty there, so "
                "the nonemptiness hypothesis behind delta(p, eps) fails",
                searched_radius=searched)
        if math.isnan(lower):
            raise FloatResolutionLimit(
                f"delta({t!r}, {eps!r}) is below the float64 resolution at p: "
                f"a violator sits {value!r} away, and no float closer to p than "
                "that, other than p itself, could be shown clear")
        t_w = float(res.witness[k])
        if radial and t != 0.0:
            witness = Point(tuple(c * (t_w / t) for c in pt.coords))
        else:
            witness = Point((t_w,) + (0.0,) * (pt.dim - 1))
        diagnostics = {"achiever_h": float(res.root_h[k]), "searched_radius": searched,
                       "detect_rounds": int(res.detect_rounds[k]),
                       "enclosed_rounds": int(res.enclosed_rounds[k]),
                       "lower_kind": "proof" if res.done[k] and not line.monotone else "samples"}
        if radial:
            diagnostics.update(radius=t, inner_backend=backend)
        return DeltaResult(value=value, witness=witness, certified_lower=lower,
                           certified_upper=float(res.upper[k]),
                           backend="radial" if radial else backend,
                           one_sided=bool(res.one_sided[k]), diagnostics=diagnostics)

    for k, (i, t, fp) in enumerate(zip(live, ts.tolist(), res.fp.tolist())):
        rows[i] = _attempt(solve, k, rows[i], t, fp)
    return rows


# ---------------------------------------------------------------------------
# nD ray estimator
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def direction_set(dim: int, count: int, norm: NormTag = NormTag.L2) -> np.ndarray:
    """Deterministic unit directions (in `norm`); the +/- axes come
    first, then a fill: golden-angle steps from angle 0 in 2-d, and
    default_rng(0) normals otherwise."""
    axes = []
    for i in range(dim):
        for sign in (1.0, -1.0):
            v = np.zeros(dim)
            v[i] = sign
            axes.append(v)
    dirs = axes[:count]
    extra = count - len(dirs)
    if extra > 0:
        if dim == 2:
            ks = np.arange(extra)
            theta = 2.0 * math.pi * ((ks * _GOLDEN) % 1.0)
            more = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        else:
            rng = np.random.default_rng(0)
            more = rng.standard_normal((extra, dim))
        dirs = dirs + list(more)
    out = np.asarray(dirs, dtype=float)
    return out / norm_of_rows(norm, out)[:, None]


def _box_exit(dom: DomainSpec, p_arr: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Per ray p + t*d, an offset past which every float sample lies
    outside dom's bounding box (inf where the ray never leaves it).

    Each face distance is padded outward by 2**-30, relative and
    absolute, far more than the rounding of p + t*d and of the
    membership test; as the computed sample moves monotonically with t,
    every sample past the padded offset is outside the box.
    """
    lo, hi = dom.bounding_box()
    pad = 2.0 ** -30
    face = np.where(dirs > 0, hi, lo)
    gap = np.abs(face - p_arr) + pad * (1.0 + np.abs(p_arr) + np.abs(face))
    t = np.where(dirs != 0, gap / np.abs(dirs), math.inf)
    return (1.0 + pad) * np.min(t, axis=1)


@_quiet
def delta_ray_nd(f: FunctionSpec, dom: DomainSpec, p, eps: float,
                 directions: int = 64) -> DeltaResult:
    """Heuristic delta estimator for generic functions in dim >= 2.

    Runs the 1-d level-set search along each ray; the minimum crossing
    distance is an upper bound on the true delta (every crossing lies in
    the sphere preimage).  The rays run under the running minimum of the
    crossings found (search.scan_side): a ray that can no longer beat it
    stops and reads +inf, and the least root, with its tie rule, is that
    of every ray scanned to its own crossing.  A ray without a crossing
    stops at its exit from the domain's bounding box, past which no
    sample is in the domain, rather than at R_MAX.  The certified lower
    bound comes from the grid oracle on the ball of that radius; only
    lower <= delta <= value is guaranteed.
    """
    if dom.dimension < 2:
        raise DimensionMismatch("delta_ray_nd needs dimension >= 2")
    require_positive("eps", eps)
    pt = point_in(dom, p)
    if directions < 1:
        raise InvalidArgument(f"need at least one direction, got {directions!r}")

    fp = value_at(f, pt, dom.norm)
    f_arr = array_evaluator(f, norm=dom.norm)
    p_arr = pt.as_array()
    dirs = direction_set(pt.dim, directions, dom.norm)
    n = dirs.shape[0]

    def eval_at(cols, ts):
        # The samples p + t*d as column-major rows, one contiguous plane
        # per axis: the evaluator and the membership test read whole axes,
        # and with a length-d inner axis every numpy op on them strided.
        # Each sample is the same float p_j + t*d_j either way.
        x = np.empty((ts.size, pt.dim), order="F")
        for j in range(pt.dim):
            plane = x[:, j].reshape(ts.shape)
            np.multiply(ts, dirs[cols, j], out=plane)
            plane += p_arr[j]
        fv = f_arr(x).reshape(ts.shape)
        valid = dom.contains_rows(x).reshape(ts.shape)
        return fv, valid

    fp_cols = np.full(n, float(fp))
    scale = np.full(n, norm_of(dom.norm, p_arr))
    # The membership mask clips each ray to the domain; a ray without a
    # crossing stops at its bounding-box exit, past which every sample is
    # outside.
    side = scan_side(eval_at, fp_cols, eps, scale, reach=_box_exit(dom, p_arr, dirs))
    roots = side.root
    if np.all(np.isnan(roots)):
        raise EmptySpherePreimage(
            f"no ray crossing of |f - f(p)| = {eps} within radius "
            f"{float(np.max(side.searched))}; the sphere preimage looks "
            "empty, violating the nonemptiness hypothesis",
            searched_radius=float(np.max(side.searched)))
    value = float(np.nanmin(roots))
    tied = [int(i) for i in np.flatnonzero(roots == value)]
    best = min(tied, key=lambda i: tuple(p_arr + roots[i] * dirs[i]))
    witness = Point(tuple(p_arr + roots[best] * dirs[best]))

    per_axis = int(max(9, min(65, round(SCAN_POINTS ** (1.0 / pt.dim)))))
    # A grid violator within one cell of p leaves the oracle no positive
    # lower bound; zoom the window onto it until one appears.
    radius = value
    while True:
        h = 2.0 * radius / (per_axis - 1)
        if not h > np.spacing(float(np.max(np.abs(p_arr)))):
            raise FloatResolutionLimit(
                f"delta({pt.coords}, {eps!r}) is below the float64 resolution "
                f"at p: a violator sits {radius!r} away, too close for a grid "
                "of distinct floats to certify a clear ball")
        window = DomainSpec.box(p_arr - radius, p_arr + radius, norm=dom.norm)
        o_lower, o_upper = grid_delta_bounds(f, dom, pt, eps,
                                             GridSpec(h=h, window=window))
        if o_lower > 0:
            break
        radius = o_upper
    lower = min(o_lower, value)
    return DeltaResult(
        value=value,
        witness=witness,
        certified_lower=lower,
        certified_upper=value,
        backend="ray_nd",
        one_sided=False,
        diagnostics={"directions": n, "oracle_step": h,
                     "achiever_h": float(side.root_h[best]),
                     "searched_radius": float(np.max(side.searched)),
                     "detect_rounds": int(np.sum(side.rounds)), "lower_kind": "samples"},
    )


# ---------------------------------------------------------------------------
# Membership predicate and epsilon range
# ---------------------------------------------------------------------------

@_quiet
def is_delta_epsilon_number(f: FunctionSpec, dom: DomainSpec, p, eps: float,
                            beta: float, samples: int = 4096) -> bool:
    """Sampled check that beta is a valid delta at p: no grid point of the
    open beta-ball (intersected with dom) moves f by eps or more.

    True is sampled evidence of membership in (0, delta(p, eps)]; False
    is an exact refutation (a concrete violator was found).  When no grid
    point of the ball lies in dom, True is vacuous: nothing was sampled.
    """
    require_positive("eps", eps)
    require_positive("beta", beta)
    require_positive("samples", samples)
    pt = point_in(dom, p)
    fp = value_at(f, pt, dom.norm)
    p_arr = pt.as_array()
    per_axis = max(3, int(math.ceil(samples ** (1.0 / pt.dim))))
    grid = lattice([np.linspace(c - beta, c + beta, per_axis) for c in p_arr])
    inside = norm_of_rows(dom.norm, grid - p_arr) < beta
    inside &= dom.contains_rows(grid)
    pts = grid[inside]
    if pts.size == 0:
        return True
    fv = array_evaluator(f, norm=dom.norm)(pts)
    viol = np.abs(fv - fp) >= eps
    return not bool(np.any(viol & ~np.isnan(fv)))


@_quiet
def epsilon_bound(f: FunctionSpec, dom: DomainSpec, samples: int = 4096) -> float:
    """beta = 0.99 * (sampled image spread) / 4, below which delta(p, eps)
    is expected to be defined at every domain point.

    Unbounded domains are sampled on their truncation window (radius
    R_MAX), which makes beta itself a sampled heuristic.  A spread that
    overflows float64 raises FloatResolutionLimit.
    """
    require_positive("samples", samples)
    lo, hi = dom.bounding_box(truncate=R_MAX)
    per_axis = max(3, int(math.ceil(samples ** (1.0 / dom.dimension))))
    grid = lattice([np.linspace(a, b, per_axis) for a, b in zip(lo, hi)])
    mask = dom.contains_rows(grid)
    pts = grid[mask]
    if pts.shape[0] < 2:
        raise ConstantFunction("domain sampling produced fewer than two points")
    fv = array_evaluator(f, norm=dom.norm)(pts)
    fv = fv[np.isfinite(fv)]
    if fv.size < 2:
        raise ConstantFunction("no finite samples to measure the image spread")
    f_lo, f_hi = float(np.min(fv)), float(np.max(fv))
    spread = f_hi - f_lo
    if not math.isfinite(spread):
        raise FloatResolutionLimit(
            f"sampled image spread {f_lo!r} to {f_hi!r} overflows float64; "
            "no epsilon range can be read from it")
    if spread < TOL_F:
        raise ConstantFunction(
            f"sampled image spread {spread!r} is below tol_f; the function "
            "looks constant and has no valid epsilon range")
    return 0.99 * spread / 4.0


# ---------------------------------------------------------------------------
# Auto-routing front door
# ---------------------------------------------------------------------------

@_quiet
def delta_field(f: FunctionSpec, dom: DomainSpec | None, ps, eps: float,
                directions: int = 64) -> list:
    """Per p of ps, compute_delta's DeltaResult or the DeltamaxError it
    raises there.  A fault of the problem, a DimensionMismatch or an
    InvalidArgument (bad eps or directions), raises once.  A line problem
    runs one line_field call; a generic nD f, compute_delta per point."""
    if dom is None:
        dom = f.domain_hint()
    line = line_problem(f, dom)
    if line is not None:
        return _line_rows(line, dom, ps, eps)
    require_positive("eps", eps)
    return [_attempt(compute_delta, f, dom, p, eps, directions) for p in ps]


@_quiet
def compute_delta(f: FunctionSpec, dom: DomainSpec | None, p, eps: float,
                  directions: int = 64) -> DeltaResult:
    """delta(p, eps) by ray_nd for a generic nD f, else delta_field's row
    of p on the line problem built here (a 1-d or radial problem),
    raising its error.  dom=None is f's natural domain (f.domain_hint()),
    as in the CLI."""
    if dom is None:
        dom = f.domain_hint()
    line = line_problem(f, dom)
    if line is None:
        return delta_ray_nd(f, dom, p, eps, directions)
    (row,) = _line_rows(line, dom, [p], eps)
    if isinstance(row, DeltamaxError):
        raise row
    return row
