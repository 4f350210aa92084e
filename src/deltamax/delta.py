"""Greatest delta-epsilon numbers.

delta(p, eps) is the distance from p to the set of domain points whose
image is exactly eps away from f(p).  On the domains this package
accepts, that distance is the largest delta satisfying the epsilon-delta
continuity condition at p.  compute_delta routes (f, dom) by its
hypotheses to one of four methods, whose name labels DeltaResult.backend:

* monotone   -- closed two-sided formula for strictly monotone 1-d
                functions, inverses by bracketed bisection;
* levelset1d -- outward scan + bisection on |f(x)-f(p)| - eps for any
                other 1-d function;
* radial     -- reduction of f(x) = g(||x||) to the 1-d problem at
                ||p||, exact on origin-centered balls/annuli, where
                dist(p, {||x|| = t}) = | ||p|| - t |;
* ray_nd     -- direction sweep estimator for generic functions in
                dimension >= 2; its value is only guaranteed to lie
                between the certified bounds.  A ray without a crossing
                stops at its exit from the domain's bounding box.

delta_field is the batched entry, with a DeltaResult or the point's
DeltamaxError per row; compute_delta is its batch of one.  The first
three backends share its line path: line_problem reduces (f, dom) to a
profile on an interval of the line, and one line_field call (or the
monotone formula per point) runs every point that passes the point gates.
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
    NonFinite,
)
from .model import (
    DomainSpec,
    FunctionSpec,
    Monotone1DFn,
    NormTag,
    Point,
    RadialFn,
    array_evaluator,
    enclosure_evaluator,
    lattice,
    norm_of,
    norm_of_rows,
    point_in,
    require_positive,
    unwrap,
    value_at,
)
from .oracle import GridSpec, grid_delta_bounds
from .search import R0, R_MAX, SCAN_POINTS, TOL_F, TOL_X, line_field, scan_side


@dataclass(frozen=True)
class DeltaResult:
    """A computed delta with its achiever and sampled-certified bounds.

    The bracket promise is certified_lower <= delta(p, eps) <=
    certified_upper, where the lower end rests on sampled clear points
    (the grid oracle for ray_nd).  For a 1-d expression function the
    detect windows are first tested by an interval enclosure of the
    expression; where every window below the crossing window was proved
    clear, the clear radius up to that window's start rests on a proof
    rather than on samples.  The levelset1d and radial diagnostics count
    the windows ("detect_rounds") and the proved ones
    ("enclosed_rounds"), over both sides, and give the farthest window
    end scanned ("searched_radius").  The ray_nd diagnostics give the
    ray count ("directions"), the grid oracle's step ("oracle_step"),
    the farthest window end over all rays ("searched_radius") and the
    windows summed over rays ("detect_rounds").  The levelset1d,
    radial and ray_nd backends report the violator end of the final
    crossing bracket: `witness` is a sampled domain point with
    |f(witness) - f(p)| >= eps and `value` is its distance from p, an
    upper bound on delta.  diagnostics["achiever_h"] is
    |f(witness) - f(p)| - eps >= 0 there.  The monotone backend's bounds
    come from the final bisection bracket of each inverse image, rounded
    outward by one ulp.  1-d and radial queries go through one line front
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


def line_problem(f: FunctionSpec, dom: DomainSpec
                 ) -> tuple[FunctionSpec, float, float, bool, bool] | None:
    """The 1-d problem behind delta(p, eps) on (f, dom), or None for a
    generic nD f.

    Returns (profile, lo, hi, open_lo, open_hi).  A 1-d f on a 1-d domain
    is its own profile on line_bounds(dom); a radial f = g(||x||) on an
    origin-centered ball/annulus in dimension >= 2 reduces to g over the
    radii.  A Monotone1DFn profile comes back clipped to its interval,
    and a clipped end is closed.
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
    if isinstance(g, Monotone1DFn):
        a, b = g.interval
        if a > lo:
            lo, open_lo = a, False
        if b < hi:
            hi, open_hi = b, False
        if (lo, hi) != (a, b):
            g = replace(g, interval=(lo, hi))
    return g, lo, hi, open_lo, open_hi


def _attempt(call, *args):
    """call(*args), or the DeltamaxError it raises at one point; a fault
    of the problem (DimensionMismatch, InvalidArgument) raises."""
    try:
        return call(*args)
    except (DimensionMismatch, InvalidArgument):
        raise
    except DeltamaxError as exc:
        return exc


def _line_rows(problem, dom: DomainSpec, ps, eps: float) -> list:
    """delta_field of a line problem (see line_problem) on dom.

    The line coordinate t of p is p itself on a 1-d domain and ||p|| on
    a radial one.  The point gates are point_in, t on the clipped line
    and a strict read of f(p).  A radial witness is lifted along the ray
    through p (along the first axis when p is the origin).
    """
    g, lo, hi, open_lo, open_hi = problem
    radial = dom.dimension > 1
    backend = "monotone" if isinstance(g, Monotone1DFn) else "levelset1d"

    def gate(p):
        pt = point_in(dom, p)
        t = norm_of(dom.norm, pt.as_array()) if radial else pt.coords[0]
        if not lo <= t <= hi:
            raise DomainViolation(f"{pt.coords} is outside the domain {dom.describe()}")
        return pt, t, value_at(g, t)

    rows = [_attempt(gate, p) for p in ps]
    live = [i for i, row in enumerate(rows) if isinstance(row, tuple)]
    ts = [rows[i][1] for i in live]
    res = line_field(array_evaluator(g), np.asarray(ts), eps, lo, hi, open_lo, open_hi,
                     f_enc=enclosure_evaluator(g)) if backend == "levelset1d" and ts else None

    def solve(k, pt, t, fp):
        value, t_w, lower, upper, one_sided, diagnostics = (
            _monotone_line(g, t, fp, eps) if backend == "monotone" else _field_row(res, k, t, eps))
        if radial and t != 0.0:
            witness = Point(tuple(c * (t_w / t) for c in pt.coords))
        else:
            witness = Point((t_w,) + (0.0,) * (pt.dim - 1))
        if radial:
            diagnostics = {"detect_rounds": 0, "enclosed_rounds": 0, **diagnostics,
                           "radius": t, "inner_backend": backend}
        return DeltaResult(value=value, witness=witness, certified_lower=lower,
                           certified_upper=upper, backend="radial" if radial else backend,
                           one_sided=one_sided, diagnostics=diagnostics)

    for k, i in enumerate(live):
        rows[i] = _attempt(solve, k, *rows[i])
    return rows


def _field_row(res, k: int, t: float, eps: float):
    """(value, witness, lower, upper, one_sided, diagnostics) of row k of
    a line_field result, whose line coordinate is t."""
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
            "that, other than p itself, could be sampled clear")
    return (value, t + float(res.witness_offset[k]), lower, value, bool(res.one_sided[k]),
            {"achiever_h": float(res.root_h[k]), "searched_radius": searched,
             "detect_rounds": int(res.detect_rounds[k]),
             "enclosed_rounds": int(res.enclosed_rounds[k])})


# ---------------------------------------------------------------------------
# Monotone backend
# ---------------------------------------------------------------------------

def _invert(g: Monotone1DFn, y: float, start: float) -> tuple[float, float, float] | float:
    """x in g's interval with |g(x) - y| <= TOL_F, by bracketed bisection,
    and the final bisection bracket [lo, hi], which holds the preimage.

    When y is not attained, returns instead the distance from start
    searched in vain: inf when y is provably outside the range (a finite
    endpoint maps past y), or how far doubling expansion got before
    hitting R_MAX with no sign change.
    """
    a, b = g.interval
    g_arr = array_evaluator(g)
    sgn = 1.0 if g.increasing else -1.0

    def sigma(x: float) -> float:
        # An infinite g(x) is a valid far end of a bracket; NaN is not.
        v = float(g_arr(np.asarray([x]))[0])
        if math.isnan(v):
            raise NonFinite(f"g({x!r}) is undefined")
        return sgn * (v - y)

    # Establish lo with sigma <= 0 and hi with sigma >= 0.
    start = min(max(start, a), b)
    lo = hi = None
    if math.isfinite(a):
        if sigma(a) > 0:
            return math.inf
        lo = a
    if math.isfinite(b):
        if sigma(b) < 0:
            return math.inf
        hi = b
    if lo is None or hi is None:
        s0 = sigma(start)
        if s0 == 0:
            return start, start, start
        if s0 < 0:
            lo = start
        else:
            hi = start
        if lo is None or hi is None:
            want_hi = hi is None
            radius = R0
            searched = 0.0
            while radius <= R_MAX:
                probe = min(max(start + radius if want_hi else start - radius, a), b)
                sp = sigma(probe)
                if want_hi and sp >= 0:
                    hi = probe
                    break
                if not want_hi and sp <= 0:
                    lo = probe
                    break
                searched = abs(probe - start)
                radius *= 2.0
            else:
                return searched

    # Bisect; keep the probe with the smallest |g - y|.
    best_x, best_s = lo, abs(sigma(lo))
    s_hi = abs(sigma(hi))
    if s_hi < best_s:
        best_x, best_s = hi, s_hi
    for _ in range(200):
        width = hi - lo
        scale = max(1.0, abs(lo), abs(hi))
        if width <= TOL_X * scale and (
                best_s <= TOL_F or width <= 4 * math.ulp(scale)):
            break
        mid = 0.5 * (lo + hi)
        sm = sigma(mid)
        if abs(sm) < best_s:
            best_x, best_s = mid, abs(sm)
        if sm >= 0:
            hi = mid
        else:
            lo = mid
    return best_x, lo, hi


def _monotone_line(g: Monotone1DFn, t: float, gp: float, eps: float):
    """(value, witness, lower, upper, one_sided, diagnostics) at t, where
    g(t) = gp, by the closed two-sided formula: min over the inverse
    images of gp +/- eps, one-sided when exactly one of them is attained.

    Each inverse image lies in its final bisection bracket, so delta lies
    between the distance from t to the nearest bracket (or to where an
    unattained side gave up) and the smallest distance to the farther end
    of a bracket, each rounded outward by one ulp.
    """
    a, b = g.interval
    sides = []          # (distance, crossing, nearest, farthest bracket end)
    reach = math.inf    # no crossing of an unattained side lies closer
    for target in (gp - eps, gp + eps):
        found = _invert(g, target, t)
        if isinstance(found, float):  # target not attained
            reach = min(reach, found)
            continue
        x, lo, hi = found
        sides.append((abs(x - t), x, max(lo - t, t - hi, 0.0), max(hi - t, t - lo)))
    if not sides:
        raise EmptySpherePreimage(
            f"neither g(p)+eps nor g(p)-eps is attained on [{a}, {b}]: the "
            f"sphere preimage is empty (eps={eps} exceeds the reachable "
            "variation), so no greatest delta exists at this point",
            searched_radius=min(R_MAX, max(b - t, t - a)))
    # Min distance wins; on a tie the left crossing is the witness.
    value, x = min(sides)[:2]
    lower = min(math.nextafter(min(reach, *(s[2] for s in sides)), 0.0), value)
    upper = max(math.nextafter(min(s[3] for s in sides), math.inf), value)
    if not lower > 0.0:
        raise FloatResolutionLimit(
            f"delta({t!r}, {eps!r}) is below the float64 resolution at p: the "
            f"bisection bracket of a crossing {value!r} away reaches p")
    return value, x, lower, upper, len(sides) == 1, {"g_p": gp}


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
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(face - p_arr) + pad * (1.0 + np.abs(p_arr) + np.abs(face))
        t = np.where(dirs != 0, gap / np.abs(dirs), math.inf)
    return (1.0 + pad) * np.min(t, axis=1)


def delta_ray_nd(f: FunctionSpec, dom: DomainSpec, p, eps: float,
                 directions: int = 64) -> DeltaResult:
    """Heuristic delta estimator for generic functions in dim >= 2.

    Runs the 1-d level-set search along each ray; the minimum crossing
    distance is an upper bound on the true delta (every crossing lies in
    the sphere preimage).  A ray without a crossing stops at its exit
    from the domain's bounding box, past which no sample is in the
    domain, rather than at R_MAX.  The certified lower bound comes
    from the grid oracle on the ball of that radius; only lower <= delta
    <= value is guaranteed.
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
                     "detect_rounds": int(np.sum(side.rounds))},
    )


# ---------------------------------------------------------------------------
# Membership predicate and epsilon range
# ---------------------------------------------------------------------------

def is_delta_epsilon_number(f: FunctionSpec, dom: DomainSpec, p, eps: float,
                            beta: float, samples: int = 4096) -> bool:
    """Sampled check that beta is a valid delta at p: no grid point of the
    open beta-ball (intersected with dom) moves f by eps or more.

    True is sampled evidence of membership in (0, delta(p, eps)]; False
    is an exact refutation (a concrete violator was found).
    """
    require_positive("eps", eps)
    require_positive("beta", beta)
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
    with np.errstate(invalid="ignore"):
        viol = np.abs(fv - fp) >= eps
    return not bool(np.any(viol & ~np.isnan(fv)))


def epsilon_bound(f: FunctionSpec, dom: DomainSpec, samples: int = 4096) -> float:
    """beta = 0.99 * (sampled image spread) / 4, below which delta(p, eps)
    is expected to be defined at every domain point.

    Unbounded domains are sampled on their truncation window (radius
    R_MAX), which makes beta itself a sampled heuristic.  A spread that
    overflows float64 raises FloatResolutionLimit.
    """
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

def delta_field(f: FunctionSpec, dom: DomainSpec | None, ps, eps: float,
                directions: int = 64) -> list:
    """Per p of ps, compute_delta's DeltaResult or the DeltamaxError it
    raises there.  A fault of the problem, a DimensionMismatch or an
    InvalidArgument (bad eps or directions), raises once.  A line problem
    runs one line_field call; a generic nD f, compute_delta per point."""
    if dom is None:
        dom = f.domain_hint()
    problem = line_problem(f, dom)
    require_positive("eps", eps)
    if problem is None:
        return [_attempt(compute_delta, f, dom, p, eps, directions) for p in ps]
    return _line_rows(problem, dom, ps, eps)


def compute_delta(f: FunctionSpec, dom: DomainSpec | None, p, eps: float,
                  directions: int = 64) -> DeltaResult:
    """delta(p, eps) by ray_nd for a generic nD f, else as delta_field's
    batch of one (a 1-d or radial problem), raising its row's error.
    dom=None is f's natural domain (f.domain_hint()), as in the CLI."""
    if dom is None:
        dom = f.domain_hint()
    if line_problem(f, dom) is None:
        return delta_ray_nd(f, dom, p, eps, directions)
    (row,) = delta_field(f, dom, [p], eps)
    if isinstance(row, DeltamaxError):
        raise row
    return row
