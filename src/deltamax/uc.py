"""Uniform-continuity evidence from the delta field.

The infimum of delta(., eps) over the domain decides uniform continuity:
it stays positive for every eps exactly when f is uniformly continuous.
Finitely many evaluations cannot prove either direction, so verdicts are
explicitly *evidence*: EvidenceNotUC requires a chain of witness pairs
whose mutual distances keep halving while their image distance stays
pinned at eps; EvidenceUC requires every stage infimum of an expanding /
refining window schedule to stabilize above a positive floor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .delta import DeltaResult, delta_field, epsilon_bound, line_bounds, line_problem
from .errors import (
    FloatResolutionLimit,
    InvalidArgument,
    NonFinite,
    WitnessesStagnated,
)
from .model import (
    DomainSpec,
    FunctionSpec,
    Point,
    lattice,
    require_positive,
    value_at,
)
from .search import R0, R_MAX, TOL_F, line_field

_WITNESS_FACTOR = 2.0 ** 0.25  # finer than the trace schedule: keeps the
#                                halving pairs at small coordinates, where
#                                |f| rounding stays far below TOL_F
_WITNESS_RESOLUTION = 512
_PATIENCE = 24
_MAX_WITNESS_STAGES = 400


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageRecord:
    level: int
    window: DomainSpec
    resolution: int
    inf_delta: float            # inf over the stage grid; +inf if every point failed
    argmin: Point | None
    skipped: int = 0


@dataclass(frozen=True)
class InfTrace:
    eps: float
    records: tuple[StageRecord, ...]

    def floor(self) -> float:
        vals = [r.inf_delta for r in self.records if math.isfinite(r.inf_delta)]
        return min(vals) if vals else math.inf


@dataclass(frozen=True)
class WitnessPairs:
    """Pairs (x_n, y_n) with |f(x_n) - f(y_n)| = eps0 and distances that
    at least halve from one pair to the next."""

    pairs: tuple[tuple[Point, Point], ...]
    eps0: float
    distances: tuple[float, ...]

    def __post_init__(self):
        ds = self.distances
        if len(ds) != len(self.pairs):
            raise ValueError("one distance per pair required")
        for a, b in zip(ds, ds[1:]):
            if not b < a:
                raise ValueError("witness distances must strictly decrease")
            if b > 0.5 * a * (1.0 + 1e-9):
                raise ValueError("consecutive witness distances must halve")


class Verdict(Enum):
    EVIDENCE_UC = "evidence-uc"
    EVIDENCE_NOT_UC = "evidence-not-uc"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class UcVerdict:
    kind: Verdict
    eps_tested: tuple[float, ...]
    traces: tuple[InfTrace, ...]
    lower_bound: float | None = None
    witnesses: WitnessPairs | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.kind is Verdict.EVIDENCE_UC:
            if self.witnesses is not None:
                raise ValueError("EvidenceUC cannot carry witness pairs")
            if not (self.lower_bound is not None and self.lower_bound > 0):
                raise ValueError("EvidenceUC needs a positive lower bound")
        if self.kind is Verdict.EVIDENCE_NOT_UC and self.witnesses is None:
            raise ValueError("EvidenceNotUC needs witness pairs")


# ---------------------------------------------------------------------------
# Window schedules
# ---------------------------------------------------------------------------

def _make_window(dom: DomainSpec, lo: float, hi: float) -> DomainSpec:
    """The window of dom between lo and hi on its line (see line_bounds)."""
    if dom.is_radial and dom.dimension > 1:
        return DomainSpec.annulus(dom.center, lo, hi, norm=dom.norm)
    return DomainSpec.interval(lo, hi, norm=dom.norm)


def default_schedule(dom: DomainSpec, stages: int = 21, resolution: int = 2048,
                     factor: float = 2.0) -> list[tuple[DomainSpec, int]]:
    """Window schedule for infimum scans, its stage count decided from
    dom's shape alone (stage_schedule, which uc runs, decides from f too).

    Only a line with an escaping end has `stages` windows: unbounded
    extents expand geometrically ([0, 2^k]-style), and open finite
    boundaries are approached geometrically instead, since that is where
    the infimum can escape.  The other domains pick their own stage
    count.  A compact line (bounded, closed boundaries) refines the
    resolution on its full window, up to `resolution`.  A generic nD
    domain gets one stage on its (truncated) full window: _stage_field
    caps every nD grid at the same lattice, so more stages would repeat
    it.  A stage count or resolution that is not an integer of at least
    1, or a factor that is not a finite number > 1, raises InvalidArgument.
    """
    _require_counts(stages=stages, resolution=resolution, factor=factor)
    if dom.dimension > 1 and not dom.is_radial:
        return [(dom, resolution)]

    lo, hi, open_lo, open_hi = line_bounds(dom)
    lo_escape = math.isinf(lo) or open_lo
    hi_escape = math.isinf(hi) or open_hi

    if not lo_escape and not hi_escape:
        out = []
        res = max(64, resolution // 8)
        while res < resolution:
            out.append((_make_window(dom, lo, hi), res))
            res *= 2
        out.append((_make_window(dom, lo, hi), resolution))
        return out

    width = hi - lo if math.isfinite(hi - lo) else R0
    # An infinite end is truncated R_MAX from the finite one (from 0 on R),
    # so a line lying wholly beyond R_MAX still has windows.
    line_lo = lo if not math.isinf(lo) else (hi if math.isfinite(hi) else 0.0) - R_MAX
    line_hi = hi if not math.isinf(hi) else (lo if math.isfinite(lo) else 0.0) + R_MAX
    # The windows grow with k toward (line_lo, line_hi), so only the first
    # few can be empty (an open end's first step reaching across the
    # line); they are skipped and do not count as stages.
    out = []
    k = -1
    while line_lo < line_hi and len(out) < stages:
        k += 1
        g = factor ** k
        w_lo = lo
        w_hi = hi
        if lo_escape:
            if math.isinf(lo):
                w_lo = (hi if math.isfinite(hi) else 0.0) - R0 * g
            else:
                w_lo = lo + min(width, R0) / g
        if hi_escape:
            if math.isinf(hi):
                w_hi = (lo if math.isfinite(lo) else 0.0) + R0 * g
            else:
                w_hi = hi - min(width, R0) / g
        w_lo = max(w_lo, line_lo)
        w_hi = min(w_hi, line_hi)
        if w_lo < w_hi:
            out.append((_make_window(dom, w_lo, w_hi), resolution))
    return out


def stage_schedule(f: FunctionSpec, dom: DomainSpec, stages: int = 21, resolution: int = 2048,
                   factor: float = 2.0) -> list[tuple[DomainSpec, int]]:
    """The schedule that infimum_delta, witness_search and the CLI's inf
    run: default_schedule(dom, ...) for a problem that reduces to a line
    (delta.line_problem), else the one stage (dom, resolution), since
    every stage without a line is the same capped lattice."""
    return _schedule(line_problem(f, dom), dom, stages, resolution, factor)


def _schedule(problem, dom: DomainSpec, stages: int = 21, resolution: int = 2048,
              factor: float = 2.0) -> list[tuple[DomainSpec, int]]:
    """stage_schedule of a problem its caller built (line_problem's)."""
    if problem is None:
        _require_counts(stages=stages, resolution=resolution, factor=factor)
        return [(dom, resolution)]
    return default_schedule(dom, stages, resolution, factor)


def _require_counts(least: int = 1, factor: float = 2.0, **counts) -> None:
    """Raise InvalidArgument unless every count is an integer of at least
    `least` (a schedule has at least one stage of at least one point, a
    witness chain three pairs), and `factor` a finite number > 1."""
    for name, value in counts.items():
        if not (isinstance(value, numbers.Integral) and value >= least):
            raise InvalidArgument(f"{name} must be an integer >= {least}, got {value!r}")
    if not (isinstance(factor, numbers.Real) and 1.0 < factor < math.inf):
        raise InvalidArgument(f"factor must be a finite number > 1, got {factor!r}")


# ---------------------------------------------------------------------------
# Field evaluation per stage
# ---------------------------------------------------------------------------

def _stage_field(f: FunctionSpec, dom: DomainSpec, problem, window: DomainSpec,
                 resolution: int, eps: float, bound: float = math.inf):
    """Returns (points, values, witnesses) for one stage grid as rows:
    points and witnesses (n, d), values (n,).  A point whose delta could
    not be found has value NaN and NaN in its witness row.  `problem` is
    delta.line_problem(f, dom), built once by the caller (as is the
    check of eps) and read by every stage.

    A problem that reduces to a line passes its search.Line, with the
    window's stretch of that line as the points, to line_field under
    `bound`: the crossing may fall outside the window, and a line
    coordinate t lifts to the row (t, 0, ..., 0).  Under a bound
    line_field runs the sampled engine's minimum mode: a point whose
    delta cannot be the stage minimum, or exceeds the bound, is not
    refined and reads +inf, in its value and its witness row, so only a
    minimum within the bound, its point and witness are the full field's.
    With the default bound inf the NaN count is the full field's too;
    under a finite bound no point reads NaN (a point with no crossing
    reads +inf).  A generic nD f runs one delta_field call over the rows
    of a capped lattice over the window, whatever the bound; a row whose
    delta raised reads NaN.
    """
    if problem is not None:
        line = problem[1]
        wlo, whi, _, _ = line_bounds(window)
        ts = np.linspace(max(wlo, line.lo), min(whi, line.hi), resolution)
        ts = ts[line.contains(ts)]
        res = line_field(line, ts, eps, bound)
        pad = np.zeros((ts.size, dom.dimension - 1))
        return np.column_stack([ts, pad]), res.values, np.column_stack([res.witness, pad])

    # The grid is capped to stay desk-scale.
    per_axis = max(3, min(resolution, int(round(4096 ** (1.0 / dom.dimension)))))
    lo_arr, hi_arr = window.bounding_box(truncate=R_MAX)
    grid = lattice([np.linspace(a, b, per_axis) for a, b in zip(lo_arr, hi_arr)])
    pts = grid[dom.contains_rows(grid)]
    values, wits = np.full(len(pts), np.nan), np.full(pts.shape, np.nan)
    for i, r in enumerate(delta_field(f, dom, pts, eps, directions=16)):
        if isinstance(r, DeltaResult):
            values[i], wits[i] = r.value, r.witness.coords
    return pts, values, wits


def _stage_min(f: FunctionSpec, dom: DomainSpec, problem, window: DomainSpec,
               resolution: int, eps: float, bound: float = math.inf):
    """(inf_delta, argmin, skipped, witness) of one stage: the smallest
    finite delta on the stage grid (+inf, None, None when there is none),
    the point and witness that attain it (the stage's only two Points),
    and the count of NaN points.  A +inf value (a delta that _stage_field
    did not refine, being above the minimum or `bound`) is neither the
    minimum nor skipped.  On a line, a stage whose minimum exceeds a
    finite bound reads (+inf, None, 0, None); see _stage_field."""
    pts, values, wits = _stage_field(f, dom, problem, window, resolution, eps, bound)
    skipped = int(np.count_nonzero(np.isnan(values)))
    finite = np.isfinite(values)
    if not finite.any():
        return math.inf, None, skipped, None
    i = int(np.argmin(np.where(finite, values, np.inf)))
    return float(values[i]), Point(tuple(pts[i])), skipped, Point(tuple(wits[i]))


def infimum_delta(f: FunctionSpec, dom: DomainSpec, eps: float,
                  schedule: list[tuple[DomainSpec, int]] | None = None) -> InfTrace:
    """Coarse-to-fine grid infima of delta(., eps) over a window schedule
    (by default stage_schedule's), one StageRecord per stage.

    Per-point failures (empty sphere preimage) are skipped and counted,
    not fatal.  A bad eps, an empty schedule (an infimum over no points)
    and a resolution of a caller's schedule that is not an integer of at
    least 1 raise InvalidArgument, before any stage.  The problem
    (delta.line_problem) is built once, and every stage reads it.
    """
    require_positive("eps", eps)
    problem = line_problem(f, dom)
    schedule = _schedule(problem, dom) if schedule is None else schedule
    if not schedule:
        raise InvalidArgument("an infimum needs a schedule of at least one stage")
    for _, resolution in schedule:
        _require_counts(resolution=resolution)
    records = tuple(
        StageRecord(level, window, resolution,
                    *_stage_min(f, dom, problem, window, resolution, eps)[:3])
        for level, (window, resolution) in enumerate(schedule))
    return InfTrace(eps=eps, records=records)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def witness_search(f: FunctionSpec, dom: DomainSpec, eps0: float,
                   count: int = 8) -> WitnessPairs:
    """Build `count` pairs (x_n, y_n) with |f(x_n) - f(y_n)| = eps0 and
    distances halving from pair to pair, by following the argmin of the
    delta field through stage_schedule's windows at factor 2^(1/4), up to
    400 stages of 512 points (fixed: no schedule or resolution keyword).

    A stage after the first pair keeps only what the chain reads: its
    least delta, if that is at most half the last pair's distance (the
    chain's acceptance bound, which _stage_min prunes the line engine
    with).  A stage above it is rejected, whether it reads that delta or
    +inf, and counts toward the patience of _PATIENCE stages alike.

    Raises WitnessesStagnated (with the partial pairs attached) when the
    distances stop halving -- the signal that feeds an EvidenceUC or
    Inconclusive verdict.  uc_verdict ignores chains of <= 2 pairs, so a
    count that is not an integer of at least 3 is an InvalidArgument, and
    a schedule of at most two stages (every problem without a line has
    one) raises before evaluating any stage.
    """
    require_positive("eps", eps0)
    _require_counts(3, count=count)
    problem = line_problem(f, dom)
    schedule = _schedule(problem, dom, _MAX_WITNESS_STAGES, _WITNESS_RESOLUTION, _WITNESS_FACTOR)
    if len(schedule) <= 2:
        raise WitnessesStagnated(
            f"a schedule of {len(schedule)} stage(s) cannot build {count} halving pairs")

    pairs: list[tuple[Point, Point]] = []
    dists: list[float] = []
    since_last = 0
    for window, res in schedule:
        bound = 0.5 * dists[-1] if pairs else math.inf
        v, x, _, y = _stage_min(f, dom, problem, window, res, eps0, bound)
        if y is not None and v <= bound and _pins_eps(f, dom, x, y, eps0):
            pairs.append((x, y))
            dists.append(v)
            since_last = 0
            if len(pairs) >= count:
                return WitnessPairs(tuple(pairs), eps0, tuple(dists))
        else:
            since_last += 1
            if since_last > _PATIENCE:
                break
    raise WitnessesStagnated(
        f"witness distances stopped halving after {len(pairs)} pair(s)",
        pairs=WitnessPairs(tuple(pairs), eps0, tuple(dists)) if pairs else None)


def _pins_eps(f: FunctionSpec, dom: DomainSpec, x: Point, y: Point, eps0: float) -> bool:
    """|f(y) - f(x)| = eps0 to within the image-distance accuracy limit:
    float rounding of f at x scales the achievable |h|, so the acceptance
    threshold is ulp-aware.  An end where f is not finite pins nothing."""
    try:
        fx, fy = value_at(f, x, dom.norm), value_at(f, y, dom.norm)
    except (NonFinite, FloatResolutionLimit):
        return False
    tol_eff = max(TOL_F, 32.0 * math.ulp(abs(fx) + eps0))
    return abs(abs(fy - fx) - eps0) <= tol_eff


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def _trace_is_stable(trace: InfTrace) -> bool:
    vals = [r.inf_delta for r in trace.records]
    if not vals or any(not math.isfinite(v) or v <= 0 for v in vals):
        return False
    q3 = vals[(3 * (len(vals) - 1)) // 4]
    return vals[-1] >= 0.5 * q3


def default_eps_grid(f: FunctionSpec, dom: DomainSpec) -> tuple[float, list[float]]:
    """(beta, eps grid) that uc_verdict tests when given no grid: beta/8,
    beta/4 and beta/2 for the sampled epsilon bound beta."""
    beta = epsilon_bound(f, dom)
    return beta, [beta / 8.0, beta / 4.0, beta / 2.0]


def uc_verdict(f: FunctionSpec, dom: DomainSpec,
               eps_grid: list[float] | None = None,
               count: int = 8) -> UcVerdict:
    """Three-way evidence verdict on uniform continuity of f over dom.

    EvidenceNotUC as soon as one eps yields a full chain of halving
    witness pairs; EvidenceUC when every eps has a stable positive
    infimum floor and no witness chain got anywhere; Inconclusive
    otherwise.  These are numerical evidence, not proof.  Both halves
    take stage_schedule's schedules; there is no schedule keyword.
    """
    if eps_grid is None:
        eps_grid = default_eps_grid(f, dom)[1]
    if not eps_grid:
        raise InvalidArgument("eps_grid must be nonempty")
    for eps in eps_grid:  # a bad eps fails before any eps is tested
        require_positive("eps", eps)

    traces: list[InfTrace] = []
    partial_max = 0
    for eps in eps_grid:
        try:
            witnesses = witness_search(f, dom, eps, count=count)
        except WitnessesStagnated as stalled:
            if stalled.pairs is not None:
                partial_max = max(partial_max, len(stalled.pairs.pairs))
            witnesses = None
        traces.append(infimum_delta(f, dom, eps))
        if witnesses is not None:
            return UcVerdict(kind=Verdict.EVIDENCE_NOT_UC,
                             eps_tested=tuple(eps_grid[:len(traces)]),
                             traces=tuple(traces), witnesses=witnesses)

    # A stable trace has every stage value finite and > 0, so its floor too.
    if all(_trace_is_stable(t) for t in traces) and partial_max <= 2:
        return UcVerdict(kind=Verdict.EVIDENCE_UC, eps_tested=tuple(eps_grid),
                         traces=tuple(traces), lower_bound=min(t.floor() for t in traces))
    # An eps at which every stage skipped all of its points has no delta.
    empty = [t for t in traces if all(math.isinf(r.inf_delta) for r in t.records)]
    if partial_max > 2:
        reason = (f"witness distances halved {partial_max} time(s) but the "
                  f"chain of {count} needed for evidence did not complete")
    elif empty:
        reason = "; ".join(f"at eps {t.eps:.17g} all {len(t.records)} stages skipped every "
                           "point: no x with |f(x) - f(p)| = eps was found" for t in empty)
    else:
        reason = "stage infima kept shrinking; no stable positive floor"
    return UcVerdict(kind=Verdict.INCONCLUSIVE, eps_tested=tuple(eps_grid),
                     traces=tuple(traces), reason=reason)
