"""Internal crossing-search engine.

A line problem is one value, a Line: f on an interval of the line, with
the evaluators that the engines read (f itself, an enclosure of f, one of
f' or a monotone claim; model.interval_extensions builds the enclosures,
shaped like their inputs) and its membership test, Line.contains.
line_field(line, ps, eps, bound=None) is the one line entry, and it picks
the engine that runs inside it:

* without a bound (every 1-d and radial delta query), the piece walk
  (_pieces, below) takes every point of a line with an enclosure of f' or
  a monotone claim.  The points it gives up on, and every point of any
  other line, go to the sampled engine (_sampled_field) in full mode, at
  SCAN_POINTS detect rows per window, in one call;
* with a bound (uc's stages), the sampled engine runs in minimum mode,
  at _MIN_DETECT detect rows per window.

scan_side is the sampled engine's one-sided form, for ray_nd's rays.

The sampled engine works on h(t) = |f(x(t)) - f(p)| - eps along a
half-line of offsets t >= 0 from a base point.  The scan walks outward in
doubling windows, brackets the first sign change between consecutive
valid samples, refines the bracket with one fine rescan, and inverts it
by k-section (_ksection).  The violator end of the final bracket (a valid
sample with h >= 0) is the reported crossing; the clear end raises the
sampled clear radius.  All of it is vectorized over a batch of base
points ("columns"); the scalar backends run a batch of size one.

The work splits in two: the sweep (doubling detect windows, then tail
probes) brackets each column's first crossing, and the settle step
shrinks the brackets: one fine rescan, then k-section rounds of one
evaluator call each.  _ksection is the one bracket inverter of the
module; the piece walk inverts its proved monotone windows with it too.
Its first round spreads its points evenly over each bracket, later ones
crowd them around the secant root, so a smooth bracket mostly settles
in two calls.  On sampled ends no point lies nearer the secant root than
half the stop width, so no violator end that the settle places passes
eps by rounding alone (an end that the sweep found stays as it is).

The sampled engine settles the brackets of both halves of its signed
batch (below) in one pass.  In full mode it sweeps both halves at once:
without a bound no column's sweep reads another's, so each gets the
brackets of a sweep of its half alone.  In minimum mode it sweeps its +t
half and then its -t half (the other half given no extent): the -t sweep
starts from the bound B and the crossings that the whole +t sweep found,
and one joint sweep of both halves sampled 37.5M points instead of 21.7M
on uc_1d's traced perfbench pass.

In minimum mode (a uc stage keeps only the least delta) no side samples
detect rows densely past a bound B on the minimum.  Every settled root
lies in the [blo, bhi] of its sweep bracket (bhi up to the rounding of
the rescan's last row, which an 8-ulp pad absorbs), so past every clear
sample of its side.  B is one float that _sweep owns: a sweep takes it
in, lowers it to the padded least bhi after each detect round and its
tail probes, and returns it.  The +t sweep starts from the padded least
of the caller's bound and the deltas of earlier chunks, the -t sweep
from the +t sweep's B, and the -t sweep's B picks the brackets to settle
and the points that read +inf.  A column stops at the row block whose
last clear sample passes B.

The caller's bound is inf for an infimum stage, which also counts the
points with no crossing (NaN), and half the last pair's distance for a
witness stage (uc.witness_search), which reads only a least delta within
it.  So the NaN mask is settled only under the bound inf: there a cut
side of a point with no crossing known walks on over the probe rows only
(_PROBE_ROWS per window, every 64th of the _MIN_DETECT rows: the same
floats); a hit proves a crossing, and the point reads +inf.  A side that
the probes leave undecided, of a point with no crossing, is swept again
densely without B to tell NaN from +inf.  Under a finite bound every
point counts as crossing: a cut side stops, no side is swept again, and
a point with no crossing reads +inf.

Every sampled window (detect window, tail probes, fine rescan) goes
through _scan_rows, in row blocks of at most 2**16 samples, and a column
stops at the block that holds its first crossing: no sample past it can
move the nearest crossing, so the brackets are those of the whole
window, bit for bit.

Where the line has an enclosure of f (an expression, by
expr.enclose_ast_array; a Monotone1DFn, by its claim), the sampled
engine first tests each detect window by it: a window whose bound on h
is negative holds no crossing and is not sampled.  Where every window
below the crossing window was proved so, the clear radius up to that
window's start rests on the enclosure rather than on samples.  Skipping
changes no result: the enclosure also bounds every float sample (a
claimed one, where f is monotone as claimed), so a skipped window is
booked exactly as its samples would have been.

The piece walk is the proved engine of 1-d and radial delta queries: the
paper's explicit formula, the nearest solution of |f(x) - f(p)| = eps,
read off pieces of the line on which f is proved monotone (interval
analysis: Moore 1966; Hansen & Walster 2004).  Each side of each point
walks out from p in rounds.  A round tests _RUNGS windows of doubling
width, the first r0 = eps / (2 |f'(p)|) wide, by one enclosure of f over
the windows and their ends and one of f' over the windows.  A window
passes when the enclosure of f proves it clear (|f - f(p)| < eps for
every f(p) in f(p)'s enclosure), or when f' proves f monotone on it and
its end is proved clear.  The frontier moves to the first window that
does not pass: if f is monotone there and its end proved a violator, that
window holds the side's one nearest crossing; otherwise it is split, the
next round starting with windows 1/16 as wide.  The crossing is then
inverted by k-section, one evaluator call per round for every bracket,
and the ends of the final bracket are proved by enclosures of f(x) and of
f(p): the nearest point inward proved clear and outward proved a
violator.  Both ends of delta's bracket are then proofs.  A point whose
side splits more than _MAX_SPLITS windows (sin(1/x) near 0, a crossing
at the domain's very end, a hole in f's natural domain) is left to the
sampled engine, as are lines with no enclosure of f' (abs, min, max,
pow).  On a monotone claim the line has no f' enclosure: every window is
then monotone, and the bracket rests on that claim.

Both engines return a LineResult.  Each keeps the two sides of its n
points in one signed batch of columns, x = p + s*t with s = 1 in column
j < n (point j) and s = -1 in column n + j; _join takes the nearer
crossing of each point, a tie going to the -t side, and its line
coordinate as the witness.  _by_chunks runs either engine in chunks.

Conventions: an evaluator maps (cols, ts) -> (f, valid) where ts has one
row per probe offset and one column per selected base point.  Samples
with valid=False (outside the domain) never form brackets; f = +/-inf is
treated as a definite |f - fp| >= eps exceedance, f = NaN as invalid.
No evaluator or enclosure silences numpy's warnings of such values:
line_field runs both engines under one np.errstate, as each public entry
runs under one (model._quiet).  Each engine reads f(p) once per point
(LineResult.fp), and delta's strict f(p) rule checks that read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import IntervalFn

SideEval = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
SideEnclose = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# Tolerances and truncation limits of every search: TOL_X is an absolute
# point tolerance scaled by max(1, |p|); TOL_F bounds ||f(witness) - f(p)|
# - eps|; SCAN_POINTS is the bracketing resolution per doubling window;
# unbounded searches expand from R0 and give up at R_MAX.
TOL_X = 1e-12
TOL_F = 1e-10
SCAN_POINTS = 4096
R0 = 1.0
R_MAX = float(2 ** 20)

_TAIL_FRAC = 0.5 ** np.arange(1, 81, dtype=float)  # tail probes toward a finite end
_REFINE_POINTS = 256  # fine rescan inside each found bracket
_FRAC_FINE = np.arange(1, _REFINE_POINTS + 1, dtype=float) / _REFINE_POINTS
# Base points per chunk of either engine (_by_chunks): one default uc
# stage (2,048 points), whose 4,096 signed columns, all live, take 16-row
# blocks under the cap.
_CHUNK = 2048
_BLOCK_SAMPLES = 2 ** 16  # most samples per evaluator call of a window or rescan
_MIN_DETECT = 1024    # detect rows per window in minimum mode (uc's stages)
_PROBE_ROWS = 16      # detect rows per window of a side cut at the minimum's bound
# The piece walk: windows tested per side and walk round, their ends in
# units of the first width; the shrink of a window that failed, and the
# limits past which a point falls back to the sampled engine.
_RUNGS = 16
_RUNG_ENDS = 2.0 ** np.arange(1, _RUNGS + 1) - 1.0
_SPLIT = 1.0 / 16.0
_MAX_SPLITS = 16
_WALK_ROUNDS = 64
# Row starts of a walk round's (c, _RUNGS + 1) table, and one before those
# of its (c, _RUNGS) window arrays, for c <= 2*_CHUNK columns.
_TABLE_ROWS = np.arange(2 * _CHUNK) * (_RUNGS + 1)
_WINDOW_ROWS = np.arange(2 * _CHUNK) * _RUNGS - 1
# k-section points per round, one column per bracket: evenly spread, then
# at 0 and +/-2**-j (j = 1..40) of the bracket width around the secant root.
_KSECT_AROUND = np.concatenate(([-1.0], -(0.5 ** np.arange(1, 41)), [0.0],
                                0.5 ** np.arange(40, 0, -1), [1.0]))[:, None]
_KSECT_EVEN = np.linspace(0.0, 1.0, _KSECT_AROUND.size)[:, None]
_KSECT_ROWS = np.arange(_KSECT_AROUND.size)[:, None]
_KSECT_BLOCK = _BLOCK_SAMPLES // _KSECT_AROUND.size  # brackets per evaluator call
_KSECT_COLS = np.arange(_KSECT_BLOCK)
_KSECT_ROUNDS = 40
_LADDER = 2.0 ** np.arange(48) - 1.0  # proof candidates, in final bracket widths
# Candidates tried first: the first proof of 98.8% of point queries' bracket
# ends, and of every end of a 10,000-point x^2 field, lies among them.
_LADDER_FIRST = 8


@dataclass
class SideResult:
    """Per-column outcome of scanning one side."""

    root: np.ndarray       # violator end of the crossing bracket; NaN when none
    root_h: np.ndarray     # h >= 0 at the root
    clear: np.ndarray      # radius verified all-clear by sampling or enclosure
    step: np.ndarray       # grid step backing `clear`
    searched: np.ndarray   # how far the side was scanned
    rounds: np.ndarray     # detect rounds
    enclosed: np.ndarray   # detect rounds proved clear by enclosure
    undecided: np.ndarray  # cut at the minimum's bound; its probe rows found no crossing


def _h_of(f: np.ndarray, fp, eps: float) -> np.ndarray:
    h = np.subtract(f, fp)
    h = np.abs(h, out=h)
    h -= eps
    return h


def _first_crossing(ts, h, valid, carry_t, carry_h):
    """Locate the first valid h>=0 sample per column.

    Returns (found, blo_t, bhi_t, bhi_h, blo_h): the bracket's lower end
    is the last valid sample before the crossing, falling back to
    `carry_t` (the last all-clear sample of earlier windows, with h
    `carry_h`) when this window has none.

    Fast path: when every sample of the window is valid, the last one
    before the crossing is row first_ge - 1 (the last row in a column
    without a crossing), so the masked scan for it is skipped.  The
    masked scan takes the last valid row before that limit.
    """
    k, m = h.shape
    cols = np.arange(m)
    ge = h >= 0.0
    ge &= valid
    found = ge.any(axis=0)
    first_ge = np.where(found, ge.argmax(axis=0), 0)

    # Rows before the crossing; every row of a column without one.
    limit = np.where(found, first_ge, k)
    if valid.all():
        last_prior = limit - 1
        has_prior = last_prior >= 0
    else:
        prior = valid
        if found.any():
            prior = np.arange(k)[:, None] < limit
            prior &= valid
        has_prior = prior.any(axis=0)
        last_prior = np.where(has_prior, k - 1 - prior[::-1].argmax(axis=0), 0)

    blo_t = np.where(has_prior, ts[last_prior, cols], carry_t)
    blo_h = np.where(has_prior, h[last_prior, cols], carry_h)
    bhi_t = np.where(found, ts[first_ge, cols], np.nan)
    bhi_h = np.where(found, h[first_ge, cols], np.nan)
    return found, blo_t, bhi_t, bhi_h, blo_h


def _scan_rows(eval_at, cols, lo, span, frac, fp, eps, carry, carry_h, bound=None):
    """_first_crossing over the rows lo + span*frac of each column, sampled
    in blocks of at most _BLOCK_SAMPLES.  A column stops at the block that
    holds its first crossing; until then its last valid sample, and its
    h, carry over as the fallback clear end of its next block (`carry`,
    with h `carry_h`, NaN where unknown, for the first).  With a bound B,
    a column also stops, found False, at the block whose blo passes B."""
    out, pos, start = None, None, 0  # pos: where the live columns sit in out
    while True:
        stop = start + max(1, _BLOCK_SAMPLES // cols.size)
        ts = lo + span * frac[start:stop, None]
        f, valid = eval_at(cols, ts)
        h = _h_of(f, fp, eps)
        valid = valid & ~np.isnan(h)
        block = _first_crossing(ts, h, valid, carry, carry_h)
        if out is None:
            out = block
        else:
            for whole, part in zip(out, block):
                whole[pos] = part
        done = block[0] if bound is None else block[0] | (block[1] > bound)
        if stop >= frac.size or done.all():
            return out
        rest = np.flatnonzero(~done)
        pos = rest if pos is None else pos[rest]
        cols, lo, span, fp = cols[rest], lo[rest], span[rest], fp[rest]
        carry, carry_h = block[1][rest], block[4][rest]
        start = stop


def scan_side(eval_at: SideEval, fp: np.ndarray, eps: float,
              pos_scale: np.ndarray, detect_points: int = SCAN_POINTS,
              reach: np.ndarray | None = None) -> SideResult:
    """Find the nearest crossing of h along one side for every column.
    Every side is unbounded (the valid mask is its only boundary): its
    detect windows double from width R0, and no tail probes run.

    Two steps: the sweep brackets each column's first crossing, and the
    settle step refines every bracket by one fine rescan and k-section.
    _sampled_field runs the two steps itself (see the module notes); only
    it skips windows by enclosure, runs tail probes toward a finite end and
    sets the bound B.

    detect_points controls the bracketing sweep resolution (defaults to
    SCAN_POINTS); the fine rescan inside a found bracket keeps the
    cleared-radius quality independent of it.

    reach, per column, is an offset beyond which no sample is valid
    (e.g. the exit from the domain's bounding box).  A column without a
    crossing stops once its next window would start beyond it; the
    window straddling it is sampled in full and no tail probes start
    there.  The windows it skips could only have held invalid samples,
    so root and root_h are the same as without it; only searched,
    clear, step and rounds stop there instead of at the truncation
    radius.
    """
    n = fp.size
    side, brackets, _ = _sweep(eval_at, fp, eps, np.full(n, math.inf), np.full(n, R0),
                               pos_scale, detect_points, reach=reach)
    _settle(eval_at, fp, eps, pos_scale, side, brackets)
    return side


def _sweep(eval_at, fp, eps, extents, r0, pos_scale, detect_points,
           enclose_at: SideEnclose | None = None, reach=None,
           bound=None, known=None) -> tuple[SideResult, list, float | None]:
    """The bracketing half of scan_side, for sides ending `extents` away
    from a first window of width r0; a column with no extent is not
    swept.  Tail probes, 80 rows ext - gap*0.5**j sampled in row blocks
    like a detect window, approach a finite end.  enclose_at(cols, t_lo,
    t_end) returns, per window [t_lo, t_end], a value that is negative
    only if h < 0 at every float sample of the window and at every real
    offset in it; such a window is not sampled.  reach is scan_side's.

    bound, a float, is minimum mode's B (see the module notes); it drops
    to the padded least violator end after every detect round and after
    the tail probes.  A column whose last valid clear sample passes B
    samples no more detect rows densely: it stops if `known` says that
    its point crosses already, and otherwise probes the rest of its
    window, and the windows after it, on the probe rows only.  A probe
    hit proves a crossing; a column out of windows first is undecided.
    Cut columns run no tail probes and keep their clear radius at the
    cut.  (reach's test, the window's last sample, would miss a crossing
    between the last valid sample and a stretch where f is undefined.)

    Returns the side, the brackets found and the final bound.  The
    brackets are a list of (cols, lo, hi, hi_h, lo_h) arrays, lo being
    the last clear sample and hi the first violator, with h at each (lo_h
    NaN where lo was proved clear, not sampled), at most one bracket per
    column.  root and root_h are NaN, but with a bound root is +inf where
    a bracket or probe hit is.
    """
    n = fp.size
    clear = np.zeros(n)
    step = np.zeros(n)
    searched = np.zeros(n)
    detect = np.zeros(n, dtype=int)
    enclosed = np.zeros(n, dtype=int)
    root = np.full(n, np.nan)
    probing = np.zeros(n, dtype=bool)
    known = np.zeros(n, dtype=bool) if known is None else known

    cap = np.minimum(extents, R_MAX)
    alive = cap > 0.0
    carry_t = np.zeros(n)
    carry_h = np.full(n, np.nan)  # h at carry_t; NaN where unknown
    wlo = np.zeros(n)
    whi = np.minimum(np.maximum(r0, 16.0 * np.spacing(pos_scale + 1.0)), cap)

    frac = np.arange(1, detect_points + 1, dtype=float) / detect_points
    stride = max(1, detect_points // _PROBE_ROWS)
    probe_frac = frac[stride - 1::stride]

    # Brackets (cols, lo, hi, hi_h) accumulate here; tail marks exhausted
    # finite sides.
    brackets: list[tuple[np.ndarray, ...]] = []
    tail = np.zeros(n, dtype=bool)

    rounds = 0
    while alive.any():
        rounds += 1
        if rounds > 96:  # doubling from 1e-12-ish to R_MAX stays far below this
            break
        cols = np.flatnonzero(alive)
        lo_c = wlo[cols]
        hi_c = np.minimum(whi[cols], cap[cols])
        detect[cols] += 1
        # A window proved clear ends clear at its last sample (computed bit
        # for bit as the sampler does); the sampled ones fill in below.
        found = np.zeros(cols.size, dtype=bool)
        blo = lo_c + (hi_c - lo_c) * frac[-1]
        bhi = np.full(cols.size, np.nan)
        bhi_h = np.full(cols.size, np.nan)
        blo_h = np.full(cols.size, np.nan)
        s = slice(None)  # the sampled windows
        if enclose_at is not None:
            proved = enclose_at(cols, lo_c, blo) < 0.0
            if proved.any():
                enclosed[cols[proved]] += 1
                s = np.flatnonzero(~proved)
        probe = probing[cols]
        parts = [(s, frac, bound)]
        if probe.any():
            s = np.arange(cols.size)[s]
            parts = [(s[~probe[s]], frac, bound), (s[probe[s]], probe_frac, None)]
        for part, rows, b in parts:
            pcols = cols[part]
            if pcols.size:
                lo_s = lo_c[part]
                found[part], blo[part], bhi[part], bhi_h[part], blo_h[part] = _scan_rows(
                    eval_at, pcols, lo_s, hi_c[part] - lo_s, rows, fp[pcols], eps,
                    carry_t[pcols], carry_h[pcols], b)

        searched[cols] = hi_c
        miss = ~found
        if probe.any():
            # A probe row with h >= 0: the dense sweep crosses at or before it.
            hit = cols[found & probe]
            root[hit] = math.inf
            alive[hit] = False
            found &= ~probe
        fcols = cols[found]
        if fcols.size:
            brackets.append((fcols, blo[found], bhi[found], bhi_h[found], blo_h[found]))
            clear[fcols] = blo[found]
            step[fcols] = (hi_c[found] - lo_c[found]) / detect_points
            alive[fcols] = False
            if bound is not None:
                bound = min(bound, _pad(float(bhi[found].min())))
        ncols = cols[miss]
        if ncols.size:
            nblo, nhi, nstep = blo[miss], hi_c[miss], (hi_c[miss] - lo_c[miss]) / detect_points
            carry_t[ncols] = nblo
            carry_h[ncols] = blo_h[miss]
            # The columns whose clear radius, and whose window, move on:
            nclear, upd, move = nhi, slice(None), slice(None)
            if bound is not None:
                # A column cut at B keeps its last clear sample as its clear
                # radius, and probes the rest of its window next.
                cut = ~probe[miss] & (nblo > bound)
                alive[ncols[cut & known[ncols]]] = False
                probing[ncols[cut]] = True
                nclear, upd, move = np.where(cut, nblo, nhi), ~probe[miss], ~cut
            clear[ncols[upd]] = nclear[upd]
            step[ncols[upd]] = nstep[upd]
            mcols, mhi = ncols[move], nhi[move]
            done = mcols[mhi >= cap[mcols]]
            if done.size:
                alive[done] = False
                tail[done] = np.isfinite(extents[done]) & ~probing[done]
            if reach is not None:
                alive[ncols[nhi > reach[ncols]]] = False
            wlo[mcols] = mhi
            whi[mcols] = 2.0 * np.maximum(mhi, 16.0 * np.spacing(pos_scale[mcols] + 1.0))

    # Geometric probes toward a finite boundary catch crossings that hide
    # between the last linear sample and the (possibly open) endpoint,
    # e.g. profiles diverging at a punctured origin.  The rows
    # ext + (carry - ext)*0.5**j are ext - gap*0.5**j bit for bit, as
    # negation is exact; no sample at or below carry_t is valid.
    if tail.any():
        cols = np.flatnonzero(tail)
        ext = extents[cols]

        def eval_tail(tcols, ts):
            f, valid = eval_at(tcols, ts)
            return f, valid & (ts > carry_t[tcols])
        found, blo, bhi, bhi_h, blo_h = _scan_rows(
            eval_tail, cols, ext, carry_t[cols] - ext, _TAIL_FRAC, fp[cols], eps,
            carry_t[cols], carry_h[cols])
        searched[cols] = ext
        fcols = cols[found]
        if fcols.size:
            brackets.append((fcols, blo[found], bhi[found], bhi_h[found], blo_h[found]))
            clear[fcols] = blo[found]
            step[fcols] = np.maximum(bhi[found] - blo[found], np.spacing(ext[found]))
            if bound is not None:
                bound = min(bound, _pad(float(bhi[found].min())))
        ncols = cols[~found]
        if ncols.size:
            clear[ncols] = np.maximum(clear[ncols], blo[~found])

    for cols, *_ in brackets if bound is not None else ():
        root[cols] = math.inf
    side = SideResult(root=root, root_h=np.full(n, np.nan), clear=clear, step=step,
                      searched=searched, rounds=detect, enclosed=enclosed,
                      undecided=probing & np.isnan(root) & ~known)
    return side, brackets, bound


def _settle(eval_at, fp, eps, pos_scale, side: SideResult, brackets: list) -> None:
    """The settling half of scan_side: one fine rescan inside each
    bracket, which sets the grid step behind the clear radius, then
    k-section of sampled ends (_ksection), written into side's root,
    root_h, clear and step.  Columns are independent here, so brackets of
    several sweeps can be settled together."""
    if not brackets:
        return
    cols, blo, bhi, bhi_h, blo_h = (np.concatenate(part) for part in zip(*brackets))
    clear, step = side.clear, side.step

    # One fine rescan inside the bracket sharpens both the cleared
    # radius and, for coarse windows, the choice of nearest crossing.
    wide = (bhi - blo) > 4.0 * TOL_X * np.maximum(1.0, pos_scale[cols])
    if wide.any():
        idx = np.flatnonzero(wide)
        found, rlo, rhi, rhi_h, rlo_h = _scan_rows(
            eval_at, cols[idx], blo[idx], (bhi - blo)[idx], _FRAC_FINE, fp[cols[idx]], eps,
            blo[idx], blo_h[idx])
        upd = idx[found]
        blo[upd] = rlo[found]
        blo_h[upd] = rlo_h[found]
        bhi[upd] = rhi[found]
        bhi_h[upd] = rhi_h[found]
        clear[cols[upd]] = rlo[found]
        step[cols[upd]] = rhi[found] - rlo[found]

    scale = pos_scale[cols]
    t_clear, t_viol, h_viol = _ksection(eval_at, cols, fp[cols], eps, blo, blo_h, bhi, bhi_h,
                                        TOL_X * np.maximum(1.0, scale), scale, True)
    side.root[cols] = t_viol
    side.root_h[cols] = h_viol
    clear[cols] = np.maximum(clear[cols], t_clear)


@dataclass(frozen=True)
class Line:
    """A line problem: f on the interval between lo and hi, an open end
    excluded.  f is a lenient vectorized evaluator, enclose(lo, hi) an
    interval extension of f and slope(lo, hi) one of f' (either None when
    there is none), both built by model.interval_extensions and shaped
    like lo; none of them silences numpy's warnings, which the caller's
    errstate does (see the module notes).  monotone: f is monotone on the
    whole line, as the caller claims; enclose then only needs to enclose
    f at the two ends of each interval, and slope is None."""

    f: Callable[[np.ndarray], np.ndarray]
    enclose: IntervalFn | None
    slope: IntervalFn | None
    lo: float
    hi: float
    open_lo: bool
    open_hi: bool
    monotone: bool

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Per float of x, whether it lies on the line; an infinite end
        takes no comparison."""
        if math.isfinite(self.lo):
            inside = (x > self.lo) if self.open_lo else (x >= self.lo)
            if math.isfinite(self.hi):
                inside &= (x < self.hi) if self.open_hi else (x <= self.hi)
            return inside
        if math.isfinite(self.hi):
            return (x < self.hi) if self.open_hi else (x <= self.hi)
        return np.ones(np.shape(x), dtype=bool)


@dataclass
class LineResult:
    """Per-point outcome of the line engines.  In line_field's full mode
    `done` marks the points that the piece walk settled, the others being
    the sampled engine's.  Inside the walk, a point it gave up on holds
    the crossing it proved, if any, and its proved clear radius as lower;
    the sampled engine's own results are done everywhere.  In minimum
    mode lower, root_h, one_sided, searched and the round counts describe
    the pruned search: a side cut at B keeps its clear radius at the cut,
    re-sweeps are not counted, and a +inf point whose two sides were both
    re-swept may cross on both."""

    done: np.ndarray
    fp: np.ndarray               # f(p), the one read of it that the engines make
    values: np.ndarray           # violator end; NaN: no side crosses; +inf: not refined
    witness: np.ndarray          # its line coordinate (+inf where values is)
    lower: np.ndarray            # lower bound; NaN where no float but p was shown clear
    upper: np.ndarray            # upper bound: proved by the walk, values when sampled
    root_h: np.ndarray           # h >= 0 at the violator end, as evaluated
    one_sided: np.ndarray
    searched: np.ndarray         # farthest window end, both sides
    detect_rounds: np.ndarray    # windows tested, both sides
    enclosed_rounds: np.ndarray  # of which proved clear


def _join(fp, done, values, witness, lower, upper, root_h, searched, detect_rounds,
          enclosed_rounds) -> LineResult:
    """The LineResult of the n points' f(p) and of per-side arrays over a
    signed batch of 2n columns: values, witness and root_h from the nearer
    crossing (see the module notes), the nearer ends, the farther search,
    the summed rounds, and done where both sides are."""
    n = values.size // 2
    has = ~np.isnan(values)
    pick = np.arange(n) + n * (has[n:] & ~(values[:n] < values[n:]))

    def both(op, a):
        return op(a[:n], a[n:])
    return LineResult(
        done=both(np.logical_and, done), fp=fp, values=values[pick], witness=witness[pick],
        lower=both(np.minimum, lower), upper=both(np.fmin, upper), root_h=root_h[pick],
        one_sided=both(np.logical_xor, has), searched=both(np.fmax, searched),
        detect_rounds=both(np.add, detect_rounds), enclosed_rounds=both(np.add, enclosed_rounds))


def _by_chunks(run, n: int) -> LineResult:
    """The LineResult of n points, run(sl) giving it for each slice sl of
    at most _CHUNK of them (one empty slice when n is 0)."""
    parts = [run(slice(i, i + _CHUNK)) for i in range(0, max(n, 1), _CHUNK)]
    if len(parts) == 1:
        return parts[0]
    return LineResult(**{name: np.concatenate([getattr(r, name) for r in parts])
                         for name in LineResult.__dataclass_fields__})


def line_field(line: Line, ps: np.ndarray, eps: float, bound: float | None = None) -> LineResult:
    """delta field of the line problem `line` at the points ps, which
    must lie on it: the one line entry, which picks the engine and runs
    it under one np.errstate(all="ignore").  res.fp is f(p), read once
    per point by the engine that took it.

    Without a bound, the piece walk takes every point of a line with an
    enclosure of f' or a monotone claim (see the module notes); the points
    it gives up on, and every point of any other line, run the sampled
    engine's full mode at SCAN_POINTS detect rows, and are not done; one
    whose sampled lower end exceeds a violator the walk proved keeps the
    walk's row, its lower end the walk's proved clear radius (NaN at 0).

    `bound`, the caller's bound on the least delta (uc's stages), runs the
    sampled engine's minimum mode at _MIN_DETECT detect rows: where the
    minimum is at most the bound, it, its first argmin and its witness
    are those of the sampled full field, bit for bit.  Every other finite
    value and witness is the full one too; a point whose delta lies past
    the running bound B, or past the caller's, reads +inf in both
    instead, so where the minimum exceeds the caller's bound every point
    reads +inf.  The NaN mask (no crossing found) is the full field's only
    under the bound inf; the undecided sides of the points with no
    crossing are then swept again together, by one _sweep call.  Under a
    finite bound no point reads NaN: one with no crossing reads +inf.
    """
    ps = np.asarray(ps, dtype=float)
    with np.errstate(all="ignore"):
        if bound is not None:
            return _sampled_field(line, ps, eps, _MIN_DETECT, bound)
        if line.slope is None and not line.monotone:
            return replace(_sampled_field(line, ps, eps), done=np.zeros(ps.size, dtype=bool))
        res = _by_chunks(lambda sl: _pieces(line, ps[sl], eps), ps.size)
        back = (~res.done).nonzero()[0]
        if back.size:
            sampled = _sampled_field(line, ps[back], eps)
            # A sampled lower end past a violator the walk proved is wrong.
            keep = ~(sampled.lower > res.upper[back])
            for name, part in vars(sampled).items():
                if name != "done":
                    getattr(res, name)[back[keep]] = part[keep]
    return res


def _sampled_field(line: Line, ps: np.ndarray, eps: float, detect_points: int = SCAN_POINTS,
                   bound: float | None = None) -> LineResult:
    """The sampled engine: line_field's delta field by detect sweeps of
    `detect_points` rows per window, then the settle step.

    Initial window radii come from a local derivative probe so that very
    large and very small deltas are both reached in a few doubling
    rounds.  line.enclose lets the detect sweep skip windows it proves
    clear; the result is the same with or without it.

    Both sides of every point, each with its own detect windows, are
    swept and settled in one signed batch, each as if alone (see the
    module notes).  Every point is done, and its upper end is its value.
    `lower` is NaN where the nearest clear end is within one float spacing
    of the base point: float64 cannot sample a clear point other than the
    base point itself there, so no positive lower bound exists.  `bound`
    None is full mode, a float minimum mode (see line_field).
    """
    f_arr, f_enc = line.f, line.enclose
    fp_all = np.asarray(f_arr(ps), dtype=float)
    eps_in = eps * (1.0 - 2.0 ** -50)

    # Minimum mode: the least delta settled in earlier chunks, or the caller's bound.
    best = math.inf if bound is None else bound
    decide = bound == math.inf  # minimum mode settles the NaN mask only under the bound inf

    def chunk(sl):
        nonlocal best
        p_c, fp = ps[sl], fp_all[sl]
        pos_scale = np.abs(p_c)
        bad_fp = ~np.isfinite(fp)

        # One signed batch: column j < m is point j's +t side, column m + j
        # its -t side; x = p + s*t with s = +-1 gives the floats p + t and p - t.
        m = p_c.size
        p_s = _twice(p_c)
        signs = _halves(m, 1.0, -1.0)
        fp2, scale2 = _twice(np.where(bad_fp, 0.0, fp)), _twice(pos_scale)

        def eval_at(cols, ts):
            x = p_s[cols][None, :] + signs[cols][None, :] * ts
            return np.asarray(f_arr(x.ravel()), dtype=float).reshape(x.shape), line.contains(x)

        def enclose_at(cols, t_lo, t_end):
            p, s = p_s[cols], signs[cols]
            a = p + s * t_lo
            b = p + s * t_end  # the window's last sample, as eval_at builds it
            # One ulp more covers the real points that a and b round.
            flo, fhi = f_enc(np.nextafter(np.minimum(a, b), -np.inf),
                             np.nextafter(np.maximum(a, b), np.inf))
            fpc = fp2[cols]
            # The max bounds |f - f(p)| over the window; eps_in, just
            # below eps, absorbs its rounding, so h_up < 0 proves h < 0.
            h_up = np.maximum(fhi - fpc, fpc - flo) - eps_in
            # A clear window must end on a valid sample, as a sampled one does.
            return np.where(line.contains(b), h_up, np.inf)

        plus = signs > 0.0
        ext = np.maximum(np.where(plus, line.hi - p_s, p_s - line.lo), 0.0)
        r0 = _twice(_estimate_r0(f_arr, p_c, fp, eps, ext[:m]))
        ext[_twice(bad_fp)] = 0.0

        def sweep(extents, **kw):
            """_sweep of the columns with a nonzero extent."""
            return _sweep(eval_at, fp2, eps, extents, r0, scale2, detect_points,
                          enclose_at if f_enc is not None else None, **kw)

        if bound is None:
            # Without a bound the halves are independent: one sweep.
            side, brackets, _ = sweep(ext)
        else:
            # The -t sweep starts from the bound B, and the crossings known,
            # that the whole +t sweep reached; it fills in the -t half of side.
            # Under a finite caller's bound every point counts as crossing.
            known = np.full(2 * m, not decide)
            side, brackets, b = sweep(np.where(plus, ext, 0.0), bound=_pad(best), known=known)
            side_n, br_n, b = sweep(np.where(plus, 0.0, ext), bound=b,
                                    known=known | _twice(~np.isnan(side.root[:m])))
            for name, arr in vars(side).items():
                arr[m:] = getattr(side_n, name)[m:]
            brackets += br_n
            # Only a bracket whose clear end is within the bound can hold
            # the minimum; the others keep a root of +inf.
            brackets = [tuple(part[br[1] <= b] for part in br) for br in brackets]
            # The undecided sides of a point with no crossing known (none
            # under a finite bound): their dense sweep, without the bound,
            # decides NaN or +inf.
            none = np.isnan(side.root[:m]) & np.isnan(side.root[m:])
            redo = side.undecided & _twice(none)
            if redo.any():
                for cols, *_ in sweep(np.where(redo, ext, 0.0))[1]:
                    side.root[cols] = math.inf
        _settle(eval_at, fp2, eps, scale2, side, brackets)
        # A side without a crossing was cleared up to its searched radius
        # (or has no domain at all, which constrains nothing).
        live = ~np.isnan(side.root) | (ext > 0.0)
        cleared = np.where(live, side.clear, np.inf)
        res = _join(fp, np.ones(2 * m, dtype=bool), side.root, p_s + signs * side.root,
                    cleared - side.step,  # each side's clear radius less its own grid step
                    side.root, side.root_h, side.searched, side.rounds, side.enclosed)
        values, clear = res.values, np.minimum(cleared[:m], cleared[m:])
        lower = np.minimum(res.lower, values)
        bad = ~(lower > 0.0)
        lower[bad] = np.minimum(clear, TOL_X * np.maximum(1.0, pos_scale))[bad]
        lower[clear < np.spacing(pos_scale)] = np.nan
        if bound is not None:
            far = (values > min(b, bound)) | (np.isnan(values) & (not decide))
            values[far] = res.witness[far] = math.inf
            best = float(np.min(values, initial=best, where=np.isfinite(values)))
        res.lower, res.upper = lower, values
        return res

    return _by_chunks(chunk, ps.size)


def _pieces(line: Line, ps, eps) -> LineResult:
    """The piece walk over ps, from windows proved clear or proved
    monotone (see the module notes), on a line with an enclosure of f' or
    a monotone claim.  A point whose sides the walk cannot settle within
    _MAX_SPLITS window splits or _WALK_ROUNDS rounds is not done.  The
    caller turns off numpy's floating-point warnings."""
    f_arr, f_enc, f_slope = line.f, line.enclose, line.slope
    n = ps.size
    fp = np.asarray(f_arr(ps), dtype=float)
    # One signed batch (see the module notes), its +t columns first.
    p, s = _twice(ps), _halves(n, 1.0, -1.0)
    fp_lo, fp_hi = f_enc(p, p)

    def band(at, lo, hi):
        """(clear, violator) per interval [lo, hi] of f values, one row
        per column of `at` (a slice or indices) and the intervals along
        the last axis: every value within eps of every f(p) of its
        enclosure, or every one farther than eps.  A float difference
        below (above) the float eps proves the exact one below (above)."""
        a, b = fp_lo[at][:, None], fp_hi[at][:, None]
        return np.maximum(hi - a, b - lo) < eps, np.maximum(lo - b, a - hi) > eps

    far = _halves(n, line.hi, line.lo)
    ext = s * (far - p)
    x_end = np.where(ext <= R_MAX, far, p + s * R_MAX)  # far: the side ends at the domain's end
    if f_slope is None:
        r0 = _estimate_r0(f_arr, ps, fp, eps, ext[:n])
    else:
        d_lo, d_hi = f_slope(ps, ps)
        r0 = _r0(ps, np.abs(0.5 * (d_lo + d_hi)), eps)

    # The walk.  xa is each side's frontier: [p, xa] is proved clear.
    xa, sw, xb = p.copy(), s * _twice(r0), np.full(2 * n, np.nan)
    tested, passed, splits = np.zeros((3, 2 * n), dtype=int)
    failed = ~np.isfinite(fp_hi - fp_lo)
    walking = (ext > 0.0) & ~failed
    walked = walking.copy()
    for _ in range(_WALK_ROUNDS):
        cols = walking.nonzero()[0]
        if not (c := cols.size):
            break
        at = slice(None) if c == 2 * n else cols
        up = np.searchsorted(cols, n)  # the +t columns
        # One table per round, read by flat indices: window j of a column
        # runs from table[j] to table[j + 1], the frontier, then the rung
        # ends (sw, the signed width, times _RUNG_ENDS) clipped to the
        # side's end.
        table = np.empty((c, _RUNGS + 1))
        table[:, 0] = xa[at]
        ends, ec = table[:, 1:], x_end[at]
        np.multiply(sw[at][:, None], _RUNG_ENDS, out=ends)
        ends += table[:, :1]
        np.minimum(ends[:up], ec[:up, None], out=ends[:up])
        np.maximum(ends[up:], ec[up:, None], out=ends[up:])
        box = np.empty((2, 2, c, _RUNGS))  # (lo, hi) of the windows, then of their ends
        np.minimum(table[:, :-1], ends, out=box[0, 0])
        np.maximum(table[:, :-1], ends, out=box[1, 0])
        box[:, 1] = ends
        f_lo, f_hi = f_enc(box[0], box[1])
        clear, hit = band(at, f_lo, f_hi)
        # A window passes if the enclosure proves it clear, or if f is
        # monotone on it and clear at both ends (its start is the frontier).
        if f_slope is None:
            mono = np.ones((c, _RUNGS), dtype=bool)
        else:
            # A finite enclosure of f proves f defined, and so continuous,
            # on the window; one of f' that excludes 0, f monotone there.
            d_lo, d_hi = f_slope(box[0, 0], box[1, 0])
            mono = np.isfinite(f_hi[0] - f_lo[0]) & ((d_lo > 0.0) | (d_hi < 0.0))
        passes = np.zeros((c, _RUNGS + 1), dtype=bool)  # a last window that fails
        np.logical_or(clear[0], mono & clear[1], out=passes[:, :-1])
        k = passes.argmin(axis=1)
        grow = k == _RUNGS
        k1 = k + ~grow  # one past kk, the window that failed (or the last one)
        tested[at] += k1
        passed[at] += k
        front = table.ravel()[_TABLE_ROWS[:c] + k]
        at_k = table.ravel()[_TABLE_ROWS[:c] + k1]  # window kk's end
        kk = _WINDOW_ROWS[:c] + k1  # window kk in the (c, _RUNGS) arrays
        stop = front == ec  # the frontier reached the side's end
        cross = ~(stop | grow) & (mono & hit[1]).ravel()[kk]
        stop |= cross
        xa[at] = front
        xb[cols[cross]] = at_k[cross]
        walking[at] = ~stop
        # A grown column's windows double _RUNGS times; a split one's start
        # 1/16 as wide as window kk (a stopped column's width is unused).
        sw[at] = np.where(grow, sw[at] * 2.0 ** _RUNGS, (at_k - front) * _SPLIT)
        split = ~(stop | grow)
        if split.any():
            sp = cols[split]
            splits[sp] += 1
            # A monotone window that ends at the side's end, with a finite
            # enclosure there that eps falls inside, stays so however it
            # is split.
            ki = kk[split]
            tie = mono.ravel()[ki] & (at_k[split] == ec[split]) & np.isfinite(
                f_hi[1].ravel()[ki] - f_lo[1].ravel()[ki])
            gave_up = sp[(splits[sp] > _MAX_SPLITS) | (sw[sp] == 0.0) | tie]
            failed[gave_up] = True
            walking[gave_up] = False
    failed |= walking

    # Each crossing window [xa, xb] is monotone, clear at xa and a
    # violator at xb: k-section onto the crossing, then proofs of the ends.
    bc = (~np.isnan(xb)).nonzero()[0]
    every = bc.size == 2 * n
    at = slice(None) if every else bc
    p_b = p[at]

    def eval_at(_, xs):
        return np.asarray(f_arr(xs.ravel()), dtype=float).reshape(xs.shape), True

    nan = np.full(bc.size, np.nan)
    l, u, h_u = _ksection(eval_at, bc, _twice(fp)[at], eps, xa[at], nan, xb[at], nan,
                          TOL_X * np.maximum(1.0, np.abs(p_b)), np.zeros(bc.size), False)
    l_pr, u_pr = _proved_ends(f_enc, band, bc, s[at], xa[at], l, u, xb[at])

    def spread(part, fill):
        """part on the crossing sides, fill (one or per side) elsewhere."""
        out = part if every else np.full(2 * n, fill)
        out[at] = part
        return out

    # Per side: a crossing side's bracket; a side without one constrains
    # nothing when it reached the domain's end, and bounds delta by how
    # far it was proved clear (xa) when it stopped at R_MAX or the walk
    # gave it up.  Each proved end is |x - p| one float toward 0 (toward
    # inf for the violators u_pr): past the exact distance, which lies
    # within half a float of the rounded one.
    lower = spread(np.nextafter(np.abs(l_pr - p_b), 0.0), np.inf)
    if not every:
        soft = (np.isnan(xb) & np.where(failed, walked, ext > R_MAX)).nonzero()[0]
        lower[soft] = np.nextafter(np.abs(xa[soft] - p[soft]), 0.0)
    res = _join(fp, ~failed, spread(np.abs(u - p_b), np.nan), spread(u, np.nan), lower,
                spread(np.nextafter(np.abs(u_pr - p_b), np.inf), np.nan), spread(h_u, np.nan),
                np.abs(spread(xb[at], xa) - p), tested, passed * (f_slope is not None))
    res.lower[~(res.lower > 0.0)] = np.nan
    return res


def _ksection(eval_at, cols, fp, eps, l, l_h, u, u_h, tol, scale, sampled):
    """Shrink brackets (l, u) of columns cols, h(l) = l_h < 0 <= h(u) = u_h
    for h = |f - fp| - eps, onto its sign change; l_h and u_h may be NaN
    (unknown).  Returns the final l, u and h(u), valid samples both.

    eval_at(cols, rows) -> (f, valid) samples rows of the caller's
    coordinate, one column per bracket, and u may lie below l.  One
    evaluator call per round and block of brackets.  The first round
    spreads its points evenly over each bracket; later ones put them at 0
    and +/-2**-j of the width from the secant root, so the bracket shrinks
    to about the secant's error, which falls quadratically.  Point 0 of a
    bracket is l, the last u.  The new u is the first valid point with
    h >= 0 and the new l the last valid one before it with h < 0: an
    invalid or NaN sample never becomes an end, so a hole in the domain
    cannot pass for a crossing.  A bracket stops once it is tol wide and
    h(u) <= TOL_F, or 4 floats of scale + |u| wide, or when the floats no
    longer move it, or after _KSECT_ROUNDS rounds.

    sampled: the ends are the result, with no proof to follow them, and
    the coordinate is an offset t >= 0.  A bracket that meets the stop
    test as given is returned as it is, and from the second round on no
    point lies nearer the secant root than half the width w_stop at which
    the stop test should fire, min(tol, max(TOL_F / h', 4 floats)), less
    one float of the point's own rounding: at the root h rounds to about
    0, so a point there could become a violator end where the exact
    |f - fp| is still below eps, and points half w_stop off the root leave
    a bracket that meets the stop test.
    """
    def unsettled(br, b):
        width = np.abs(br[1] - br[0])
        return (width > tol[b]) | ((br[3] > TOL_F) & (width > 4.0 * np.spacing(
            scale[b] + np.abs(br[1]))))

    br = np.array((l, u, l_h, u_h))  # rows l, u, h(l), h(u)
    live = np.arange(l.size)
    if sampled:  # a sample is known at each end: the bracket may be settled already
        live = live[unsettled(br, live)]
    for r in range(_KSECT_ROUNDS):
        if not live.size:
            break
        whole = live.size == l.size  # every bracket live: basic slices
        going = np.zeros(live.size, dtype=bool)
        for start in range(0, live.size, _KSECT_BLOCK):
            b = slice(start, start + _KSECT_BLOCK) if whole else live[start:start + _KSECT_BLOCK]
            lb, ub, hl, hu = br[:, b]
            nb = lb.size
            w = ub - lb
            frac = _KSECT_EVEN
            if r:
                around = _KSECT_AROUND
                if sampled:
                    w_stop = np.fmin(tol[b], np.maximum(TOL_F * w / (hu - hl),
                                                        4.0 * np.spacing(scale[b] + ub)))
                    gap = 0.5 * (w_stop - np.spacing(ub)) / w
                    around = np.copysign(np.maximum(np.abs(around), gap), around)
                frac = np.fmin(np.fmax(hl / (hl - hu), 0.0), 1.0) + around
                frac = np.minimum(np.maximum(frac, 0.0, out=frac), 1.0, out=frac)  # clipped
            pts = lb + w * frac
            pts[-1] = ub
            f, valid = eval_at(cols[b], pts)
            h = _h_of(f, fp[b], eps)
            if valid is not True:
                h[~valid] = np.nan  # NaN: never an end
            # i, and l: the last point before i with h < 0, as flat indices.
            i = (h >= 0.0).argmax(axis=0) * nb + _KSECT_COLS[:nb]
            j = i - nb
            if not (h.ravel()[j] < 0.0).all():
                j = (_KSECT_ROWS.size - 1 - ((h < 0.0) & (_KSECT_ROWS < i // nb))[::-1].argmax(axis=0)
                     ) * nb + _KSECT_COLS[:nb]
            at = np.array((j, i))
            new = np.concatenate((pts.ravel()[at], h.ravel()[at]))  # the rows of br
            going[start:start + nb] = ((new[0] != lb) | (new[1] != ub)) & unsettled(new, b)
            br[:, b] = new
        live = live[going]
    return br[0], br[1], br[3]


def _proved_ends(f_enc, band, cols, sign, xa, l, u, xb):
    """Proved ends of the brackets (l, u) inside monotone windows (xa, xb)
    of columns cols, on the side `sign` of p: the nearest candidate
    outward from u proved a violator, and the nearest inward from l proved
    clear (the window being monotone, every point between xa and it is
    then clear too), stepping by the bracket's width times 0, 1, 3, 7, ...
    xb and xa, proved already, where no candidate between them is.
    band(cols, lo, hi) is the piece walk's test of f enclosures.

    Two steps: the first _LADDER_FIRST candidates, then all 48 for the
    brackets where those of an end all fail; the same floats, contiguous
    in both, so the first hit is the full ladder's."""
    fallback = np.array((xb, xa))
    out, past = fallback.copy(), np.array((sign, -sign))
    rest = slice(None)
    for ladder in (_LADDER[:_LADDER_FIRST], _LADDER):
        ur, lr = u[rest][:, None], l[rest][:, None]
        steps = (ur - lr) * ladder
        cand = np.array((ur + steps, lr - steps))  # (u's end, l's end) x bracket x step
        ok, hit = band(cols[rest], *f_enc(cand, cand))
        hit[1] = ok[1]  # the proved candidates of each end
        # Each end's first proved candidate, as a flat index, and whether it is one.
        first = hit.argmax(axis=2) + np.arange(0, cand.size, ladder.size).reshape(2, -1)
        has = hit.ravel()[first]
        cand, fb = cand.ravel()[first], fallback[:, rest]
        # An end past xb (short of xa) falls back to it.
        out[:, rest] = np.where(has & (past[:, rest] * (cand - fb) <= 0.0), cand, fb)
        rest = np.arange(cols.size)[rest][~has.all(axis=0)]
        if not rest.size:
            break
    return out[1], out[0]


def _twice(a: np.ndarray) -> np.ndarray:
    """a for the +t half of a signed batch and again for its -t half."""
    return np.concatenate((a, a))


def _halves(n: int, plus: float, minus: float) -> np.ndarray:
    """plus on the +t half of a signed batch of 2n columns, minus on -t."""
    out = np.empty(2 * n)
    out[:n], out[n:] = plus, minus
    return out


def _pad(t: float) -> float:
    """t plus 8 ulps: a settled root can exceed its sweep bracket's
    violator end by the rounding of the rescan's last row,
    blo + (bhi - blo)*1.0."""
    return t + 8.0 * math.ulp(t)


def _estimate_r0(f_arr, ps, fp, eps, ext_pos) -> np.ndarray:
    """Initial window radius ~ eps / |f'|, by a difference quotient."""
    s = 1e-6 * np.maximum(1.0, np.abs(ps))
    s = np.where(ext_pos >= s, s, -s)  # probe into the domain
    fs = np.asarray(f_arr(ps + s), dtype=float)
    return _r0(ps, np.abs((fs - fp) / s), eps)


def _r0(ps, slope, eps) -> np.ndarray:
    """Initial window radius 0.5 eps / slope of a slope >= 0 (or NaN),
    clamped to sane bounds: R0 where the slope is 0 or not finite, or the
    radius overflows.  The caller turns off numpy's warnings."""
    est = 0.5 * eps / slope
    est = np.where((slope < np.inf) & (est < np.inf), est, R0)
    return np.minimum(np.maximum(est, 1e3 * TOL_X * np.maximum(1.0, np.abs(ps))), R_MAX)
