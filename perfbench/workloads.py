"""Workload inputs, reference values and output checks.

Inputs and references are made during set-up, outside the timed
section.  Each workload is a list of items; an item is one call into the
public deltamax API plus the reference its output is checked against.
The program only ever receives the generated floats, points and domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EPS_LO, EPS_HI = 1e-3, 3.0   # point-query eps is log-uniform on this range
P_MAX = 10.0                 # |p| (or ||p||) bound of the 1-d and radial queries
R_MIN = 0.01                 # keeps log_norm queries off its punctured origin
CHEAP_KINDS = ("square", "identity", "exp_norm", "log_norm", "mono_exp")
CHEAP_PER_KIND = 200         # queries of each 1-d, radial and monotone kind
RAY_QUERIES = 100
RAY_DIRECTIONS = 64
BOX_HALF = 2.0               # x1*x2 lives on [-2, 2]^2 in point_queries and field_nd

# An exact backend's value may differ from the reference by this much; the
# search tolerances (tol_x = 1e-12 scaled by |p|, tol_f = 1e-10) sit far
# below it, a wrong crossing far above.
EXACT_REL_TOL = 1e-7
EXACT_ABS_TOL = 1e-8
# ray_nd and the nD field take the nearest crossing along finitely many
# rays, so they can only overestimate delta; the reference is rounded.
ROUNDING = 1e-9
# A ray_nd witness must sit on the sphere preimage: ||f(w) - f(p)| - eps|
# within this (tol_f = 1e-10 plus rounding of x1*x2 on the box).
WITNESS_H_TOL = 1e-8

FIELD_EPS = 0.5
FIELD_RESOLUTION = 16
FIELD_DIRECTIONS = 16        # what infimum_delta uses per generic nD grid point
# inf over [-2,2]^2 of delta(., 0.5) for x1*x2: the corners, where the
# nearest point of x1*x2 = 3.5 is (sqrt 3.5, sqrt 3.5).
CORNER_DELTA = math.sqrt(2.0) * (2.0 - math.sqrt(3.5))
# The overestimate of 16 evenly spread rays at a straight level set,
# 1/cos(pi/16) - 1 (about 2%); 9e-4 when this benchmark was written.
FIELD_REL_TOL = 1.0 / math.cos(math.pi / FIELD_DIRECTIONS) - 1.0

UC_EPS = 0.5
UC_EXPECTED = {"sqrt(x)": "evidence-uc", "sin(1/x)": "evidence-not-uc"}

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def square_delta(p: float, eps: float) -> float:
    """sqrt(p^2 + eps) - |p| (catalog 'square'), without the cancellation."""
    return eps / (math.sqrt(p * p + eps) + abs(p))


def identity_delta(p: float, eps: float) -> float:
    return eps


def exp_norm_delta(t: float, eps: float) -> float:
    """ln(e^t + eps) - t (catalog 'exp_norm') = ln(1 + eps e^-t)."""
    return math.log1p(eps * math.exp(-t))


def log_norm_delta(t: float, eps: float) -> float:
    """t (1 - e^-eps) (catalog 'log_norm')."""
    return -t * math.expm1(-eps)


CLOSED_FORMS = {
    "square": square_delta,
    "identity": identity_delta,
    "exp_norm": exp_norm_delta,
    "log_norm": log_norm_delta,
    # exp on R: the crossing of e^p + eps is nearer than that of e^p - eps,
    # so delta = ln(1 + eps e^-p), the exp_norm profile's formula.
    "mono_exp": exp_norm_delta,
}


def _dist_to_level(p1: float, p2: float, k: float, half: float) -> float:
    """Distance from (p1, p2) to {x in [-half, half]^2 : x1 x2 = k}."""
    if k == 0.0:
        return min(abs(p1), abs(p2))
    if abs(k) > half * half:
        return math.inf
    # Branches x2 = k / x1 with |x1| in [|k|/half, half].  Interior minima
    # of the squared distance are roots of t^4 - p1 t^3 + p2 k t - k^2.
    t_min = abs(k) / half
    cands = [t_min, half, -t_min, -half]
    for r in np.roots([1.0, -p1, 0.0, p2 * k, -k * k]):
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real)) and t_min <= abs(r.real) <= half:
            cands.append(float(r.real))
    return min(math.hypot(t - p1, k / t - p2) for t in cands)


def product_delta(p1: float, p2: float, eps: float, half: float = BOX_HALF) -> float:
    """Exact delta of f = x1*x2 on [-half, half]^2 at (p1, p2)."""
    c = p1 * p2
    return min(_dist_to_level(p1, p2, c + eps, half), _dist_to_level(p1, p2, c - eps, half))


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------

@dataclass
class Item:
    """One call into deltamax and what its output must match."""

    kind: str
    call: Callable[[], object]
    ref: object
    arg: float = 0.0                    # |p| or ||p||, for the exact-backend tolerance
    point: tuple[float, ...] = ()       # ray_nd base point, for the witness check
    eps: float = 0.0


@dataclass
class Check:
    """Outcome of checking one pass's outputs against the references."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.wrong


def _latin_hypercube(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0,1)^dims with one point in each of n equal strata of
    every coordinate: a seed changes which inputs are drawn, not how they
    spread, so per-seed latency percentiles stay comparable (ray_nd
    latency follows eps most of all)."""
    strata = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (strata + rng.random((n, dims))) / n


def _log_eps(u: np.ndarray) -> np.ndarray:
    return np.exp(math.log(EPS_LO) + u * math.log(EPS_HI / EPS_LO))


def point_query_items(dm, seed: int) -> list[Item]:
    """~1000 cheap 1-d/radial/monotone queries and 100 ray_nd queries, mixed."""
    rng = np.random.default_rng(seed)
    items: list[Item] = []
    for kind in CHEAP_KINDS:
        u = _latin_hypercube(rng, CHEAP_PER_KIND, 3)
        eps_all = _log_eps(u[:, 1])
        if kind == "mono_exp":
            fn = dm.Monotone1DFn(np.exp, (-math.inf, math.inf), True, "exp")
            dom = None
        else:
            entry = dm.catalog_lookup(kind)
            fn, dom = entry.function, entry.domain
        ref_fn = CLOSED_FORMS[kind]
        for (u0, _u1, u2), eps in zip(u, eps_all):
            eps = float(eps)
            if fn.dimension == 1:
                p = float(-P_MAX + 2.0 * P_MAX * u0)
                arg, point = p, p
            else:
                t = R_MIN + (P_MAX - R_MIN) * u0
                theta = 2.0 * math.pi * u2
                coords = (t * math.cos(theta), t * math.sin(theta))
                arg = math.sqrt(coords[0] * coords[0] + coords[1] * coords[1])
                point = dm.Point(coords)
            items.append(Item(kind, _bind(dm, fn, dom, point, eps, None),
                              ref_fn(arg, eps), abs(arg)))

    f = dm.ExpressionFn.parse("x1*x2")
    box = dm.DomainSpec.box((-BOX_HALF, -BOX_HALF), (BOX_HALF, BOX_HALF))
    for u0, u1, u2 in _latin_hypercube(rng, RAY_QUERIES, 3):
        p1 = float(-BOX_HALF + 2.0 * BOX_HALF * u0)
        p2 = float(-BOX_HALF + 2.0 * BOX_HALF * u1)
        eps = float(_log_eps(np.asarray(u2)))
        items.append(Item("ray_nd", _bind(dm, f, box, dm.Point((p1, p2)), eps, RAY_DIRECTIONS),
                          product_delta(p1, p2, eps), point=(p1, p2), eps=eps))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def _bind(dm, fn, dom, point, eps, directions):
    if directions is None:
        return lambda: dm.compute_delta(fn, dom, point, eps)
    return lambda: dm.compute_delta(fn, dom, point, eps, directions=directions)


def field_items(dm, seed: int) -> list[Item]:
    """The single infimum_delta call of field_nd; the seed does not enter."""
    f = dm.ExpressionFn.parse("x1*x2")
    box = dm.DomainSpec.box((-BOX_HALF, -BOX_HALF), (BOX_HALF, BOX_HALF))
    schedule = [(box, FIELD_RESOLUTION)]
    return [Item("field", lambda: dm.infimum_delta(f, box, FIELD_EPS, schedule=schedule),
                 CORNER_DELTA)]


def uc_items(dm, seed: int) -> list[Item]:
    """The two uc_verdict calls of uc_1d, in a seeded order."""
    cases = {
        "sqrt(x)": dm.DomainSpec.half_line(0.0),
        "sin(1/x)": dm.DomainSpec.interval(0.0, 1.0, open_lo=True),
    }
    items = []
    for source, dom in cases.items():
        fn = dm.ExpressionFn.parse(source)
        items.append(Item(source, _bind_uc(dm, fn, dom), UC_EXPECTED[source]))
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def _bind_uc(dm, fn, dom):
    return lambda: dm.uc_verdict(fn, dom, eps_grid=[UC_EPS])


BUILDERS = {"point_queries": point_query_items, "field_nd": field_items, "uc_1d": uc_items}


# ---------------------------------------------------------------------------
# Running and checking
# ---------------------------------------------------------------------------

def run_item(item: Item):
    """Call the item; any exception becomes its output and counts as failed."""
    try:
        return item.call()
    except Exception as exc:  # a failed item must not end the run
        return exc


def summary(out) -> tuple:
    """What a pass's output is compared on between untraced and traced runs."""
    if isinstance(out, BaseException):
        return (type(out).__name__, str(out))
    if hasattr(out, "certified_lower"):
        return (out.value, out.certified_lower, out.certified_upper, out.backend)
    if hasattr(out, "records"):
        return tuple((r.inf_delta, r.argmin.coords if r.argmin else None, r.skipped)
                     for r in out.records)
    return (out.kind.value, out.lower_bound,
            len(out.witnesses.pairs) if out.witnesses is not None else 0)


def check_point_queries(items, outputs) -> Check:
    chk = Check(attempted=len(items))
    violations = 0
    closed_errs = []
    ray_errs = []
    for item, out in zip(items, outputs):
        if isinstance(out, BaseException) or math.isnan(out.value):
            chk.failed += 1
            continue
        ref = item.ref
        if not out.certified_lower <= ref <= out.certified_upper:
            violations += 1
        err = (out.value - ref) / ref
        if item.kind == "ray_nd":
            ray_errs.append(err)
            ok = err >= -ROUNDING and _on_product_preimage(item, out)
        else:
            closed_errs.append(abs(err))
            ok = abs(out.value - ref) <= EXACT_REL_TOL * ref + EXACT_ABS_TOL * max(1.0, item.arg)
        if not ok:
            chk.wrong.append(f"{item.kind}: value {out.value!r}, reference {ref!r}")
    checked = chk.attempted - chk.failed
    chk.quality = {
        "bracket_violations": violations,
        "bracket_violation_rate": violations / checked if checked else math.nan,
        "max_rel_err": max(closed_errs, default=math.nan),
        "ray_nd_max_rel_err": max(ray_errs, default=math.nan),
    }
    return chk


def _on_product_preimage(item: Item, out) -> bool:
    """The ray_nd witness lies in the box, at distance value from p, with
    |w1 w2 - p1 p2| = eps: value is then a genuine crossing distance."""
    if out.witness is None:
        return False
    (p1, p2), (w1, w2) = item.point, out.witness.coords
    if max(abs(w1), abs(w2)) > BOX_HALF:
        return False
    h = abs(abs(w1 * w2 - p1 * p2) - item.eps)
    return (abs(math.hypot(w1 - p1, w2 - p2) - out.value) <= ROUNDING * out.value
            and h <= WITNESS_H_TOL)


def check_field(items, outputs) -> Check:
    chk = Check(attempted=len(items))
    corners = {(sx * BOX_HALF, sy * BOX_HALF) for sx in (-1, 1) for sy in (-1, 1)}
    errs = []
    for item, out in zip(items, outputs):
        if isinstance(out, BaseException) or len(out.records) != 1:
            chk.failed += 1
            continue
        rec = out.records[0]
        if not math.isfinite(rec.inf_delta):
            chk.failed += 1
            continue
        err = (rec.inf_delta - item.ref) / item.ref
        errs.append(err)
        if not -ROUNDING <= err <= FIELD_REL_TOL:
            chk.wrong.append(f"stage inf {rec.inf_delta!r}, corner delta {item.ref!r}")
        if rec.argmin is None or tuple(rec.argmin.coords) not in corners:
            chk.wrong.append(f"stage argmin {rec.argmin} is not a corner")
        if rec.skipped:
            chk.wrong.append(f"{rec.skipped} grid point(s) skipped")
    chk.quality = {"inf_rel_err": max(errs, key=abs, default=math.nan)}
    return chk


def check_uc(items, outputs) -> Check:
    chk = Check(attempted=len(items))
    mismatches = 0
    for item, out in zip(items, outputs):
        if isinstance(out, BaseException):
            chk.failed += 1
            continue
        if out.kind.value != item.ref:
            mismatches += 1
            chk.wrong.append(f"{item.kind}: verdict {out.kind.value}, expected {item.ref}")
    chk.quality = {"verdict_mismatches": mismatches}
    return chk


CHECKERS = {"point_queries": check_point_queries, "field_nd": check_field, "uc_1d": check_uc}
