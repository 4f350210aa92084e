"""Brute-force reference implementation.

Exhaustive grid enumeration of the delta definition: a violator is any
grid point x with |f(x) - f(p)| >= eps, and the nearest violator bounds
delta(p, eps) from above, while a violator-free ball bounds it from
below (up to one grid cell of slack).  Used by delta_ray_nd for the
certified lower end of every nD delta, by the tests to check the search
backends, and by the CLI certify subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidDomain, WindowTooSmall
from .model import (
    DomainSpec,
    FunctionSpec,
    Point,
    _as_point,
    _quiet,
    array_evaluator,
    lattice,
    norm_of_rows,
    point_in,
    require_positive,
    value_at,
)

_MAX_GRID_POINTS = 10 ** 8


@dataclass(frozen=True)
class GridSpec:
    """Step size plus a bounded window to enumerate."""

    h: float
    window: DomainSpec

    def __post_init__(self):
        require_positive("grid step", self.h)
        if not self.window.is_bounded:
            raise InvalidDomain("oracle windows must be bounded")
        lo, hi = self.window.bounding_box()
        count = 1.0
        for a, b in zip(lo, hi):
            count *= math.floor((b - a) / self.h) + 1
        if count > _MAX_GRID_POINTS:
            raise InvalidDomain(
                f"grid would have ~{count:.2e} points (limit {_MAX_GRID_POINTS:.0e})")

    @classmethod
    def around(cls, p, radius: float, points_per_axis: int,
               dim: int | None = None) -> "GridSpec":
        """A box window of the given radius centered at p; a given dim
        must be p's (DimensionMismatch otherwise)."""
        arr = _as_point(p).as_array()
        if dim not in (None, arr.size):
            raise DimensionMismatch(f"a {arr.size}-d point for a {dim}-d grid")
        window = DomainSpec.box(arr - radius, arr + radius)
        return cls(h=2.0 * radius / max(points_per_axis - 1, 1), window=window)

    def points(self) -> np.ndarray:
        """Row-major lattice covering the window (before domain masking).

        Accumulated rounding may push the last lattice point past the
        bound, so each axis is clamped to keep the endpoint inside.
        """
        lo, hi = self.window.bounding_box()
        axes = []
        for a, b in zip(lo, hi):
            n = int(math.floor((b - a) / self.h + 1e-9)) + 1
            axes.append(np.minimum(a + self.h * np.arange(n), b))
        return lattice(axes)


def _masked_grid(dom: DomainSpec, g: GridSpec) -> np.ndarray:
    pts = g.points()
    mask = g.window.contains_rows(pts) & dom.contains_rows(pts)
    return pts[mask]


@_quiet
def grid_delta_bounds(f: FunctionSpec, dom: DomainSpec, p, eps: float,
                      g: GridSpec, require_radius: float | None = None
                      ) -> tuple[float, float]:
    """(lower, upper) bracket for delta(p, eps) by direct enumeration.

    upper = min distance from p to a grid violator (inf when the window
    holds none); lower subtracts one grid-cell diagonal and is clamped to
    the radius of the window actually inspected around p.  eps and p pass
    the model gates and f(p) is read strictly before the grid is built.
    """
    require_positive("eps", eps)
    pt = point_in(dom, p)
    fp = value_at(f, pt, dom.norm)
    p_arr = pt.as_array()

    pts = _masked_grid(dom, g)
    if pts.shape[0] == 0:
        raise WindowTooSmall("the oracle window misses the domain entirely")
    fv = array_evaluator(f, norm=dom.norm)(pts)

    viol = (np.abs(fv - fp) >= eps) & ~np.isnan(fv)
    dists = norm_of_rows(dom.norm, pts - p_arr)

    # Radius around p inside which the window itself has full coverage.
    wlo, whi = g.window.bounding_box()
    inscribed = float(min(np.min(p_arr - wlo), np.min(whi - p_arr)))

    slack = g.h * math.sqrt(pt.dim)
    if not np.any(viol):
        if require_radius is not None and inscribed < require_radius:
            raise WindowTooSmall(
                f"no violator found but the window only certifies radius "
                f"{inscribed}, below the requested {require_radius}")
        return max(inscribed - slack, 0.0), math.inf
    upper = float(np.min(dists[viol]))
    lower = max(min(upper, inscribed) - slack, 0.0)
    return lower, upper


def _nearest_violators(f_arr, dom, pts, vpts, eps, chunk):
    """Per row of `pts`: distance to the nearest violator among `vpts`."""
    dim = pts.shape[1]
    fv_p, fv_v = f_arr(pts), f_arr(vpts)
    out = np.full(pts.shape[0], math.inf)
    for start in range(0, pts.shape[0], chunk):
        rows = slice(start, min(start + chunk, pts.shape[0]))
        viol = np.abs(fv_p[rows, None] - fv_v[None, :]) >= eps
        viol &= ~np.isnan(fv_v)[None, :]
        diff = pts[rows][:, None, :] - vpts[None, :, :]
        dists = norm_of_rows(dom.norm, diff.reshape(-1, dim)).reshape(viol.shape)
        dists[~viol] = math.inf
        out[rows] = dists.min(axis=1)
    return out


@_quiet
def brute_force_inf(f: FunctionSpec, dom: DomainSpec, eps: float, g: GridSpec,
                    chunk: int = 512) -> tuple[float, Point]:
    """Minimum over grid points p of the nearest-violator distance.

    Realizes the quantity whose vanishing characterizes the failure of
    uniform continuity.  Two passes: the first estimates the infimum from
    violators inside the window, the second pads the violator grid by 4x
    that estimate so points near the window edge see the domain violators
    just outside.  Deterministic row-major argmin on ties.
    """
    require_positive("eps", eps)
    f_arr = array_evaluator(f, norm=dom.norm)
    pts = _masked_grid(dom, g)
    n = pts.shape[0]
    if n == 0:
        raise WindowTooSmall("the oracle window misses the domain entirely")
    wlo, whi = g.window.bounding_box()
    span = float(np.max(whi - wlo))

    def violator_grid(pad: float) -> np.ndarray:
        padded = DomainSpec.box(wlo - pad, whi + pad, norm=dom.norm)
        return _masked_grid(dom, GridSpec(h=g.h, window=padded))

    pad = 0.0
    upper = _nearest_violators(f_arr, dom, pts, pts, eps, chunk)
    best = float(np.min(upper))
    if not math.isfinite(best):
        # All violators may sit in the domain outside the window.
        for pad in (0.5 * span, span, 2.0 * span, 4.0 * span):
            upper = _nearest_violators(f_arr, dom, pts, violator_grid(pad), eps, chunk)
            best = float(np.min(upper))
            if math.isfinite(best):
                break
        else:
            raise WindowTooSmall(
                f"no violator at eps={eps} within {4 * span} of the window; "
                "enlarge it or lower eps")

    # Second pass: points near the window edge must see the domain
    # violators just outside it.
    need = 4.0 * best + 2.0 * g.h
    if need > pad:
        upper = _nearest_violators(f_arr, dom, pts, violator_grid(need), eps, chunk)
    best_idx = int(np.argmin(upper))
    return float(upper[best_idx]), Point(tuple(pts[best_idx]))
