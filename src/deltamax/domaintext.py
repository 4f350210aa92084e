"""Flat `shape:param:param[:flags]` domain grammar used by the CLI and
the catalog manifest.

Examples:

    interval:-inf:inf
    interval:0:5:open-left
    interval:0:inf
    box:-1,-1:1,1
    ball:0:5:dim=2
    annulus:1:inf:dim=2
    annulus:0:1:open-inner:dim=2

Flags: open-left, open-right (box-like; apply to every axis),
open-inner, open-outer, closed-outer (radial), dim=N (N >= 1),
norm=l1|l2|linf.  format_domain prints a 1-d box as the interval and a
closed zero-radius annulus as the ball that they equal.
"""

from __future__ import annotations

import math

from .errors import DomainParseError
from .model import DomainSpec, NormTag

_NORMS = {"l1": NormTag.L1, "l2": NormTag.L2, "linf": NormTag.LINF}


def _num(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainParseError(f"bad {what} {text!r}") from None


def _numlist(text: str, what: str) -> tuple[float, ...]:
    return tuple(_num(part, what) for part in text.split(","))


def parse_domain(text: str, default_dim: int | None = None) -> DomainSpec:
    parts = [p.strip() for p in text.split(":")]
    if not parts or not parts[0]:
        raise DomainParseError("empty domain text")
    shape, params = parts[0], parts[1:]

    flags = {"open-left": False, "open-right": False, "open-inner": False,
             "open-outer": False, "closed-outer": False}
    dim = default_dim
    norm = NormTag.L2
    positional: list[str] = []
    for tok in params:
        if tok in flags:
            flags[tok] = True
        elif tok.startswith("dim="):
            if not (tok[4:].isdecimal() and int(tok[4:]) >= 1):
                raise DomainParseError(f"bad dimension flag {tok!r}")
            dim = int(tok[4:])
        elif tok.startswith("norm="):
            name = tok[5:].lower()
            if name not in _NORMS:
                raise DomainParseError(f"unknown norm {tok[5:]!r}")
            norm = _NORMS[name]
        else:
            positional.append(tok)

    def need(n: int):
        if len(positional) != n:
            raise DomainParseError(
                f"{shape} takes {n} parameter(s), got {len(positional)}")

    if shape == "interval":
        need(2)
        return DomainSpec.interval(_num(positional[0], "bound"),
                                   _num(positional[1], "bound"),
                                   open_lo=flags["open-left"],
                                   open_hi=flags["open-right"], norm=norm)
    if shape == "half_line":
        need(1)
        return DomainSpec.half_line(_num(positional[0], "bound"),
                                    open_lo=flags["open-left"], norm=norm)
    if shape == "box":
        need(2)
        lo = _numlist(positional[0], "bound")
        hi = _numlist(positional[1], "bound")
        if len(lo) != len(hi):
            raise DomainParseError("box lo/hi lengths differ")
        d = len(lo)
        return DomainSpec.box(lo, hi,
                              open_lo=(flags["open-left"],) * d,
                              open_hi=(flags["open-right"],) * d, norm=norm)
    if shape == "ball":
        if len(positional) == 1:
            center = None
            radius = _num(positional[0], "radius")
        else:
            need(2)
            center = _numlist(positional[0], "center")
            radius = _num(positional[1], "radius")
        if center is None:
            center = (0.0,) * (2 if dim is None else dim)
        elif len(center) == 1 and dim is not None and dim > 1:
            center = center * dim
        return DomainSpec.ball(center, radius,
                               open_boundary=not flags["closed-outer"], norm=norm)
    if shape == "annulus":
        if len(positional) == 3:
            center = _numlist(positional.pop(0), "center")
        else:
            need(2)
            center = (0.0,) * (2 if dim is None else dim)
        return DomainSpec.annulus(center,
                                  _num(positional[0], "inner radius"),
                                  _num(positional[1], "outer radius"),
                                  open_inner=flags["open-inner"],
                                  open_outer=flags["open-outer"], norm=norm)
    raise DomainParseError(f"unknown shape {shape!r}")


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def format_domain(dom: DomainSpec) -> str:
    flags: list[str] = []
    if dom.norm is not NormTag.L2:
        flags.append(f"norm={dom.norm.value}")
    if not dom.is_radial:
        if dom.dimension == 1:
            a, b = dom.lo[0], dom.hi[0]
            if dom.open_lo[0]:
                flags.append("open-left")
            if dom.open_hi[0] and math.isfinite(b):
                flags.append("open-right")
            return ":".join(["interval", _fmt(a), _fmt(b)] + flags)
        if any(dom.open_lo):
            flags.append("open-left")
        if any(dom.open_hi):
            flags.append("open-right")
        lo = ",".join(_fmt(v) for v in dom.lo)
        hi = ",".join(_fmt(v) for v in dom.hi)
        return ":".join(["box", lo, hi] + flags)
    flags.append(f"dim={dom.dimension}")
    if dom.is_ball:
        if not dom.open_outer and math.isfinite(dom.r_out):
            flags.append("closed-outer")
        center = ",".join(_fmt(v) for v in dom.center)
        return ":".join(["ball", center, _fmt(dom.r_out)] + flags)
    if dom.open_inner:
        flags.insert(0, "open-inner")
    if dom.open_outer and math.isfinite(dom.r_out):
        flags.insert(0, "open-outer")
    params = ["annulus", _fmt(dom.r_in), _fmt(dom.r_out)]
    if any(v != 0.0 for v in dom.center):
        params.insert(1, ",".join(_fmt(v) for v in dom.center))
    return ":".join(params + flags)
