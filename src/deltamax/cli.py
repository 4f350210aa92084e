"""Command-line front end.

Subcommands: delta (one delta(p, eps); --stats adds a `stat <key>
<value>` line per diagnostics entry), scan (CSV delta field sweep, one
delta_field call per eps, a row's error in its last column), inf (CSV
infimum trace), uc (uniform-continuity verdict), catalog (list or extend
the function catalog), certify (grid-oracle sandwich for one
delta, with a chosen grid step and window; every nD delta also runs the
oracle, inside delta_ray_nd, for its certified lower end).  Numbers print with
17 significant digits and identical invocations produce byte-identical
output.  The search tolerances are the constants of deltamax.search.

Exit codes: 0 success (and EvidenceUC for uc), 2 parse errors, invalid
arguments (a flag out of its range or given empty text is refused, never
read as absent) and a --load, --out or --trace file that cannot be
opened, 3 empty sphere preimage (the nonemptiness hypothesis fails),
4 domain and dimension errors (scan stops on a dimension error rather
than writing it into every row), 5 float-resolution limits (delta(p, eps)
is below the spacing of floats around p, or f(p) overflows),
10 EvidenceNotUC, 11 Inconclusive.  Each error's code is its class's
`exit_code` (deltamax.errors); any other exception is a program fault
and exits with a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import catalog as catalog_mod, errors
from .delta import compute_delta, delta_field
from .domaintext import format_domain, parse_domain
from .errors import DeltamaxError, InvalidArgument
from .model import DomainSpec, Point, require_positive
from .oracle import GridSpec, grid_delta_bounds
from .uc import Verdict, default_eps_grid, infimum_delta, stage_schedule, uc_verdict

EXIT_OK = 0
EXIT_PARSE = DeltamaxError.exit_code
EXIT_EMPTY_PREIMAGE = errors.EmptySpherePreimage.exit_code
EXIT_DOMAIN = errors.DomainViolation.exit_code
EXIT_RESOLUTION = errors.FloatResolutionLimit.exit_code
EXIT_NOT_UC = 10
EXIT_INCONCLUSIVE = 11

_GRAMMAR_HELP = """\
expression grammar:
  operators ^ (right-assoc, binds tighter than unary minus), unary -,
  * /, + -; builtins sin cos exp ln sqrt abs min(,) max(,) pow(,);
  variables x (1-d), x1..x8 (nD), r (= ||x||, makes the function radial).
  No implicit multiplication: write 2*x, not 2x.  -x^2 means -(x^2).

domain grammar (shape:param[:flags]):
  interval:a:b [:open-left][:open-right]      bounds may be -inf/inf
  half_line:a [:open-left]
  box:lo1,lo2,..:hi1,hi2,..
  ball:center,..:radius [:closed-outer][:dim=N]
  annulus:r_in:r_out [:open-inner][:open-outer][:dim=N]
  all shapes accept :norm=l1|l2|linf (default l2)
"""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_point(p: Point | None) -> str:
    if p is None:
        return ""
    return ";".join(_fmt(c) for c in p.coords)


def _add_common(sp: argparse.ArgumentParser, rays: bool = False):
    """The flags of a subcommand that solves a problem on (--fn, --domain);
    `rays` adds the nD estimator's ray count, --directions."""
    sp.add_argument("--fn", required=True, help="catalog name or expression source")
    sp.add_argument("--domain", help="domain text (default: the function's natural domain)")
    sp.add_argument("--dim", type=int, help="dimension for radial/nD functions")
    if rays:
        sp.add_argument("--directions", type=int, default=64,
                        help="ray count for the nD estimator")
    _add_out(sp)


def _add_out(sp: argparse.ArgumentParser):
    sp.add_argument("--out", help="write data output to this file instead of stdout")


def _resolve(args):
    """(f, dom): --domain when given, else f's natural domain."""
    if args.dim is not None and args.dim < 1:
        raise InvalidArgument(f"--dim must be at least 1, got {args.dim!r}")
    if getattr(args, "directions", 1) < 1:  # refused even where no ray is cast
        raise InvalidArgument(f"--directions must be at least 1, got {args.directions!r}")
    fn = catalog_mod.resolve_function(args.fn, dim=args.dim)
    if args.domain is not None:
        return fn, parse_domain(args.domain, default_dim=args.dim)
    return fn, fn.domain_hint()


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InvalidArgument(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _parse_point(text: str, dim: int) -> Point:
    coords = tuple(_floats(text, "--p"))
    if len(coords) == 1 and dim > 1:
        # scalar shorthand for a radial position along the first axis
        coords = coords + (0.0,) * (dim - 1)
    return Point(coords)


def _emit(args, text: str):
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_delta(args) -> int:
    fn, dom = _resolve(args)
    p = _parse_point(args.p, dom.dimension)
    res = compute_delta(fn, dom, p, args.eps, directions=args.directions)
    lines = [
        f"value {_fmt(res.value)}",
        f"witness {_fmt_point(res.witness)}",
        f"certified_lower {_fmt(res.certified_lower)}",
        f"certified_upper {_fmt(res.certified_upper)}",
        f"backend {res.backend}",
        f"one_sided {str(res.one_sided).lower()}",
    ]
    if args.stats:
        lines += [f"stat {key} {_fmt(v) if isinstance(v, float) else v}"
                  for key, v in res.diagnostics.items()]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    fn, dom = _resolve(args)
    if args.eps_grid is not None:
        eps_values = sorted(_floats(args.eps_grid, "--eps-grid"))
    elif args.eps is not None:
        eps_values = [args.eps]
    else:
        raise InvalidArgument("scan needs --eps or --eps-grid")
    for eps in eps_values:  # a bad eps fails the command before any row
        require_positive("eps", eps)
    if args.p_count < 1:
        raise InvalidArgument(f"--p-count must be at least 1, got {args.p_count!r}")
    with np.errstate(all="ignore"):
        ps = np.linspace(args.p_min, args.p_max, args.p_count)
    if not np.isfinite(ps).all():
        raise InvalidArgument("--p-min and --p-max must span a finite grid, "
                              f"got {args.p_min!r} to {args.p_max!r}")
    rows = ["p,eps,delta,lower,upper,backend,error"]
    pts = [(float(p),) + (0.0,) * (dom.dimension - 1) for p in ps]
    for eps in eps_values:
        for pt, res in zip(pts, delta_field(fn, dom, pts, eps, directions=args.directions)):
            if isinstance(res, DeltamaxError):
                msg = str(res).replace(",", ";").replace("\n", " ")
                cells = ["nan", "nan", "nan", "", msg]
            else:
                cells = [_fmt(res.value), _fmt(res.certified_lower),
                         _fmt(res.certified_upper), res.backend, ""]
            rows.append(",".join([_fmt(pt[0]), _fmt(eps), *cells]))
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def _trace_csv(traces) -> str:
    """The infimum traces as CSV, one row per stage record."""
    rows = ["eps,level,window,resolution,inf_delta,argmin,skipped"]
    for trace in traces:
        for rec in trace.records:
            rows.append(",".join([
                _fmt(trace.eps), str(rec.level), format_domain(rec.window),
                str(rec.resolution), _fmt(rec.inf_delta),
                _fmt_point(rec.argmin), str(rec.skipped)]))
    return "\n".join(rows) + "\n"


def cmd_inf(args) -> int:
    fn, dom = _resolve(args)
    schedule = stage_schedule(fn, dom, args.stages, args.resolution)
    _emit(args, _trace_csv([infimum_delta(fn, dom, args.eps, schedule=schedule)]))
    return EXIT_OK


def cmd_uc(args) -> int:
    fn, dom = _resolve(args)
    if args.eps_grid is not None:
        eps_grid = _floats(args.eps_grid, "--eps-grid")
    else:
        beta, eps_grid = default_eps_grid(fn, dom)
        print(f"eps grid from sampled beta={_fmt(beta)} (heuristic): "
              + ",".join(_fmt(e) for e in eps_grid), file=sys.stderr)
    verdict = uc_verdict(fn, dom, eps_grid=eps_grid, count=args.count)

    lines = [f"verdict {verdict.kind.value}",
             "eps_tested " + ",".join(_fmt(e) for e in verdict.eps_tested)]
    if verdict.kind is Verdict.EVIDENCE_UC:
        lines.append(f"delta_floor {_fmt(verdict.lower_bound)}")
        lines.append("note floor is numerical evidence from sampled windows, not a proof")
    elif verdict.kind is Verdict.EVIDENCE_NOT_UC:
        w = verdict.witnesses
        lines.append(f"witness_eps {_fmt(w.eps0)}")
        lines.append("witness_pairs x | y | distance")
        for (x, y), d in zip(w.pairs, w.distances):
            lines.append(f"  {_fmt_point(x)} | {_fmt_point(y)} | {_fmt(d)}")
        lines.append("note distances halve while |f(x)-f(y)| stays at eps; "
                     "evidence, not a proof")
    else:
        lines.append(f"reason {verdict.reason}")
    _emit(args, "\n".join(lines) + "\n")

    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(_trace_csv(verdict.traces))

    if verdict.kind is Verdict.EVIDENCE_NOT_UC:
        return EXIT_NOT_UC
    if verdict.kind is Verdict.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.load is not None:
        with open(args.load, "r", encoding="utf-8") as fh:
            catalog_mod.load_manifest(fh.read())
    entries = [catalog_mod.catalog_lookup(name) for name in catalog_mod.catalog_names()]
    _emit(args, catalog_mod.serialize_manifest(entries))
    return EXIT_OK


def cmd_certify(args) -> int:
    """The grid-oracle sandwich of one delta: the oracle's bounds on a box
    around p (half-width --window-radius, default 4x the value) at step
    --h, the grid slack (one cell diagonal), and whether lower <= value
    <= upper + slack."""
    fn, dom = _resolve(args)
    if args.window_radius is not None:
        require_positive("window radius", args.window_radius)
    p = _parse_point(args.p, dom.dimension)
    res = compute_delta(fn, dom, p, args.eps, directions=args.directions)
    radius = 4.0 * res.value if args.window_radius is None else args.window_radius
    h = 2.0 * radius / 4096.0 if args.h is None else args.h
    window = DomainSpec.box(p.as_array() - radius, p.as_array() + radius, norm=dom.norm)
    lo, up = grid_delta_bounds(fn, dom, p, args.eps, GridSpec(h=h, window=window),
                               require_radius=args.window_radius)
    slack = h * math.sqrt(dom.dimension)
    lines = [f"value {_fmt(res.value)}", f"backend {res.backend}",
             f"oracle_lower {_fmt(lo)}", f"oracle_upper {_fmt(up)}",
             f"oracle_step {_fmt(h)}", f"grid_slack {_fmt(slack)}",
             f"sandwich_ok {str(lo <= res.value <= up + slack).lower()}"]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="deltamax",
        description="Greatest delta-epsilon numbers and uniform-continuity evidence.",
        epilog=_GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("delta", help="compute one delta(p, eps)")
    _add_common(sp, rays=True)
    sp.add_argument("--p", required=True, help="point (comma-separated coordinates)")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--stats", action="store_true",
                    help="also print each diagnostics entry as 'stat <key> <value>'")
    sp.set_defaults(func=cmd_delta)

    sp = sub.add_parser("scan", help="CSV sweep of the delta field")
    _add_common(sp, rays=True)
    sp.add_argument("--p-min", type=float, required=True)
    sp.add_argument("--p-max", type=float, required=True)
    sp.add_argument("--p-count", type=int, required=True)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--eps-grid", help="comma-separated eps values")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("inf", help="CSV infimum trace of delta(., eps)")
    _add_common(sp)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--stages", type=int, default=21,
                    help="windows toward an unbounded or open end of a line "
                         "(a compact line and an nD problem pick their own count)")
    sp.add_argument("--resolution", type=int, default=2048)
    sp.set_defaults(func=cmd_inf)

    sp = sub.add_parser("uc", help="uniform-continuity verdict")
    _add_common(sp)
    sp.add_argument("--eps-grid", help="comma-separated eps values "
                                       "(default: beta/8, beta/4, beta/2)")
    sp.add_argument("--count", type=int, default=8,
                    help="witness pairs required for EvidenceNotUC")
    sp.add_argument("--trace", help="write the infimum traces to this CSV file")
    sp.set_defaults(func=cmd_uc)

    sp = sub.add_parser("catalog", help="list the function catalog as a manifest")
    _add_out(sp)
    sp.add_argument("--load", help="register entries from a manifest file first")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("certify", help="oracle sandwich around one delta")
    _add_common(sp, rays=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--h", type=float, help="oracle grid step")
    sp.add_argument("--window-radius", type=float,
                    help="oracle window radius (default 4x the estimate)")
    sp.set_defaults(func=cmd_certify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the parse-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DeltamaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an unopenable --load, --out or --trace file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
