"""In-memory spans around deltamax's public functions, and the per-layer
metrics derived from them.

A traced pass installs wrappers under every ``deltamax`` module name that
binds a target function (``delta`` and ``uc`` import ``line_field``,
``scan_side``, ``array_evaluator`` and friends by name, so patching only
the defining module would miss their calls).  Each wrapper appends one
span ``[name, start_ns, end_ns, parent, work, tag]`` to a flat list; the
parent is the index of the enclosing span, so the list is a forest in
start order.  Nothing is written until the pass is over.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import defaultdict

# Span names.  The root span wraps one workload item; everything the
# program does outside a wrapped function is self time of its nearest
# wrapped ancestor.
ROOT = "bench.item"
EXPR = "expr.eval_ast_array"
EVALUATOR = "model.evaluator"
CONTAINS = "model.contains_rows"
SCAN_SIDE = "search.scan_side"
LINE_FIELD = "search.line_field"
COMPUTE_DELTA = "delta.compute_delta"
RAY_ND = "delta.delta_ray_nd"
ORACLE = "oracle.grid_delta_bounds"
INFIMUM = "uc.infimum_delta"
WITNESS = "uc.witness_search"

BACKENDS = ("monotone", "levelset1d", "radial", "ray_nd")

# Every per-layer metric a traced run reports, with its unit and
# direction; BENCHMARK.json lists the same names, and README.md which
# end-to-end metric each should move.
LAYER_METRICS = (
    ("expr.eval_ast_array.calls", "count", "lower"),
    ("expr.eval_ast_array.points", "count", "lower"),
    ("expr.eval_ast_array.self_s", "s", "lower"),
    ("model.evaluator.calls", "count", "lower"),
    ("model.evaluator.points", "count", "lower"),
    ("model.evaluator.self_s", "s", "lower"),
    ("model.contains_rows.calls", "count", "lower"),
    ("model.contains_rows.rows", "count", "lower"),
    ("model.contains_rows.self_s", "s", "lower"),
    ("model.Point.constructed", "count", "lower"),
    ("search.scan_side.calls", "count", "lower"),
    ("search.scan_side.columns", "count", "lower"),
    ("search.scan_side.self_s", "s", "lower"),
    ("search.line_field.calls", "count", "lower"),
    ("search.line_field.points", "count", "lower"),
    ("search.line_field.self_s", "s", "lower"),
    ("search.points_per_delta", "points/delta", "lower"),
    ("delta.compute_delta.calls", "count", "lower"),
    ("delta.compute_delta.self_s", "s", "lower"),
    *((f"delta.backend.{b}.calls", "count", "lower") for b in BACKENDS),
    ("delta.delta_ray_nd.self_s", "s", "lower"),
    ("oracle.grid_delta_bounds.calls", "count", "lower"),
    ("oracle.grid_delta_bounds.grid_points", "count", "lower"),
    ("oracle.grid_delta_bounds.self_s", "s", "lower"),
    ("uc.infimum_delta.self_s", "s", "lower"),
    ("uc.witness_search.self_s", "s", "lower"),
    ("uc.stages", "count", "lower"),
    ("uc.witness_pairs", "count", "higher"),
    ("uc.skipped_share", "share", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_MARK = "__perfbench_wrapped__"


def _rows(arr) -> int:
    shape = getattr(arr, "shape", ())
    return int(shape[0]) if shape else 1


def _grid_points(spec) -> int:
    """Lattice points of an oracle GridSpec window at its step (before
    domain masking), counted the way GridSpec.points() lays them out."""
    lo, hi = spec.window.bounding_box()
    count = 1
    for a, b in zip(lo, hi):
        count *= int(math.floor((b - a) / spec.h + 1e-9)) + 1
    return count


def _env_points(env) -> int:
    return max((getattr(v, "size", 1) for v in env.values()), default=1)


def _package_modules():
    """(name, module) of every loaded deltamax module."""
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "deltamax" or name.startswith("deltamax."))]


def _pairs(result) -> int:
    return len(result.pairs) if result is not None else 0


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding.

    ``work`` is the size of the call (points, columns, rows, ...); ``tag``
    is what the call produced that a metric needs (backend name, number
    of stages, skipped points, witness pairs).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[object] = []
        self.points_constructed = 0

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn, work=None, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   work(*args, **kwargs) if work is not None else 0, None]
            stack.append(len(spans))
            spans.append(rec)
            result = error = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if tag is not None:
                    rec[5] = tag(result, error)

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def root(self, fn):
        """Run ``fn()`` under a root span (one workload item)."""
        return self.wrap(ROOT, fn)()

    # -- installation --------------------------------------------------

    def _replace(self, original, wrapper):
        """Rebind ``original`` to ``wrapper`` in every loaded deltamax module."""
        hits = 0
        for _name, mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no deltamax module binds {original!r}")
        self._originals.append(original)

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the public functions of each deltamax layer."""
        from deltamax import delta, expr, model, oracle, search, uc

        wrap = self.wrap
        self._replace(expr.eval_ast_array,
                      wrap(EXPR, expr.eval_ast_array, work=lambda a, env: _env_points(env)))

        original_factory = model.array_evaluator

        def array_evaluator(*args, **kwargs):
            return wrap(EVALUATOR, original_factory(*args, **kwargs),
                        work=lambda arr: _rows(arr))

        setattr(array_evaluator, _MARK, original_factory)
        self._replace(original_factory, array_evaluator)

        self._patch_attr(model.DomainSpec, "contains_rows",
                         wrap(CONTAINS, model.DomainSpec.contains_rows,
                              work=lambda self_, arr: _rows(arr)))

        post_init = model.Point.__post_init__

        def counted_post_init(point):
            self.points_constructed += 1
            post_init(point)

        setattr(counted_post_init, _MARK, post_init)
        self._patch_attr(model.Point, "__post_init__", counted_post_init)

        self._replace(search.scan_side,
                      wrap(SCAN_SIDE, search.scan_side,
                           work=lambda eval_at, fp, *a, **k: int(fp.size)))
        self._replace(search.line_field,
                      wrap(LINE_FIELD, search.line_field,
                           work=lambda f_arr, ps, *a, **k: int(getattr(ps, "size", 1))))
        self._replace(delta.compute_delta,
                      wrap(COMPUTE_DELTA, delta.compute_delta,
                           tag=lambda r, exc: r.backend if r is not None else None))
        self._replace(delta.delta_ray_nd, wrap(RAY_ND, delta.delta_ray_nd))
        self._replace(oracle.grid_delta_bounds,
                      wrap(ORACLE, oracle.grid_delta_bounds,
                           work=lambda f, dom, p, eps, g, *a, **k: _grid_points(g)))
        self._replace(uc.infimum_delta,
                      wrap(INFIMUM, uc.infimum_delta,
                           tag=lambda r, exc: (len(r.records), sum(x.skipped for x in r.records))
                           if r is not None else (0, 0)))
        self._replace(uc.witness_search,
                      wrap(WITNESS, uc.witness_search,
                           tag=lambda r, exc: _pairs(r) if exc is None
                           else _pairs(getattr(exc, "pairs", None))))
        stale = [f"{name}.{attr}" for name, mod in _package_modules()
                 for attr, value in vars(mod).items()
                 if any(value is original for original in self._originals)]
        if stale:
            raise RuntimeError(f"unwrapped bindings left: {stale}")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _wrapped_bindings() -> list[str]:
    """Names in deltamax modules (and their classes) bound to a wrapper."""
    found = []
    for mod_name, mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, _MARK):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found


def assert_unwrapped() -> None:
    """Raise unless the package runs its original, unwrapped functions."""
    found = _wrapped_bindings()
    if found:
        raise RuntimeError(f"tracing wrappers still installed: {found}")


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it covered by its children.

    Children may overlap each other (not in a single-threaded run, but
    the arithmetic does not assume it), so the covered part is the union
    of the child intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

_DELTA_PRODUCERS = (COMPUTE_DELTA, LINE_FIELD)


def layer_metrics(spans, points_constructed: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    Evaluator calls and points count only outermost evaluator calls (a
    radial evaluator calls its profile's evaluator).  A delta value is
    one compute_delta result, or one point of a line_field call that no
    compute_delta encloses; search.points_per_delta divides evaluator
    points by those.  uc.skipped_share divides the points infimum_delta
    skipped by the delta values it asked for.
    """
    selfs = self_times(spans)
    n = len(spans)
    in_eval = [False] * n
    in_producer = [False] * n
    uc_owner = [-1] * n
    for i, rec in enumerate(spans):
        parent = rec[3]
        if parent >= 0:
            pname = spans[parent][0]
            in_eval[i] = in_eval[parent] or pname == EVALUATOR
            in_producer[i] = in_producer[parent] or pname in _DELTA_PRODUCERS
            uc_owner[i] = parent if pname in (INFIMUM, WITNESS) else uc_owner[parent]

    m: dict[str, float] = defaultdict(float)
    backends = {b: 0 for b in BACKENDS}
    deltas = 0
    inf_deltas = 0
    for i, rec in enumerate(spans):
        name, work, tag = rec[0], rec[4], rec[5]
        m[f"{name}.self_ns"] += selfs[i]
        if name == EVALUATOR:
            if not in_eval[i]:
                m["model.evaluator.calls"] += 1
                m["model.evaluator.points"] += work
        elif name == EXPR:
            m["expr.eval_ast_array.calls"] += 1
            m["expr.eval_ast_array.points"] += work
        elif name == CONTAINS:
            m["model.contains_rows.calls"] += 1
            m["model.contains_rows.rows"] += work
        elif name == SCAN_SIDE:
            m["search.scan_side.calls"] += 1
            m["search.scan_side.columns"] += work
        elif name == LINE_FIELD:
            m["search.line_field.calls"] += 1
            m["search.line_field.points"] += work
        elif name == COMPUTE_DELTA:
            m["delta.compute_delta.calls"] += 1
            if tag in backends:
                backends[tag] += 1
        elif name == ORACLE:
            m["oracle.grid_delta_bounds.calls"] += 1
            m["oracle.grid_delta_bounds.grid_points"] += work
        elif name == INFIMUM:
            m["uc.stages"] += tag[0]
            m["uc.skipped"] += tag[1]
        elif name == WITNESS:
            m["uc.witness_pairs"] += tag
        if name in _DELTA_PRODUCERS and not in_producer[i]:
            made = 1 if name == COMPUTE_DELTA else work
            deltas += made
            if uc_owner[i] >= 0 and spans[uc_owner[i]][0] == INFIMUM:
                inf_deltas += made

    out: dict[str, float] = {}
    for metric, _unit, _better in LAYER_METRICS:
        if metric.endswith(".self_s"):
            out[metric] = m[metric[:-len(".self_s")] + ".self_ns"] * 1e-9
        elif metric.startswith("delta.backend."):
            out[metric] = backends[metric.split(".")[2]]
        else:
            out[metric] = m[metric]
    out["model.Point.constructed"] = points_constructed
    out["search.points_per_delta"] = (m["model.evaluator.points"] / deltas) if deltas else 0.0
    out["uc.skipped_share"] = (m["uc.skipped"] / inf_deltas) if inf_deltas else 0.0
    out.pop("trace.overhead_s")
    for metric, unit, _better in LAYER_METRICS:
        if unit == "count" and metric in out:
            out[metric] = int(out[metric])
    return out


def write_spans(path, spans) -> None:
    """Spans as gzip'd JSON lines: name, start_ns, end_ns, parent, work, tag."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec))
            fh.write("\n")
