"""deltamax benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 20 --trace 0

Run from the repository root.  Single process, single thread, closed
loop: each call into deltamax is issued after the previous one returns.

--trace 0 repeats whole passes over the workload's items until --seconds
have gone by (at least two passes) and reports the end-to-end metrics.
--trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics and the tracing overhead.  Times are in reference-speed
seconds (see hostspeed.py); the wall-clock figures are printed beside
them.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("point_queries", "field_nd", "uc_1d"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def set_up(workload: str, seed: int):
    """Import deltamax anew, build the catalog, generate inputs and
    references; every set-up repeat pays for all of it."""
    import workloads

    for name in [m for m in sys.modules if m == "deltamax" or m.startswith("deltamax.")]:
        del sys.modules[name]
    import deltamax

    deltamax.catalog_names()
    return deltamax, workloads.BUILDERS[workload](deltamax, seed)


def run_pass(items, run_item, tracer=None):
    """One closed-loop pass; returns the (start, end) perf_counter interval
    of each item and the outputs."""
    clock = time.perf_counter
    intervals, outputs = [], []
    for item in items:
        t0 = clock()
        if tracer is None:
            out = run_item(item)
        else:
            out = tracer.root(lambda: run_item(item))
        intervals.append((t0, clock()))
        outputs.append(out)
    return intervals, outputs


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("DELTAMAX_THREADS") is not None:
        print("DELTAMAX_THREADS is set; unset it: the uc thread pool would "
              "change field_nd", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "deltamax" / "__init__.py").is_file():
        print(f"no deltamax sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in PINNED:
        os.environ[var] = "1"
    import numpy as np
    sys.path.insert(0, str(ROOT / "src"))

    import hostspeed

    with hostspeed.HostSpeed() as host:
        return measure(args, host, np)


def measure(args, host, np) -> int:
    import spans
    import workloads

    setup_intervals = []

    def timed_set_up():
        t0 = time.perf_counter()
        result = set_up(args.workload, args.seed)
        setup_intervals.append((t0, time.perf_counter()))
        return result

    for _ in range(SETUP_REPEATS):
        dm, items = timed_set_up()

    nproc = len(os.sched_getaffinity(0))
    env = {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "threads": threading.active_count(),
        **{var: os.environ[var] for var in PINNED},
        "DELTAMAX_THREADS": "unset",
    }
    if env["threads"] > nproc:
        raise RuntimeError(f"{env['threads']} threads running, more than nproc={nproc}")
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} items/pass {len(items)} "
          "closed loop, 1 caller")

    passes, pass_intervals = [], []
    while True:
        spans.assert_unwrapped()
        intervals, outputs = run_pass(items, workloads.run_item)
        pass_intervals.append(intervals)
        passes.append(outputs)
        elapsed = sum(iv[-1][1] - iv[0][0] for iv in pass_intervals)
        if args.trace or (len(passes) >= MIN_PASSES and elapsed >= args.seconds):
            break
        # Set-up is timed again between passes, so its median spans the
        # run rather than one moment of it.
        dm, items = timed_set_up()

    checker = workloads.CHECKERS[args.workload]
    checks = [checker(items, outputs) for outputs in passes]
    wrong = [w for c in checks for w in c.wrong]
    reference = [workloads.summary(o) for o in passes[0]]
    if any([workloads.summary(o) for o in outputs] != reference for outputs in passes[1:]):
        wrong.append("outputs differ between passes")
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for key, value in checks[0].quality.items():
        print(f"check {key} = {value!r}")
    print(f"check error_rate = {failed / attempted!r} ({failed} of {attempted} failed)")

    # Latency of an item: its fastest pass in reference-speed seconds, which
    # drops bursts of load too short for the probes to show.
    latencies = [min(host.scaled(*iv) for iv in ivs) for ivs in zip(*pass_intervals)]
    raw = [min(t1 - t0 for t0, t1 in ivs) for ivs in zip(*pass_intervals)]
    if args.trace:
        traced_wall, metrics = traced_pass(items, host, reference, wrong, args)
        metrics["trace.overhead_s"] = (traced_wall - sum(latencies), "s")
    else:
        metrics = {
            "wall_s": (sum(latencies), "s"),
            "setup_s": (statistics.median(host.scaled(*iv) for iv in setup_intervals), "s"),
            "latency_p50_ms": (1e3 * float(np.percentile(latencies, 50)), "ms"),
            "latency_p99_ms": (1e3 * float(np.percentile(latencies, 99)), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    print(f"passes {len(passes)}; latency samples {len(latencies)}, each the fastest "
          f"of its passes; host {host.speed()!r}x slower than the reference; "
          f"wall clock: wall_s {sum(raw)!r}, latency_p50_ms "
          f"{1e3 * float(np.percentile(raw, 50))!r}, latency_p99_ms "
          f"{1e3 * float(np.percentile(raw, 99))!r}")

    for w in wrong[:20]:
        print(f"WRONG {w}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_pass(items, host, reference, wrong, args):
    """One traced pass: its scaled wall time and per-layer metrics; the
    spans go to perfbench/out/."""
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    try:
        intervals, outputs = run_pass(items, workloads.run_item, tracer)
    finally:
        tracer.uninstall()
    spans.assert_unwrapped()
    if [workloads.summary(o) for o in outputs] != reference:
        wrong.append("traced outputs differ from the untraced ones")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    spans.write_spans(path, tracer.spans)
    print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    scaled = sum(host.scaled(*iv) for iv in intervals)
    # Self times come from raw span clocks; the pass's own factor puts
    # them in the same reference-speed seconds as the end-to-end metrics.
    factor = scaled / sum(t1 - t0 for t0, t1 in intervals)
    units = {name: unit for name, unit, _better in spans.LAYER_METRICS}
    measured = spans.layer_metrics(tracer.spans, tracer.points_constructed)
    metrics = {name: (value * factor if name.endswith(".self_s") else value, units[name])
               for name, value in measured.items()}
    return scaled, metrics


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
