"""Host speed, sampled while the benchmark runs, to rescale its timings.

The shared VM this benchmark was built on runs the same code 1.1-1.8x
slower for stretches of seconds to minutes, as its neighbours load the
host.  A pass of field_nd read 5.3 s to 8.4 s across runs, so raw wall
times could not tell a 25% regression from the weather.

While a ``HostSpeed`` is entered, SIGALRM fires every PERIOD_S of wall
time and its handler, on the main thread between bytecodes, times ``probe``:
a fixed slice of small-array numpy and interpreter work, the mix deltamax
runs.  ``scaled(t0, t1)`` turns the wall interval [t0, t1] into
reference-speed seconds: the interval minus the probes that ran inside
it, times REF_PROBE_S over the median probe time around it (the median,
because a probe that a page fault or the program's cache traffic delays
says nothing about the host).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.25      # probes this far outside an interval still describe it
# The probe's time on an unloaded 2.0 GHz Xeon vCPU (2nd percentile over a
# run there).  Scaled times are seconds at the speed where the probe takes this.
REF_PROBE_S = 1.0e-4


class HostSpeed:
    """Context manager that samples the host's speed on a timer."""

    def __init__(self):
        self._a = np.linspace(0.0, 1.0, 1024)
        self.starts: list[float] = []     # perf_counter at each probe start
        self.probes: list[float] = []     # each probe's duration
        self._previous = None

    def probe(self) -> None:
        a = self._a
        t0 = time.perf_counter()
        for _ in range(10):
            np.sum(np.abs(a * 1.5 - 0.3))
        x = 0
        for i in range(300):
            x += i * i
        self.starts.append(t0)
        self.probes.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-speed seconds spent in the wall interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no host-speed probe near a timed interval")
        inside = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        busy = t1 - t0 - sum(self.probes[inside[0]:inside[1]])
        return busy * REF_PROBE_S / statistics.median(self.probes[lo:hi])

    def speed(self) -> float:
        """Median probe time over REF_PROBE_S: how much slower than the
        reference the host ran during the samples so far."""
        return statistics.median(self.probes) / REF_PROBE_S
