"""Host-speed probes, for timings that do not move with a shared host's load.

On a host shared with other tenants the same single-threaded code runs up to
twice as slowly in some phases as in others, in CPU time as much as in wall
time, and the phases last from under a second to minutes.  While a run
measures, an interval timer therefore runs a fixed probe every
``INTERVAL_S``: pure-Python integer additions and ``Fraction`` arithmetic,
the two kinds of work padicdist does, in equal parts and without padicdist.
The probe runs in the benchmark's own thread, between two bytecodes of
whatever runs then.  Every measured interval is converted to *reference
seconds*: its length less the probes inside it, times ``REF_PROBE_S`` over
the median probe time near it.  A reference second is a second on a host
that runs the probe in ``REF_PROBE_S``, as the host the benchmark was built
on did in its quiet phases.  A change to padicdist moves reference seconds as
it moves wall time; a slow phase of the host slows the probe and the request
alike, and cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PROBE_ADDS = 10 ** 4
PROBE_SUMS = 4
REF_PROBE_S = 0.0008
INTERVAL_S = 0.025
WINDOW_S = 0.1


class HostSpeed:
    """Probe samples of one run, in time order."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.durations = []
        self._busy = [0.0]  # probe time before each sample, for subtraction
        self._probing = False

    def probe(self, *_signal_args) -> None:
        if self._probing:  # a timer tick during a probe the host stalled
            return
        self._probing = True
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_ADDS):
            x += i
        for _ in range(PROBE_SUMS):
            q = Fraction(0)
            for k in range(1, 40):
                q += Fraction(k, 3 ** (k % 5) + 1)
        self.record(t0, time.perf_counter())
        self._probing = False

    def record(self, t0: float, t1: float) -> None:
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self._busy.append(self._busy[-1] + t1 - t0)

    def __enter__(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def probe_s(self, t0: float, t1: float) -> float:
        """Median probe time within WINDOW_S of [t0, t1]; at least the probe
        just before and the one just after the interval count."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.starts, t0) - 1))
        hi = max(hi, min(len(self.starts), bisect.bisect_right(self.starts, t1) + 1))
        return statistics.median(self.durations[lo:hi])

    def ref_s(self, t0: float, t1: float) -> float:
        """The interval [t0, t1], less the probes inside it, in reference
        seconds."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = self._busy[hi] - self._busy[lo] if hi > lo else 0.0
        return (t1 - t0 - inside) * REF_PROBE_S / self.probe_s(t0, t1)

    def summary(self) -> dict:
        q1, med, q3 = statistics.quantiles(self.durations, n=4)
        return {"probes": len(self.durations), "probe_median_s": med,
                "probe_q1_s": q1, "probe_q3_s": q3}
