"""Machine-speed probe for a shared, drifting machine.

When other tenants share the machine, the speed of a core drifts by +-20% or
more from one second to the next, so raw wall times of runs minutes apart
are not comparable. The drift is in the speed of the core itself: a child's
CPU time tracks its wall time, and two probes taken a second apart disagree
about as much as two runs do. So the speed has to be sampled on the thread
that runs the timed code, while it runs. A fixed probe, run in the timed
process's main thread every PERIOD_S seconds (from a SIGALRM handler), does
that: interpreter steps, small NumPy accesses and small allocations, on a
working set of a few KB.

The working set is kept that small so that the program's own cache and
memory use cannot move the probe: refilling a few KB costs well under one
percent of the probe's time, and the probe adds no measurable resident
memory. A timed wall interval is reported in reference seconds: its wall
time times REF_S over the mean probe CPU time seen during it, i.e. the time
it would take on a machine where the probe takes REF_S. The probe adds about
1.5% of work to the process.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
REF_S = 0.0007


class Probe:
    def __init__(self):
        self.grid = np.zeros((64, 64), dtype=bool)

    def __call__(self) -> float:
        """CPU seconds of this thread for the fixed work."""
        start = time.thread_time()
        total = 0
        kept = []
        for i in range(1500):
            total += (i * i) % 7
            if self.grid[i & 63, (i >> 6) & 63]:
                total += 1
            if len(kept) < 64:
                kept.append((i, float(i)))
            else:
                kept.clear()
        return time.thread_time() - start


class Sampler:
    """Probes at entry, every PERIOD_S seconds while active, and at exit.

    Signal handlers run in the main thread, so the samples are taken on the
    thread that runs the timed code, between its bytecodes.
    """

    def __enter__(self):
        self.probe = Probe()
        self.samples = [self.probe()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame):
        self.samples.append(self.probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self.probe())
        return False


def reference_seconds(wall: float, samples) -> float:
    return wall * REF_S / statistics.mean(samples)
