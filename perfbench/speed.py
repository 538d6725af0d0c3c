"""A probe of the host's speed, interleaved with the timed work.

The speed of one core of the 2-vCPU reference host drifts by about
+-18 % over tens of seconds, and the package's code drifts with it: over
200 s, the 20 s means of a fixed integer loop ranged over 0.124-0.163 s and
those of an eigenvalue shoot over 1.15-1.66 s, while their ratio stayed
within +-5 %.  So the benchmark takes a fixed pure-Python probe between its
operations, at most every ``INTERVAL_S``, and scales the times it reports by
``factor()``: NOMINAL_S over the median probe time.  An in-process pass
(exact-sweep, numeric-oracles) probes in its worker and has its own factor;
cli-queries probes in the benchmark's process between queries and has one
factor for the run.  Times are then in seconds at the host's nominal speed;
the raw times stay in each run's detail record.  The probe does not touch
the package, so a change to the package moves the scaled times exactly as
much as the raw ones.

setup_s stays raw: scaled by probes taken around its three imports, its
spread over seeds grew (from 0.11-0.17 to 0.27-0.29).
"""

from __future__ import annotations

import math
import statistics
import time

perf = time.perf_counter

PROBE_N = 200_000  # loop length of one probe
NOMINAL_S = 0.02  # one probe's time at the reference host's nominal speed
INTERVAL_S = 0.5  # at most one probe per this much work


def probe() -> float:
    """Seconds taken by one fixed integer loop."""
    t0 = perf()
    s = 0
    for i in range(PROBE_N):
        s += i * i % 7
    return perf() - t0


class Speed:
    """The probe samples of one timed stretch."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # probing time, left out of the stretch's wall time
        self.last = -math.inf

    def tick(self, force=False):
        """Probe, if forced or INTERVAL_S has passed since the last probe."""
        t0 = perf()
        if force or t0 - self.last >= INTERVAL_S:
            self.samples.append(probe())
            self.last = perf()
            self.spent_s += self.last - t0

    def factor(self) -> float:
        """Multiply the stretch's raw times by this."""
        return NOMINAL_S / statistics.median(self.samples)
