"""Host-speed normalisation of every reported time.

On a shared machine the CPU speed of one process drifts by up to 1.8x, in
phases of a few seconds to minutes (CPU time drifts with wall time, so it is
not descheduling). A run then reads whatever phase it happened to land in.
To take the host out of the figures, a fixed probe (a pure-Python loop and
small NumPy calls, the mix mibvqa's graph code runs) is timed between
units of work, and inside long ones, and every reported time is scaled to
the speed at which the probe takes REF_PROBE_S:

    t_ref = t_wall * REF_PROBE_S / (mean probe time around the interval)

The probe time is excluded from the measured intervals. Raw wall times stay
in each run's detail record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the probe's duration at the reference speed (about its fast-phase time on
# the 2-vCPU Intel Xeon host the bounds were fixed on)
REF_PROBE_S = 0.003


def _probe_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    a = np.ones((8, 8))
    for _ in range(300):
        a = np.tanh(a @ a * 0.1)
    return time.perf_counter() - start


def probe() -> float:
    """Wall seconds of one fixed piece of interpreter + small-NumPy work:
    the median of three timings, so that one cold-cache or interrupted
    timing does not count."""
    return statistics.median(_probe_once() for _ in range(3))


class SpeedLog:
    """Every probe duration of a run, in order; an interval names its probes
    by index (see mark)."""

    def __init__(self):
        self.durations: list = []

    def probe(self) -> None:
        self.durations.append(probe())

    def mark(self) -> int:
        return len(self.durations)

    def scale(self, since: int, until: int | None = None) -> float:
        """REF_PROBE_S over the mean time of probes [since, until) (1.0 when
        there is none)."""
        recent = self.durations[since:until]
        return REF_PROBE_S * len(recent) / sum(recent) if recent else 1.0
