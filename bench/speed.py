"""Host speed probe: scales measured times to a reference host speed.

The benchmark shares a small host with other tenants, and the host's speed
drifts: in episodes of minutes every kind of work runs 1.2-1.9x slower.
Timing the program alone would report that drift as a change of the
program.  So a fixed probe kernel — a pure-Python loop and a small numpy
sort, the two kinds of work the program does — is timed beside it, and a
time is reported as ``seconds x REFERENCE_PROBE_S / probe seconds``: what
it would have taken on a host whose probe runs in ``REFERENCE_PROBE_S``.

During a timed pass, :class:`SpeedProbe` runs the kernel from a SIGALRM
handler every ``period`` seconds, so the samples spread evenly over the
pass and follow the drift inside it; their time is taken out of the pass's
wall time.  A worker process that has just set up probes the host back to
back with :func:`burst_speed`, which scales its set-up time.  The kernel does not touch the program,
so a change to the program cannot move the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

#: Mean probe time during a pass on a quiet 2-core x86-64 host (Python
#: 3.11, numpy 2.4).  A fixed scale: times are reported in seconds of a
#: host this fast.
REFERENCE_PROBE_S = 7.0e-4
#: The same host's mean probe time back to back, in a :func:`burst`, where
#: the probe finds its own data in the caches.
REFERENCE_BURST_S = 5.6e-4
#: Seconds between two probes during a pass (about 1.5% of the pass).
PERIOD_S = 0.05

_SORTED = np.random.default_rng(0).random((200, 32))


def probe_once() -> float:
    """Run the probe kernel once; returns its wall seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(4_000):
        total += i * i % 7
    order = np.argsort(_SORTED, axis=0, kind="stable")
    np.cumsum(np.take_along_axis(_SORTED, order, axis=0), axis=0)
    return time.perf_counter() - start


def speed_of(samples: List[float], reference: float = REFERENCE_PROBE_S) -> float:
    """Host speed relative to the reference (below 1: slower)."""
    return reference / statistics.fmean(samples)


def burst_speed(seconds: float) -> float:
    """Probe back to back for ``seconds``; returns the host speed."""
    samples = [probe_once()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(probe_once())
    return speed_of(samples, REFERENCE_BURST_S)


class SpeedProbe:
    """Probes the host every ``period`` seconds between :meth:`start` and
    :meth:`stop`.  ``samples`` holds each probe's seconds, the time the
    probes took out of the interval included."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe_once())

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent(self) -> float:
        """Seconds the probes took."""
        return sum(self.samples)

    def speed(self) -> float:
        return speed_of(self.samples) if self.samples else 1.0
