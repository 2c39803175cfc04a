"""Performance-model interface.

The paper evaluates candidate schedules either by running them on the
device or by querying an analytical model (§5.2) and treats the two as
interchangeable evaluators.  Our reproduction has no physical devices, so
every target uses an analytical model; the interface also reports the
*simulated measurement cost* of a trial (compile + repeated runs on
CPU/GPU, a model query on FPGA), which drives the exploration-time results
of Figures 6d and 7.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..schedule import ScheduleFacts

#: Estimate returned for configurations a real toolchain would reject
#: (too many threads, shared memory over budget, ...).  Finite so that the
#: annealing arithmetic stays well-behaved, but far beyond any real time.
INVALID_TIME = 1.0e3


class PerformanceModel(ABC):
    """Estimates wall-clock seconds for a scheduled program on one device."""

    def __init__(self, spec):
        self.spec = spec

    @property
    def name(self) -> str:
        """The device name this model simulates."""
        return self.spec.name

    @abstractmethod
    def estimate_seconds(self, scheduled: ScheduleFacts) -> float:
        """Predicted kernel time in seconds (``INVALID_TIME`` if illegal).

        ``scheduled`` is a point's :class:`ScheduleFacts`, or a lowered
        :class:`~repro.schedule.Scheduled`, which carries the same facts."""

    @abstractmethod
    def measurement_seconds(self, runtime: float) -> float:
        """Simulated wall-clock cost of obtaining one measurement."""

    def gflops(self, scheduled: ScheduleFacts) -> float:
        """Achieved GFLOPS under the model's time estimate."""
        from ..codegen import flops_of

        seconds = self.estimate_seconds(scheduled)
        if seconds <= 0:
            return 0.0
        return flops_of(scheduled.op) / seconds / 1e9
