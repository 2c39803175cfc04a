"""Deterministic fault injection for the measurement pipeline.

Real tuning loops survive a hostile environment: compilers reject
configurations, kernels hang past their timeout, devices drop
measurements transiently, and timers are noisy.  AutoTVM-style systems
(Chen et al., *Learning to Optimize Tensor Programs*) isolate their
builder/runner behind timeouts and retries for exactly this reason.  Our
hardware is simulated, so the faults must be simulated too: a
:class:`FaultInjector` imposes the real-world failure taxonomy on any
evaluator so the robustness machinery (:mod:`repro.runtime.measure`) is
testable.

Determinism: every decision is a pure function of ``(seed, point,
attempt)`` — no hidden RNG stream.  The same point on the same attempt
always faults the same way, independent of call order, which is what
makes checkpoint/resume reproduce an uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np


class Fault(enum.Enum):
    """Outcome of one injected-fault roll for a measurement attempt."""

    NONE = "none"
    COMPILE = "compile"        # toolchain rejects the kernel
    HANG = "hang"              # kernel never returns; timeout budget burned
    TRANSIENT = "transient"    # flaky device error; retry may succeed


class InjectedCompileError(RuntimeError):
    """Injected: the (simulated) compiler rejected this configuration."""


class InjectedRuntimeError(RuntimeError):
    """Injected: a transient device error ate this measurement attempt."""


class InjectedHang(RuntimeError):
    """Injected: the kernel hung and must be billed its timeout budget."""


@dataclass
class FaultInjector:
    """Seeded fault source for an :class:`~repro.runtime.Evaluator`.

    Rates are independent probabilities per *attempt*; they are checked
    in order compile → hang → transient against one uniform draw, so
    their sum must stay <= 1.  ``jitter`` is the relative standard
    deviation of multiplicative measurement noise.

    Attach with ``Evaluator(..., fault_injector=injector)`` or
    :meth:`attach`.
    """

    compile_error_rate: float = 0.0
    hang_rate: float = 0.0
    transient_error_rate: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        total = self.compile_error_rate + self.hang_rate + self.transient_error_rate
        if total > 1.0:
            raise ValueError(f"fault rates sum to {total} > 1")
        for name in ("compile_error_rate", "hang_rate", "transient_error_rate", "jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # -- deterministic rolls ----------------------------------------------

    def _rng(self, point: Tuple[int, ...], attempt: int) -> np.random.Generator:
        """A generator keyed purely on (seed, point, attempt)."""
        key = (self.seed & 0xFFFFFFFF, attempt & 0xFFFFFFFF) + tuple(
            int(x) & 0xFFFFFFFF for x in point
        )
        return np.random.default_rng(key)

    def decide(self, point: Tuple[int, ...], attempt: int) -> Fault:
        """The fault (or NONE) injected into this measurement attempt."""
        roll = float(self._rng(point, attempt).random())
        if roll < self.compile_error_rate:
            return Fault.COMPILE
        roll -= self.compile_error_rate
        if roll < self.hang_rate:
            return Fault.HANG
        roll -= self.hang_rate
        if roll < self.transient_error_rate:
            return Fault.TRANSIENT
        return Fault.NONE

    def jitter_factor(self, point: Tuple[int, ...], attempt: int) -> float:
        """Multiplicative measurement-noise factor (1.0 when jitter off)."""
        if self.jitter <= 0.0:
            return 1.0
        rng = self._rng(point, attempt)
        rng.random()  # burn the fault draw so noise is independent of it
        return max(0.05, 1.0 + float(rng.normal(0.0, self.jitter)))

    def describe(self) -> str:
        """Compact identity string: folds the injector configuration into
        the persistent evaluation-cache key so runs with different fault
        setups never share cached outcomes."""
        return (
            f"{type(self).__name__}(c={self.compile_error_rate},"
            f"h={self.hang_rate},t={self.transient_error_rate},"
            f"j={self.jitter},seed={self.seed})"
        )

    # -- convenience -------------------------------------------------------

    def attach(self, evaluator) -> "FaultInjector":
        """Wrap an existing evaluator in place and return self."""
        evaluator.fault_injector = self
        return self

