"""Measurement harness: evaluates schedule points and tracks exploration cost.

The paper's back-end obtains a performance value E for each visited point
either by running on the device or by querying an analytical model (§5.2).
Here the :class:`Evaluator` plays both roles: it derives a space point's
schedule facts from its config (no loop nest is built), asks the device's
performance model for the kernel time, converts it to a performance
value (GFLOPS, higher is better), memoizes it, and advances a
**simulated wall clock** by the cost of that measurement (compile +
repeated runs on CPU/GPU; one model query on FPGA).  The clock drives the
exploration-time comparisons of Figures 6d and 7.

Unlike the seed implementation, measurement is fault tolerant: every
attempt is classified into a :class:`MeasureStatus`, hangs are billed
their full timeout budget, transient errors are retried with backoff,
and points that keep failing are quarantined — see ``docs/robustness.md``.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..analysis.lint import ScheduleLinter

from ..codegen import flops_of
from ..graph import MiniGraph, get_graph
from ..ir import format_operation
from ..model import INVALID_TIME, PerformanceModel, model_for, target_of
from ..schedule import GraphConfig, LoweringError, LoweringMemo, ScheduleFacts, schedule_facts
from ..space import Point, ScheduleSpace, build_space
from .cache import EvalCache
from .fault import (
    Fault,
    FaultInjector,
    InjectedCompileError,
    InjectedHang,
    InjectedRuntimeError,
)

#: Legacy cap on the kernel runtime billed per measurement when no
#: explicit timeout is configured (a real runner never waits forever).
DEFAULT_CHARGE_CAP = 1.0


def materialization_seconds(graph: MiniGraph, graph_config: GraphConfig, device_spec) -> float:
    """Cost of producer nodes the graph config does *not* inline.

    An un-inlined padding/expansion node runs as its own elementwise
    kernel: write its output, read it back in the consumer, plus a
    launch.  Inlining (Algorithm 1's graph schedule, FlexTensor's
    default) makes this free; template baselines that materialize
    data-rearrangement stages pay it.
    """
    main = graph.main_op
    bandwidth = getattr(device_spec, "bandwidth_gbs", None)
    if bandwidth is None:
        bandwidth = getattr(device_spec, "ddr_bandwidth_gbs")
    launch = getattr(device_spec, "kernel_launch_us", 5.0) * 1e-6
    total = 0.0
    for op in graph.compute_ops:
        if op is main or graph_config.should_inline(op.name):
            continue
        # write + read back + input read
        total += op.output.size * 4 * 3 / (bandwidth * 1e9) + launch
    return total


def op_signature_of(
    graph,
    device_spec,
    measure_config: Optional["MeasureConfig"] = None,
    graph_config: Optional[GraphConfig] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> str:
    """Stable identity of (operator, shapes, device, run settings).

    The one signature definition shared by :meth:`Evaluator.op_signature`
    and callers that need an operator's identity *without* paying for an
    evaluator (e.g. the network task scheduler deduping layers before any
    schedule space is built).  Folds in everything that changes a
    measured value: the compute definition (the pseudo-code hash covers
    shapes and expressions), the target and device, graph inline
    decisions, the timeout policy, and the fault-injector configuration
    when one is active.
    """
    graph = graph if isinstance(graph, MiniGraph) else get_graph(graph)
    measure_config = measure_config or MeasureConfig()
    graph_config = graph_config or GraphConfig()
    op = graph.main_op
    digest = hashlib.md5(format_operation(op).encode()).hexdigest()[:16]
    device = getattr(device_spec, "name", str(device_spec))
    parts = [
        f"op={op.name}",
        f"shape={tuple(op.output.shape)}",
        f"ir={digest}",
        f"target={target_of(device_spec)}",
        f"device={device}",
        f"timeout={measure_config.timeout_seconds}",
    ]
    inline = sorted(graph_config.inline.items())
    if inline:
        parts.append(f"inline={inline}")
    if fault_injector is not None:
        parts.append(f"faults={fault_injector.describe()}")
    return "|".join(parts)


class MeasureStatus(enum.Enum):
    """Classification of one finished measurement."""

    OK = "ok"                          # clean measurement
    LOWER_ERROR = "lower_error"        # schedule could not be lowered
    COMPILE_ERROR = "compile_error"    # toolchain rejected the kernel
    RUN_TIMEOUT = "run_timeout"        # kernel exceeded the timeout budget
    RUNTIME_ERROR = "runtime_error"    # transient device error, retries exhausted
    FLAKY_RETRIED = "flaky_retried"    # succeeded after >=1 transient failure
    ILLEGAL = "illegal"                # statically rejected by the linter

    @property
    def ok(self) -> bool:
        return self in _OK_STATUSES

    @property
    def permanent(self) -> bool:
        """Whether re-measuring the same point can never help: true of
        every status but a transient device error."""
        return self is not MeasureStatus.RUNTIME_ERROR


_OK_STATUSES = (MeasureStatus.OK, MeasureStatus.FLAKY_RETRIED)


#: A measurement's final outcome: (status, kernel seconds, attempts, error).
Outcome = Tuple[MeasureStatus, float, int, Optional[str]]


@dataclass
class MeasureResult:
    """One evaluated point: performance (GFLOPS), status, and accounting."""

    point: Point
    performance: float
    seconds: float           # modeled kernel time
    clock: float             # simulated wall-clock at completion
    trial_index: int
    status: MeasureStatus = MeasureStatus.OK
    attempts: int = 1
    error: Optional[str] = None

    def to_dict(self) -> Dict:
        """JSON-compatible form (checkpoint files)."""
        return {
            "point": list(self.point),
            "performance": self.performance,
            "seconds": self.seconds,
            "clock": self.clock,
            "trial_index": self.trial_index,
            "status": self.status.value,
            "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "MeasureResult":
        return cls(
            point=tuple(payload["point"]),
            performance=payload["performance"],
            seconds=payload["seconds"],
            clock=payload["clock"],
            trial_index=payload["trial_index"],
            status=MeasureStatus(payload.get("status", "ok")),
            attempts=payload.get("attempts", 1),
            error=payload.get("error"),
        )


@dataclass
class MeasureConfig:
    """Timeout / retry / quarantine policy of the measurement pipeline.

    ``timeout_seconds = None`` disables timeout classification (legacy
    behaviour) while still capping the billed runtime at
    :data:`DEFAULT_CHARGE_CAP`.
    """

    timeout_seconds: Optional[float] = None
    max_retries: int = 2                # extra attempts after a transient error
    backoff_seconds: float = 0.1        # base wall-clock pause, doubled per retry
    quarantine_threshold: int = 3       # failed measurements before quarantine
    quarantine_max: int = 128           # FIFO capacity of the quarantine set

    @property
    def charge_cap(self) -> float:
        return self.timeout_seconds if self.timeout_seconds else DEFAULT_CHARGE_CAP


class Evaluator:
    """Schedule-point evaluator with memoization, a simulated clock, and a
    fault-tolerant measurement pipeline."""

    def __init__(
        self,
        output,
        device_spec,
        space: Optional[ScheduleSpace] = None,
        graph_config: Optional[GraphConfig] = None,
        model: Optional[PerformanceModel] = None,
        measure_config: Optional[MeasureConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        eval_cache: Optional[EvalCache] = None,
        linter: Optional["ScheduleLinter"] = None,
    ):
        self.graph: MiniGraph = output if isinstance(output, MiniGraph) else get_graph(output)
        self._main_op = self.graph.main_op
        self.device_spec = device_spec
        self.target = target_of(device_spec)
        self.space = space or build_space(self.graph, self.target)
        self.graph_config = graph_config or GraphConfig()
        self.model = model or model_for(device_spec)
        self.measure_config = measure_config or MeasureConfig()
        self.fault_injector = fault_injector
        self.flops = flops_of(self.graph.main_op)
        self._producer_overhead = materialization_seconds(
            self.graph, self.graph_config, device_spec
        )
        self.cache: Dict[Point, float] = {}
        self.records: List[MeasureResult] = []
        self.clock = 0.0
        self.num_measurements = 0
        self.status_counts: Dict[str, int] = {}
        # Fault bookkeeping: lifetime attempt index per point (keys the
        # injector so re-tries of a flaky point see fresh rolls), failed
        # non-permanent measurements per point, and the quarantine FIFO.
        self._attempt_counts: Dict[Point, int] = {}
        self._failure_counts: Dict[Point, int] = {}
        self._quarantine: List[Point] = []
        self._quarantined: set = set()
        self.num_quarantine_hits = 0
        # Canonicalization (ISSUE #2): equivalent points share one
        # measurement.  The memo above stays keyed by *raw* points (so
        # records, quarantine and resume are untouched); the index below
        # maps each canonical key to the first measured representative.
        self.eval_cache = eval_cache
        self._canon_index: Dict[Point, Point] = {}
        self.num_memo_hits = 0
        self.num_canon_hits = 0
        self.num_disk_hits = 0
        self._op_signature: Optional[str] = None
        # Static linting (ISSUE #3): with a linter attached, points whose
        # error-severity rules fire are rejected before any measurement —
        # zero simulated cost, MeasureStatus.ILLEGAL, per-rule histogram.
        self.linter = linter
        self.num_lint_rejects = 0
        self.lint_rule_counts: Dict[str, int] = {}
        # Memoize the structural schedule facts across points sharing
        # split/reorder/fuse decisions — a pure acceleration, results are
        # bit-identical with or without it.
        self.lowering_memo = LoweringMemo()

    # -- evaluation --------------------------------------------------------

    def lower_point(self, point: Point) -> ScheduleFacts:
        """The schedule facts a space point is priced from; no loop nest
        is built (:func:`repro.schedule.lower` builds one when needed)."""
        return schedule_facts(
            self._main_op, self.space.decode(point), self.target, self.lowering_memo
        )

    def evaluate(self, point: Point) -> float:
        """Performance value E of a point in GFLOPS (0 for failures).

        Cached: re-evaluating a visited point costs no simulated time,
        matching the paper's "record the visited points to avoid repeated
        searching".  Transient failures are *not* cached, so a later
        visit re-measures — unless the point has been quarantined.

        This is the *strict* serial path (``workers=1``): without a
        persistent cache it serves no canonical equivalents, which
        :meth:`lookup`, the batch engine's probe, does.
        """
        if point in self.cache:
            self.num_memo_hits += 1
            return self.cache[point]
        if point in self._quarantined:
            self.num_quarantine_hits += 1
            return 0.0
        rejected = self.lint_reject(point)
        if rejected is not None:
            return rejected
        if self.eval_cache is not None:
            performance = self._disk_lookup(point)
            if performance is not None:
                return performance
        return self.measure(point).performance

    def lint_reject(self, point: Point) -> Optional[float]:
        """Statically reject a point, or None if it passes (or no linter).

        A rejection is billed at **zero simulated cost**: the clock does
        not advance and ``num_measurements`` stays put — the whole point
        of linting is that legality is decidable without paying for a
        measurement.  The point is still cached at performance 0 (with a
        :attr:`MeasureStatus.ILLEGAL` record carrying the diagnostics),
        so tuners, quarantine-style accounting and the persistent cache
        see it exactly like any other permanently failed point.
        """
        if self.linter is None or point in self.cache:
            return None
        config = self.space.decode(point)
        diagnostics = self.linter.errors(config)
        if not diagnostics:
            return None
        self.num_lint_rejects += 1
        for diagnostic in diagnostics:
            self.lint_rule_counts[diagnostic.rule] = (
                self.lint_rule_counts.get(diagnostic.rule, 0) + 1
            )
        performance = 0.0
        self.cache[point] = performance
        canon = self.canonical_key(point)
        self._canon_index.setdefault(canon, point)
        if self.eval_cache is not None:
            self.eval_cache.put(
                self.op_signature(), canon, performance, MeasureStatus.ILLEGAL.value
            )
        status = MeasureStatus.ILLEGAL
        self.status_counts[status.value] = self.status_counts.get(status.value, 0) + 1
        result = MeasureResult(
            point, performance, INVALID_TIME, self.clock, self.num_measurements,
            status=status, attempts=0,
            error="; ".join(str(d) for d in diagnostics),
        )
        self.records.append(result)
        return performance

    def lookup(self, point: Point) -> Optional[float]:
        """Free-of-charge cache probe, or None if the point needs measuring.

        Consulted in order: the raw in-run memo, the canonical index
        (an equivalent point was already measured — :meth:`canonical_key`
        membership *before* the miss is declared, per ISSUE #2), the
        quarantine set, and finally the persistent cross-run cache.  None
        of these advance the simulated clock or append a record.
        """
        if point in self.cache:
            self.num_memo_hits += 1
            return self.cache[point]
        canon = self.canonical_key(point)
        representative = self._canon_index.get(canon)
        if representative is not None and representative in self.cache:
            self.num_canon_hits += 1
            return self.cache[representative]
        if point in self._quarantined:
            self.num_quarantine_hits += 1
            return 0.0
        if self.eval_cache is not None:
            return self._disk_lookup(point, canon)
        return None

    def _disk_lookup(self, point: Point, canon: Optional[Point] = None) -> Optional[float]:
        """Probe the persistent cache; fold a hit into the in-run memo."""
        if canon is None:
            canon = self.canonical_key(point)
        entry = self.eval_cache.get(self.op_signature(), canon)
        if entry is None:
            return None
        performance, _status = entry
        self.cache[point] = performance
        self._canon_index.setdefault(canon, point)
        self.num_disk_hits += 1
        return performance

    def canonical_key(self, point: Point) -> Point:
        """Canonical representative of a point."""
        return self.space.canonical_point(point)

    def op_signature(self) -> str:
        """This evaluator's :func:`op_signature_of`, the first half of the
        persistent cache key: two evaluators share cache entries iff their
        signatures match."""
        if self._op_signature is None:
            self._op_signature = op_signature_of(
                self.graph, self.device_spec,
                measure_config=self.measure_config,
                graph_config=self.graph_config,
                fault_injector=self.fault_injector,
            )
        return self._op_signature

    def retry_charge(self, retry_index: int) -> float:
        """Simulated seconds one failed-then-retried attempt bills: the
        compile cost of the wasted attempt plus exponential backoff.
        Single source of truth for serial billing (:meth:`measure`) and
        batched billing (:meth:`outcome_cost`)."""
        return (
            self.model.measurement_seconds(0.0)
            + self.measure_config.backoff_seconds * (2 ** retry_index)
        )

    def measure(self, point: Point) -> MeasureResult:
        """Run the full fault-tolerant measurement pipeline on one point
        and bill it on the evaluator's own clock."""
        outcome = self.outcome(point, self._attempt_counts.get(point, 0))
        _status, seconds, attempts, _error = outcome
        # Transient: each retried attempt pays the failed attempt plus a
        # backoff pause.  Real tuners pay wall-clock for both.
        for retry_index in range(attempts - 1):
            self.clock += self.retry_charge(retry_index)
        # A hang (or a kernel past the timeout) bills the *full* timeout
        # budget: real tuners pay wall-clock waiting for the deadline.
        self.clock += self.model.measurement_seconds(
            min(seconds, self.measure_config.charge_cap)
        )
        return self.apply_outcome(point, outcome, clock=self.clock)

    def outcome(self, point: Point, base_attempt: int) -> Outcome:
        """Run the retry policy on one point, mutating no simulated state.

        Each attempt runs at lifetime attempt index ``base_attempt +
        attempts - 1`` (``base_attempt`` is the point's attempt count at
        submission), so fault-injector rolls do not depend on whether the
        point was measured alone or inside a batch.  A transient
        :attr:`MeasureStatus.RUNTIME_ERROR` is retried up to
        ``max_retries`` times; the final attempt's outcome is returned.
        Touches no counters, no clock and no records (the lowering memo
        is touched, but it is a pure acceleration).
        """
        config = self.measure_config
        injector = self.fault_injector
        attempts = 0
        while True:
            attempts += 1
            attempt_index = base_attempt + attempts - 1
            fault = Fault.NONE if injector is None else injector.decide(point, attempt_index)
            try:
                if fault is Fault.COMPILE:
                    raise InjectedCompileError("injected compile failure")
                scheduled = self.lower_point(point)
                if fault is Fault.HANG:
                    raise InjectedHang("injected kernel hang")
                if fault is Fault.TRANSIENT:
                    raise InjectedRuntimeError("injected transient device error")
                seconds = self.model.estimate_seconds(scheduled)
            except LoweringError as exc:
                return MeasureStatus.LOWER_ERROR, INVALID_TIME, attempts, str(exc)
            except InjectedHang as exc:
                return MeasureStatus.RUN_TIMEOUT, INVALID_TIME, attempts, str(exc)
            except InjectedRuntimeError as exc:
                if attempts > config.max_retries:
                    return MeasureStatus.RUNTIME_ERROR, INVALID_TIME, attempts, str(exc)
                continue
            except Exception as exc:  # noqa: BLE001 -- ValidationError, arithmetic
                # errors from exotic points, injected compile errors: a broken
                # candidate must never kill the tuning run.
                return (MeasureStatus.COMPILE_ERROR, INVALID_TIME, attempts,
                        f"{type(exc).__name__}: {exc}")
            if seconds >= INVALID_TIME:
                return (MeasureStatus.COMPILE_ERROR, INVALID_TIME, attempts,
                        "model rejected configuration")
            if injector is not None:
                seconds *= injector.jitter_factor(point, attempt_index)
            seconds += self._producer_overhead
            if config.timeout_seconds is not None and seconds > config.timeout_seconds:
                return MeasureStatus.RUN_TIMEOUT, seconds, attempts, "kernel exceeded timeout"
            return MeasureStatus.OK, seconds, attempts, None

    def outcome_cost(self, outcome: Outcome) -> float:
        """Simulated seconds one outcome bills — identical accounting to
        the serial :meth:`measure` path: each failed-then-retried attempt
        pays a compile cost plus exponential backoff, and the final
        attempt pays the (capped) kernel time."""
        _status, seconds, attempts, _error = outcome
        cost = 0.0
        for retry in range(attempts - 1):
            cost += self.retry_charge(retry)
        cost += self.model.measurement_seconds(
            min(seconds, self.measure_config.charge_cap)
        )
        return cost

    def apply_outcome(self, point: Point, outcome: Outcome, clock: float) -> MeasureResult:
        """Fold an :meth:`outcome` into evaluator state: attempt counts,
        then classify, cache, and record the measurement as completing at
        simulated time ``clock``.

        Billing is the caller's: :meth:`measure` advances the evaluator's
        own clock first, and the batch engine passes each job's completion
        time on its overlapping workers.
        """
        status, seconds, attempts, error = outcome
        self._attempt_counts[point] = self._attempt_counts.get(point, 0) + attempts
        if status is MeasureStatus.OK and attempts > 1:
            status = MeasureStatus.FLAKY_RETRIED
        if status.ok:
            performance = self.flops / seconds / 1e9
        else:
            performance = 0.0
        self.num_measurements += 1
        value = status.value
        if status.permanent:
            self.cache[point] = performance
            canon = self.canonical_key(point)
            self._canon_index.setdefault(canon, point)
            if self.eval_cache is not None:
                self.eval_cache.put(self.op_signature(), canon, performance, value)
        else:
            self._record_failure(point)
        self.status_counts[value] = self.status_counts.get(value, 0) + 1
        result = MeasureResult(
            point, performance, seconds, clock, self.num_measurements,
            status=status, attempts=attempts, error=error,
        )
        self.records.append(result)
        return result

    # -- fault bookkeeping -------------------------------------------------

    def _record_failure(self, point: Point) -> None:
        count = self._failure_counts.get(point, 0) + 1
        self._failure_counts[point] = count
        if count >= self.measure_config.quarantine_threshold:
            self._quarantine_point(point)

    def _quarantine_point(self, point: Point) -> None:
        if point in self._quarantined:
            return
        self._quarantine.append(point)
        self._quarantined.add(point)
        self._evict_quarantine_overflow()

    def _evict_quarantine_overflow(self) -> None:
        """Apply the FIFO bound, keeping list and membership set in
        lock-step (the pair must never diverge — see the invariant test
        in ``tests/test_fault_runtime.py``)."""
        while len(self._quarantine) > self.measure_config.quarantine_max:
            evicted = self._quarantine.pop(0)
            self._quarantined.discard(evicted)
            # Evicted points get a clean slate: they may be re-measured.
            self._failure_counts.pop(evicted, None)

    def _set_quarantine(self, points) -> None:
        """Rebuild the quarantine FIFO + membership set as one
        invariant-preserving operation: duplicates collapse (a snapshot
        from an older version or a hand-edited file must not leave the
        list and the set disagreeing) and the FIFO bound is re-applied
        (the configured ``quarantine_max`` may have shrunk since the
        snapshot was written)."""
        self._quarantine = []
        self._quarantined = set()
        for point in points:
            point = tuple(point)
            if point in self._quarantined:
                continue
            self._quarantine.append(point)
            self._quarantined.add(point)
        self._evict_quarantine_overflow()

    @property
    def quarantine(self) -> Tuple[Point, ...]:
        """Quarantined points, oldest first."""
        return tuple(self._quarantine)

    @property
    def num_retries(self) -> int:
        """Measurement attempts beyond the first, summed over all records
        — the retry bill the CLI's measurement-health report surfaces."""
        return sum(max(0, r.attempts - 1) for r in self.records)

    def recent_error_rate(self, window: int = 20) -> float:
        """Fraction of failed measurements among the last ``window`` —
        the signal tuners use to degrade gracefully when a neighborhood
        is poisoned."""
        if not self.records:
            return 0.0
        recent = self.records[-window:]
        failed = sum(1 for r in recent if not r.status.ok)
        return failed / len(recent)

    def charge(self, seconds: float) -> None:
        """Advance the simulated clock for non-measurement work (e.g.
        cost-model training in the AutoTVM baseline)."""
        self.clock += seconds

    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> Dict:
        """JSON-compatible snapshot of all mutable evaluator state."""
        return {
            "clock": self.clock,
            "num_measurements": self.num_measurements,
            "cache": [[list(p), perf] for p, perf in self.cache.items()],
            "records": [r.to_dict() for r in self.records],
            "status_counts": dict(self.status_counts),
            "attempt_counts": [[list(p), c] for p, c in self._attempt_counts.items()],
            "failure_counts": [[list(p), c] for p, c in self._failure_counts.items()],
            "quarantine": [list(p) for p in self._quarantine],
            "num_quarantine_hits": self.num_quarantine_hits,
            "num_memo_hits": self.num_memo_hits,
            "num_canon_hits": self.num_canon_hits,
            "num_disk_hits": self.num_disk_hits,
            "num_lint_rejects": self.num_lint_rejects,
            "lint_rule_counts": dict(self.lint_rule_counts),
        }

    def set_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self.clock = state["clock"]
        self.num_measurements = state["num_measurements"]
        self.cache = {tuple(p): perf for p, perf in state["cache"]}
        self.records = [MeasureResult.from_dict(r) for r in state["records"]]
        self.status_counts = dict(state.get("status_counts", {}))
        self._attempt_counts = {tuple(p): c for p, c in state.get("attempt_counts", [])}
        self._failure_counts = {tuple(p): c for p, c in state.get("failure_counts", [])}
        self._set_quarantine(state.get("quarantine", []))
        self.num_quarantine_hits = state.get("num_quarantine_hits", 0)
        self.num_memo_hits = state.get("num_memo_hits", 0)
        self.num_canon_hits = state.get("num_canon_hits", 0)
        self.num_disk_hits = state.get("num_disk_hits", 0)
        self.num_lint_rejects = state.get("num_lint_rejects", 0)
        self.lint_rule_counts = dict(state.get("lint_rule_counts", {}))
        # Rebuild the canonical index from the memo in insertion order so
        # each class maps to the same first-measured representative an
        # uninterrupted run would have chosen.
        self._canon_index = {}
        for p in self.cache:
            self._canon_index.setdefault(self.canonical_key(p), p)

    # -- results -------------------------------------------------------------

    def best(self) -> Tuple[Optional[Point], float]:
        """The best evaluated point and its performance so far."""
        if not self.cache:
            return None, 0.0
        point = max(self.cache, key=self.cache.get)
        return point, self.cache[point]

    def convergence_curve(self) -> List[Tuple[float, float]]:
        """(simulated seconds, best GFLOPS so far) per measurement —
        the data behind Figure 7."""
        curve = []
        best = 0.0
        for record in self.records:
            best = max(best, record.performance)
            curve.append((record.clock, best))
        return curve

    def time_to_reach(self, target_performance: float) -> Optional[float]:
        """Simulated seconds until the search first reached the target
        (Figure 6d's exploration-time metric); None if never reached."""
        best = 0.0
        for record in self.records:
            best = max(best, record.performance)
            if best >= target_performance:
                return record.clock
        return None
