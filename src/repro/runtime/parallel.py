"""Batched evaluation engine: evaluate candidate points as one batch.

FlexTensor's exploration is embarrassingly parallel per trial — SA
proposes a batch of starting points and the agent scores whole
neighborhoods — so the engine accepts a *list* of candidate points,
serves what it can from the caches, deduplicates the rest by canonical
key, and measures the remainder as one batch (§5.2 runs candidates on
parallel devices; AutoTVM batches its builder/runner the same way).

Measurement is a model query on a simulated clock, so every point is
evaluated in-process and ``workers`` is a billing model:

* ``workers=1`` — the batch is evaluated by literally looping the
  serial :meth:`Evaluator.evaluate`, so seeded tests, fault injection
  and checkpoint/resume stay bit-identical to the pre-engine code path.
* ``workers>1`` — each job's outcome comes from the pure
  :meth:`Evaluator.outcome` and is applied with
  :meth:`Evaluator.apply_outcome`.  The *simulated* clock advances by
  the batch makespan: in submission order, each job's cost goes to the
  least-loaded of W virtual workers (greedy list scheduling), so W
  workers genuinely overlap simulated measurement time — the quantity
  Figures 6d/7 account in.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..space import Point
from .measure import Evaluator

if TYPE_CHECKING:
    from ..explore.surrogate import SurrogateScreen


class BatchEngine:
    """Evaluates batches of points against one :class:`Evaluator`.

    The engine owns no measurement logic — it orchestrates cache
    lookups, deduplication and simulated-clock billing around the
    evaluator's fault-tolerant pipeline (retries, timeout budgets and
    quarantine behave exactly as in the serial path; see
    ``docs/parallel.md``).
    """

    def __init__(
        self,
        evaluator: Evaluator,
        workers: int = 1,
        surrogate: Optional["SurrogateScreen"] = None,
    ):
        self.evaluator = evaluator
        self.workers = max(1, int(workers))
        # Surrogate screen (repro.explore.surrogate): when attached, each
        # batch is ranked after the lint gate and cache probe, and only
        # the top fraction (plus the ε exploration slice) is measured.
        self.surrogate = surrogate
        self.num_batches = 0
        self.num_submitted = 0
        self.num_measured = 0
        self.num_cached = 0
        self.num_deduped = 0
        self.num_lint_rejected = 0
        self.num_screened = 0      # candidates answered by the surrogate
        self.busy_seconds = 0.0    # simulated seconds of worker occupancy
        self.span_seconds = 0.0    # simulated makespan summed over batches
        self.wall_seconds = 0.0    # real time spent inside evaluate_batch

    # -- evaluation --------------------------------------------------------

    def evaluate_batch(self, points: Sequence[Point]) -> List[float]:
        """Performance values for ``points``, in submission order.

        The batch's counters are taken here, once, from the evaluator:
        each submitted point counts exactly once, as measured, lint
        rejected, deduplicated, screened, or else cached (memo, canonical
        index, quarantine or persistent cache).
        """
        ev = self.evaluator
        started = time.perf_counter()
        measured, linted = ev.num_measurements, ev.num_lint_rejects
        skipped = self.num_deduped + self.num_screened
        try:
            if self.surrogate is not None:
                return self._evaluate_screened(points)
            if self.workers > 1:
                return self._evaluate_parallel(points)
            # workers=1: literally the serial loop, so seeded runs stay
            # bit-identical to calling ``evaluator.evaluate`` per point.
            clock = ev.clock
            results = [ev.evaluate(p) for p in points]
            self.span_seconds += ev.clock - clock
            self.busy_seconds += ev.clock - clock
            return results
        finally:
            measured = ev.num_measurements - measured
            linted = ev.num_lint_rejects - linted
            skipped = self.num_deduped + self.num_screened - skipped
            self.num_measured += measured
            self.num_lint_rejected += linted
            self.num_cached += len(points) - measured - linted - skipped
            self.num_batches += 1
            self.num_submitted += len(points)
            self.wall_seconds += time.perf_counter() - started

    def _evaluate_screened(self, points: Sequence[Point]) -> List[float]:
        """The full measure pipeline with the surrogate stage enabled:
        lint gate -> cache probe -> surrogate screen -> measurement.

        Screened-out candidates are answered with the surrogate's
        predicted performance and billed only the model-inference cost
        (near-zero, like a lint reject); the forwarded slice runs through
        the usual serial or batched measurement path.  Every fresh
        measurement is fed back into the surrogate's training set, and
        the screen's ranking is scored against the real results.
        """
        ev = self.evaluator
        surrogate = self.surrogate
        results: List[Optional[float]] = [None] * len(points)
        candidates = self._probe(points, results)
        if not candidates:
            return [r for r in results]
        decision = surrogate.screen([p for _, p in candidates])
        for position, predicted in decision.screened:
            results[candidates[position][0]] = predicted
        self.num_screened += len(decision.screened)
        if decision.cost_seconds:
            # The whole batch pays one (near-zero) inference pass.
            ev.charge(decision.cost_seconds)
            self.span_seconds += decision.cost_seconds
            self.busy_seconds += decision.cost_seconds
        forward_points = [candidates[position][1] for position in decision.forward]
        records_before = len(ev.records)
        if forward_points:
            if self.workers > 1:
                performances = self._evaluate_parallel(forward_points)
            else:
                clock = ev.clock
                performances = [ev.evaluate(p) for p in forward_points]
                self.span_seconds += ev.clock - clock
                self.busy_seconds += ev.clock - clock
            for position, performance in zip(decision.forward, performances):
                results[candidates[position][0]] = performance
        # Online training: every measurement this batch actually ran.
        for record in ev.records[records_before:]:
            surrogate.observe(record.point, record.performance)
        surrogate.note_quality(
            decision,
            [(position, results[candidates[position][0]])
             for position in decision.forward],
        )
        return [r for r in results]

    def _probe(
        self, points: Sequence[Point], results: List[Optional[float]]
    ) -> List[Tuple[int, Point]]:
        """Lint gate, then the free cache/quarantine probe.

        Fills ``results`` for every point answered at zero simulated
        cost and returns ``(index, point)`` of the rest, in submission
        order.  A statically-illegal point never reaches measurement.
        """
        ev = self.evaluator
        candidates: List[Tuple[int, Point]] = []
        for i, point in enumerate(points):
            point = tuple(point)
            rejected = ev.lint_reject(point)
            if rejected is not None:
                results[i] = rejected
                continue
            cached = ev.lookup(point)
            if cached is not None:
                results[i] = cached
                continue
            candidates.append((i, point))
        return candidates

    def _evaluate_parallel(self, points: Sequence[Point]) -> List[float]:
        ev = self.evaluator
        results: List[Optional[float]] = [None] * len(points)
        # 1. Probe, then dedup the remaining candidates by canonical key
        #    so one measurement covers every equivalent submission.
        jobs: List[Tuple[Point, List[int]]] = []
        job_by_key: Dict[Point, int] = {}
        for i, point in self._probe(points, results):
            key = ev.canonical_key(point)
            existing = job_by_key.get(key)
            if existing is not None:
                jobs[existing][1].append(i)
                self.num_deduped += 1
                continue
            job_by_key[key] = len(jobs)
            jobs.append((point, [i]))
        if not jobs:
            return [r for r in results]  # everything was cached
        # 2. Compute outcomes — pure, order-independent.
        outcomes = [
            ev.outcome(point, ev._attempt_counts.get(point, 0)) for point, _ in jobs
        ]
        # 3. Bill simulated time by greedy list scheduling: in submission
        #    order, each job's cost goes to the least-loaded of W virtual
        #    workers.  The batch advances the clock by its makespan and
        #    each record is stamped with its own completion time.
        batch_start = ev.clock
        loads = [0.0] * self.workers
        completions = []
        for outcome in outcomes:
            worker = min(range(self.workers), key=lambda w: loads[w])
            loads[worker] += ev.outcome_cost(outcome)
            completions.append(loads[worker])
        makespan = max(loads)
        # 4. Apply in completion order (stable for ties) so the record
        #    stream and convergence curve have monotone clocks.
        order = sorted(range(len(jobs)), key=lambda j: completions[j])
        for j in order:
            point, indices = jobs[j]
            result = ev.apply_outcome(
                point, outcomes[j], clock=batch_start + completions[j]
            )
            for i in indices:
                results[i] = result.performance
        ev.clock = batch_start + makespan
        self.busy_seconds += sum(loads)
        self.span_seconds += makespan
        return [r for r in results]

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict:
        """Throughput/caching counters for the end-of-tune report."""
        ev = self.evaluator
        simulated = self.span_seconds
        utilization = (
            self.busy_seconds / (simulated * self.workers) if simulated else 0.0
        )
        payload = {
            "workers": self.workers,
            "batches": self.num_batches,
            "points_submitted": self.num_submitted,
            "points_measured": self.num_measured,
            "points_cached": self.num_cached,
            "points_deduped": self.num_deduped,
            "points_lint_rejected": self.num_lint_rejected,
            "points_screened": self.num_screened,
            "lint_rejects": ev.num_lint_rejects,
            "lint_rules": dict(ev.lint_rule_counts),
            "simulated_seconds": simulated,
            "wall_seconds": self.wall_seconds,
            "points_per_simulated_second": (
                self.num_submitted / simulated if simulated else 0.0
            ),
            "points_per_wall_second": (
                self.num_submitted / self.wall_seconds if self.wall_seconds else 0.0
            ),
            "utilization": utilization,
            "cache_hit_rate": (
                self.num_cached / self.num_submitted if self.num_submitted else 0.0
            ),
            "memo_hits": ev.num_memo_hits,
            "canon_hits": ev.num_canon_hits,
            "disk_hits": ev.num_disk_hits,
            "quarantine_hits": ev.num_quarantine_hits,
            "lowering": ev.lowering_memo.stats(),
        }
        if ev.eval_cache is not None:
            payload["eval_cache"] = ev.eval_cache.stats()
        if self.surrogate is not None:
            payload["surrogate"] = self.surrogate.stats()
        return payload
