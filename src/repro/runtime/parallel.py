"""Batched evaluation engine: fan candidate points across workers.

FlexTensor's exploration is embarrassingly parallel per trial — SA
proposes a batch of starting points and the agent scores whole
neighborhoods — so the engine accepts a *list* of candidate points,
serves what it can from the caches, deduplicates the rest by canonical
key, and measures the remainder concurrently (§5.2 runs candidates on
parallel devices; AutoTVM batches its builder/runner the same way).

Two execution modes share one billing model:

* ``workers=1`` — the deterministic fallback: the batch is evaluated by
  literally looping the serial :meth:`Evaluator.evaluate`, so seeded
  tests, fault injection and checkpoint/resume stay bit-identical to the
  pre-engine code path.
* ``workers>1`` — measurement is split into a pure worker half
  (:meth:`Evaluator.remote_outcome`, safe to run in a forked pool) and a
  parent billing half (:meth:`Evaluator.apply_remote`).  Real execution
  uses a ``multiprocessing`` fork pool when the host has more than one
  core; otherwise outcomes are computed in-process.  Either way the
  *simulated* clock advances by the batch makespan: in submission order,
  each job's cost goes to the least-loaded of W virtual workers (greedy
  list scheduling), so W workers genuinely overlap simulated measurement
  time — the quantity Figures 6d/7 account in.

Determinism contract: for a fixed evaluator configuration and submission
order, results, records, clock values and caches are identical whether
outcomes were computed by a real pool or in-process — the billing half
never depends on real scheduling order.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..space import Point
from .measure import Evaluator

if TYPE_CHECKING:
    from ..explore.surrogate import SurrogateScreen

#: Fork-inherited evaluator used by pool workers (set by the initializer).
_WORKER_EVALUATOR: Optional[Evaluator] = None


def _pool_init(evaluator: Evaluator) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator


def _pool_measure(job: Tuple[Tuple[int, ...], int]) -> Dict:
    point, base_attempt = job
    return _WORKER_EVALUATOR.remote_outcome(tuple(point), base_attempt)


class BatchEngine:
    """Evaluates batches of points against one :class:`Evaluator`.

    The engine owns no measurement logic — it orchestrates cache
    lookups, deduplication, worker fan-out and simulated-clock billing
    around the evaluator's fault-tolerant pipeline (retries, timeout
    budgets and quarantine behave exactly as in the serial path; see
    ``docs/parallel.md``).
    """

    def __init__(
        self,
        evaluator: Evaluator,
        workers: int = 1,
        use_pool: Optional[bool] = None,
        surrogate: Optional["SurrogateScreen"] = None,
    ):
        self.evaluator = evaluator
        self.workers = max(1, int(workers))
        if use_pool is None:
            use_pool = (
                self.workers > 1
                and (os.cpu_count() or 1) > 1
                and hasattr(os, "fork")
            )
        self.use_pool = bool(use_pool) and self.workers > 1
        # Surrogate screen (repro.explore.surrogate): when attached, each
        # batch is ranked after the lint gate and cache probe, and only
        # the top fraction (plus the ε exploration slice) is measured.
        # Its fit/predict/featurize wall time lands in the evaluator's
        # hot-path profile so TuneResult carries one unified breakdown.
        self.surrogate = surrogate
        if surrogate is not None and getattr(surrogate, "profiler", None) is None:
            surrogate.profiler = evaluator.profiler
        self._pool = None
        self.num_batches = 0
        self.num_submitted = 0
        self.num_measured = 0
        self.num_cached = 0
        self.num_deduped = 0
        self.num_lint_rejected = 0
        self.num_screened = 0      # candidates answered by the surrogate
        self.num_pool_batches = 0  # batches whose outcomes a fork pool computed
        self.busy_seconds = 0.0    # simulated seconds of worker occupancy
        self.span_seconds = 0.0    # simulated makespan summed over batches
        self.wall_seconds = 0.0    # real time spent inside evaluate_batch

    # -- pool lifecycle ----------------------------------------------------

    def _get_pool(self):
        if self._pool is None:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(
                processes=self.workers,
                initializer=_pool_init,
                initargs=(self.evaluator,),
            )
        return self._pool

    def close(self) -> None:
        """Tear down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- evaluation --------------------------------------------------------

    def evaluate_batch(self, points: Sequence[Point]) -> List[float]:
        """Performance values for ``points``, in submission order."""
        started = time.perf_counter()
        try:
            if self.surrogate is not None:
                return self._evaluate_screened(points)
            if self.workers == 1:
                return self._evaluate_serial(points)
            return self._evaluate_parallel(points)
        finally:
            self.wall_seconds += time.perf_counter() - started
            self.num_batches += 1
            self.num_submitted += len(points)

    def _evaluate_serial(self, points: Sequence[Point]) -> List[float]:
        """Bit-reproducible fallback: the exact serial evaluation loop.

        Per-point semantics (duplicate transients re-measure, quarantine
        ordering, clock accounting) are byte-for-byte those of calling
        ``evaluator.evaluate`` in a plain loop — because that is what
        this is.
        """
        ev = self.evaluator
        clock_before = ev.clock
        measured_before = ev.num_measurements
        lint_before = ev.num_lint_rejects
        results = [ev.evaluate(p) for p in points]
        measured = ev.num_measurements - measured_before
        lint_rejected = ev.num_lint_rejects - lint_before
        self.num_measured += measured
        self.num_lint_rejected += lint_rejected
        self.num_cached += len(points) - measured - lint_rejected
        self.span_seconds += ev.clock - clock_before
        self.busy_seconds += ev.clock - clock_before
        return results

    def _evaluate_screened(self, points: Sequence[Point]) -> List[float]:
        """The full measure pipeline with the surrogate stage enabled:
        lint gate -> cache probe -> surrogate screen -> measurement.

        Screened-out candidates are answered with the surrogate's
        predicted performance and billed only the model-inference cost
        (near-zero, like a lint reject); the forwarded slice runs through
        the usual serial or pooled measurement path.  Every fresh
        measurement is fed back into the surrogate's training set, and
        the screen's ranking is scored against the real results.
        """
        ev = self.evaluator
        surrogate = self.surrogate
        results: List[Optional[float]] = [None] * len(points)
        candidates: List[Tuple[int, Point]] = []
        for i, point in enumerate(points):
            point = tuple(point)
            rejected = ev.lint_reject(point)
            if rejected is not None:
                results[i] = rejected
                self.num_lint_rejected += 1
                continue
            cached = ev.lookup(point)
            if cached is not None:
                results[i] = cached
                self.num_cached += 1
                continue
            candidates.append((i, point))
        if not candidates:
            return [r for r in results]
        decision = surrogate.screen([p for _, p in candidates])
        for position, predicted in decision.screened:
            results[candidates[position][0]] = predicted
            self.num_screened += 1
        if decision.cost_seconds:
            # The whole batch pays one (near-zero) inference pass.
            ev.charge(decision.cost_seconds)
            self.span_seconds += decision.cost_seconds
            self.busy_seconds += decision.cost_seconds
        forward_points = [candidates[position][1] for position in decision.forward]
        records_before = len(ev.records)
        if forward_points:
            if self.workers == 1:
                performances = self._evaluate_serial(forward_points)
            else:
                performances = self._evaluate_parallel(forward_points)
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

    def _evaluate_parallel(self, points: Sequence[Point]) -> List[float]:
        ev = self.evaluator
        results: List[Optional[float]] = [None] * len(points)
        # 1. Lint first (a statically-illegal point must never reach the
        #    pool — it is rejected at zero simulated cost), then serve
        #    cache/quarantine hits for free, then dedup the rest by
        #    canonical key so one measurement covers every equivalent
        #    submission in the batch.
        jobs: List[Tuple[Point, int, List[int]]] = []
        job_by_key: Dict[Point, int] = {}
        for i, point in enumerate(points):
            point = tuple(point)
            rejected = ev.lint_reject(point)
            if rejected is not None:
                results[i] = rejected
                self.num_lint_rejected += 1
                continue
            cached = ev.lookup(point)
            if cached is not None:
                results[i] = cached
                self.num_cached += 1
                continue
            key = ev.canonical_key(point)
            existing = job_by_key.get(key)
            if existing is not None:
                jobs[existing][2].append(i)
                self.num_deduped += 1
                continue
            job_by_key[key] = len(jobs)
            jobs.append((point, ev._attempt_counts.get(point, 0), [i]))
        if not jobs:
            return [r for r in results]  # everything was cached
        # 2. Compute outcomes — pure, order-independent.
        if self.use_pool:
            try:
                pool = self._get_pool()
                outcomes = pool.map(
                    _pool_measure, [(list(p), base) for p, base, _ in jobs]
                )
                self.num_pool_batches += 1
            except Exception:
                # A broken pool must never kill the tuning run: fall back
                # to in-process outcomes (identical results by contract).
                self.close()
                self.use_pool = False
                outcomes = [ev.remote_outcome(p, base) for p, base, _ in jobs]
        else:
            outcomes = [ev.remote_outcome(p, base) for p, base, _ in jobs]
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
            point, _base, indices = jobs[j]
            result = ev.apply_remote(
                point, outcomes[j], clock=batch_start + completions[j]
            )
            for i in indices:
                results[i] = result.performance
        ev.clock = batch_start + makespan
        self.num_measured += len(jobs)
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
        if not self.use_pool:
            engine_mode = "serial"
        elif self.num_pool_batches > 0:
            engine_mode = "fork-pool"
        else:
            engine_mode = "in-process-fallback"
        payload = {
            "workers": self.workers,
            # Whether a fork pool actually computed outcomes this run —
            # not the configured mode, which the in-process fallback can
            # silently override (single-core host, broken pool).
            "pool": self.num_pool_batches > 0,
            "pool_mode": self.use_pool,
            "engine_mode": engine_mode,
            "pool_batches": self.num_pool_batches,
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
            "pool_utilization": utilization,
            "cache_hit_rate": (
                self.num_cached / self.num_submitted if self.num_submitted else 0.0
            ),
            "memo_hits": ev.num_memo_hits,
            "canon_hits": ev.num_canon_hits,
            "disk_hits": ev.num_disk_hits,
            "quarantine_hits": ev.num_quarantine_hits,
        }
        if ev.lowering_memo is not None:
            payload["lowering"] = ev.lowering_memo.stats()
        payload["profile"] = ev.profiler.stats()
        if ev.eval_cache is not None:
            payload["eval_cache"] = ev.eval_cache.stats()
        if self.surrogate is not None:
            payload["surrogate"] = self.surrogate.stats()
        return payload

    def report(self) -> str:
        """Human-readable one-paragraph throughput summary."""
        s = self.stats()
        lines = [
            f"throughput: {s['points_submitted']} points in "
            f"{s['simulated_seconds']:.3f} simulated s "
            f"({s['points_per_simulated_second']:.1f} pts/s simulated, "
            f"{s['points_per_wall_second']:.1f} pts/s wall)",
            f"engine: mode={s['engine_mode']} workers={s['workers']} "
            f"pool={'on' if s['pool'] else 'off'} "
            f"utilization={s['pool_utilization']:.0%}",
            f"cache: hit_rate={s['cache_hit_rate']:.0%} "
            f"(memo={s['memo_hits']} canon={s['canon_hits']} "
            f"disk={s['disk_hits']} quarantine={s['quarantine_hits']}) "
            f"deduped={s['points_deduped']}",
        ]
        if s["lint_rejects"]:
            rules = " ".join(
                f"{rule}={count}" for rule, count in sorted(s["lint_rules"].items())
            )
            lines.append(
                f"lint: {s['lint_rejects']} points statically rejected "
                f"at zero cost ({rules})"
            )
        if "eval_cache" in s:
            ec = s["eval_cache"]
            lines.append(
                f"persistent: entries={ec['entries']} stores={ec['stores']} "
                f"hit_rate={ec['hit_rate']:.0%}"
            )
        if "surrogate" in s:
            su = s["surrogate"]
            lines.append(
                f"surrogate: {su['screened']} points screened out at near-zero "
                f"cost ({su['forwarded']} forwarded, {su['explored']} via "
                f"ε-exploration, {su['refits']} refits, rank correlation "
                f"{su['rank_correlation']:.2f})"
            )
        if "lowering" in s and (s["lowering"]["hits"] or s["lowering"]["misses"]):
            lo = s["lowering"]
            lines.append(
                f"lowering memo: hit_rate={lo['hit_rate']:.0%} "
                f"({lo['hits']} hits / {lo['misses']} misses, "
                f"{lo['entries']} structures)"
            )
        profile_line = self.evaluator.profiler.report()
        if "(no instrumented calls)" not in profile_line:
            lines.append(profile_line)
        return "\n".join(lines)
