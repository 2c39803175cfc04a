"""The tuning service: WAL-backed job execution and lookups.

:class:`TuningService` is one daemon process' view of a *store
directory* — the write-ahead job log, one atomic checkpoint file per
job, and the shared :class:`~repro.runtime.EvalCache` and
:class:`~repro.runtime.RecordBook` behind the fcntl locks.  Because
every durable artifact lives in the store, the daemon itself is
stateless: ``kill -9`` it at any instant, construct a new service on
the same directory, and it replays the log, preempts whatever was
mid-flight, and resumes each job from its checkpoint bit-identically
(the crash-recovery contract ``test_daemon_kill_recovery_is_bit_identical``
in ``tests/test_serve.py`` asserts).

Execution is time-sliced: one :meth:`step` runs one slice
(``slice_trials`` trials) of the fair-share scheduler's pick through
the ordinary ``optimize()`` checkpoint machinery — preempt is
literally "checkpoint + requeue", resume is "restore".  A slice that
raises is a *job* crash: the job is requeued with its crash counter
bumped, and ``max_crashes`` crashes quarantine the job, never the
service (the same policy ``runtime/measure.py`` applies to poisoned
points).

Chaos (:class:`ServeChaos`) is deterministic and test-facing, in the
style of ``runtime/fault.py``: scripted daemon kills at slice
boundaries and scripted per-job crash slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..model import DEVICES
from ..ops import convolution as _conv
from ..ops import linalg as _linalg
from ..ops.workloads import _BUILDERS
from ..runtime.cache import EvalCache
from ..runtime.records import RecordBook, TuningRecord, workload_key
from .jobstore import Job, JobState, JobStore
from .scheduler import Scheduler, ServeConfig

#: Operator registry for job specs: CLI-style names plus every Table 3
#: suite abbreviation from ``ops/workloads.py``.
OPERATORS = {
    "gemm": _linalg.gemm_compute,
    "gemv": _linalg.gemv_compute,
    "conv2d": _conv.conv2d_compute,
    **_BUILDERS,
}

#: File names inside a store directory (beside ``jobs.jsonl``).
RECORDS_FILENAME = "records.jsonl"
EVALCACHE_DIRNAME = "evalcache"


class DaemonKilled(BaseException):
    """Scripted hard kill of the daemon (chaos).

    Derives from ``BaseException`` so no well-meaning ``except
    Exception`` handler inside the service can swallow it — the loop
    dies exactly as ``kill -9`` would, leaving the WAL and checkpoints
    wherever they were.
    """


class JobCrash(RuntimeError):
    """Scripted in-job crash (chaos): poisons the *job*, not the daemon."""


@dataclass
class ServeChaos:
    """Deterministic fault script for the service loop.

    * ``kill_at_slice`` — raise :class:`DaemonKilled` during global
      slice N (0-based), at the nastiest window: after the slice's work
      and checkpoint are durable but *before* the WAL commit, so the
      checkpoint is ahead of the log and recovery must reconcile.
    * ``kill_before_run`` — kill during slice N instead *before* any
      work, right after the RUNNING transition is logged: the WAL shows
      an in-flight job whose slice never happened.
    * ``crash_slices`` — per-job poison script: ``{job_id: (k, ...)}``
      crashes that job's k-th RUNNING slice (0-based, counted per job).
    """

    kill_at_slice: Optional[int] = None
    kill_before_run: Optional[int] = None
    crash_slices: Dict[str, Tuple[int, ...]] = field(default_factory=dict)


class TuningService:
    """Multi-tenant tuning daemon over one crash-safe store directory."""

    def __init__(
        self,
        store_dir: Union[str, Path],
        config: Optional[ServeConfig] = None,
        chaos: Optional[ServeChaos] = None,
    ):
        self.store = JobStore(store_dir)
        self.config = config or ServeConfig()
        self.scheduler = Scheduler(self.config)
        self.chaos = chaos
        self.records = RecordBook(self.store.store_dir / RECORDS_FILENAME)
        self.cache_dir = self.store.store_dir / EVALCACHE_DIRNAME
        self.clock = self.store.clock
        self.draining = False
        self.slices_run = 0          # global slices this *process* ran
        self.num_lookups = 0
        self.num_lookup_hits = 0
        self.num_lookup_enqueued = 0
        # What the DONE commit of the last slice stamps into the record
        # book (None: the slice did not finish its job with a schedule).
        self._finished: Optional[TuningRecord] = None
        self.recovered_jobs = self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> List[str]:
        """Replay cleanup: any job the log shows RUNNING was in flight
        when the previous daemon died.  Preempt it — its checkpoint (and
        possibly a slice of work the WAL never committed) is intact, and
        the next slice reconciles by resuming from the checkpoint."""
        recovered = []
        for job in self.store.jobs.values():
            if job.state is JobState.RUNNING:
                job.recoveries += 1
                self.store.transition(
                    job, JobState.PREEMPTED, self.clock,
                    reason="daemon-crash recovery",
                )
                recovered.append(job.job_id)
        if recovered:
            self.store.note("recover", self.clock, jobs=recovered)
        return recovered

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        tenant: str,
        operator: str,
        params: Dict[str, int],
        device: str,
        trials: int = 8,
        seed: int = 0,
        method: str = "q",
        priority: int = 1,
        ttl_seconds: Optional[float] = None,
    ) -> Job:
        """Submit one tuning job; admission is decided (and logged)
        synchronously.  The returned job is ADMITTED or REJECTED."""
        if int(trials) < 1:
            raise ValueError(f"trials must be at least 1, got {trials!r}")
        if operator not in OPERATORS:
            raise ValueError(
                f"unknown operator {operator!r}; expected one of {sorted(OPERATORS)}"
            )
        if device not in DEVICES:
            raise ValueError(f"unknown device {device!r}")
        job = Job(
            job_id=self.store.new_job_id(tenant),
            tenant=tenant,
            operator=operator,
            params=dict(params),
            device=device,
            trials=int(trials),
            seed=seed,
            method=method,
            priority=priority,
            ttl_seconds=(
                ttl_seconds if ttl_seconds is not None else self.config.default_ttl
            ),
        )
        # A fresh job id must never inherit an orphaned checkpoint (a
        # corrupt WAL tail can recycle the sequence number).
        leftover = self.store.checkpoint_path(job.job_id)
        if leftover.exists():
            leftover.unlink()
        self.store.submit(job, self.clock)
        if self.draining:
            ok, reason = False, "service draining"
        else:
            ok, reason = self.scheduler.admit(
                job,
                active_jobs=len(self.store.active()) - 1,
                tenant_active=self.store.tenant_active(tenant) - 1,
                clock=self.clock,
            )
        if ok:
            job.vtime_floor = self.scheduler.join_floor(
                [j for j in self.store.jobs.values() if j is not job], tenant
            )
            self.store.transition(job, JobState.ADMITTED, self.clock)
        else:
            self.store.transition(job, JobState.REJECTED, self.clock, reason=reason)
        return job

    def cancel(self, job_id: str, reason: str = "cancelled by user") -> bool:
        """Cancel a queued or preempted job (no-op on terminal jobs)."""
        job = self.store.jobs.get(job_id)
        if job is None or job.terminal or job.state is JobState.RUNNING:
            return False
        self.store.transition(job, JobState.CANCELLED, self.clock, reason=reason)
        return True

    # -- the scheduling loop -----------------------------------------------

    def advance(self, seconds: float) -> None:
        """Advance the simulated clock without running work (idle time:
        lets TTLs expire and token buckets refill deterministically)."""
        self.clock += max(0.0, float(seconds))
        self._expire()

    def _expire(self) -> None:
        for job in self.store.jobs.values():
            if job.terminal or job.state is JobState.RUNNING:
                continue
            deadline = job.deadline
            if deadline is not None and self.clock > deadline:
                self.store.transition(
                    job, JobState.CANCELLED, self.clock,
                    reason=f"ttl expired ({job.ttl_seconds:g}s)",
                )

    def step(self) -> Optional[str]:
        """Run one scheduling slice; returns the job id sliced, or None
        when idle (nothing runnable, or draining)."""
        self._expire()
        if self.draining:
            return None
        job = self.scheduler.pick(self.store.jobs.values())
        if job is None:
            return None
        chaos = self.chaos
        slice_index = self.slices_run
        self.slices_run += 1
        self.store.transition(job, JobState.RUNNING, self.clock)
        if chaos and chaos.kill_before_run == slice_index:
            raise DaemonKilled(f"chaos kill before slice {slice_index}")
        try:
            if chaos and (job.slices - 1) in chaos.crash_slices.get(job.job_id, ()):
                raise JobCrash(
                    f"chaos crash in {job.job_id} slice {job.slices - 1}"
                )
            done = self._run_slice(job)
        except DaemonKilled:
            raise
        except Exception as exc:  # a poisoned job must not take the service down
            job.crashes += 1
            if job.crashes >= self.config.max_crashes:
                self.store.transition(
                    job, JobState.QUARANTINED, self.clock,
                    reason=f"quarantined after {job.crashes} crashes: {exc}",
                )
            else:
                self.store.transition(
                    job, JobState.PREEMPTED, self.clock,
                    reason=f"crash {job.crashes}/{self.config.max_crashes}: {exc}",
                )
            return job.job_id
        if chaos and chaos.kill_at_slice == slice_index:
            # The slice's checkpoint and cache lines are durable, the WAL
            # commit below never happens — the kill -9 window recovery
            # must reconcile (checkpoint ahead of the log).
            raise DaemonKilled(f"chaos kill at slice {slice_index} commit")
        if done:
            self.store.transition(job, JobState.DONE, self.clock, reason="completed")
            if self._finished is not None:
                self.records.add(self._finished)
        else:
            self.store.transition(
                job, JobState.PREEMPTED, self.clock, reason="time slice"
            )
        return job.job_id

    def _run_slice(self, job: Job) -> bool:
        """Run one checkpointed slice of a job; True when it finished.

        ``optimize(resume=True)`` restores the job's checkpoint (if
        any), runs up to ``slice_trials`` further trials, and snapshots
        after every trial — so however the daemon dies, the next slice
        continues from the last durable trial bit-identically."""
        from ..optimize import optimize  # local: avoid an import cycle

        output = OPERATORS[job.operator](**job.params)
        device = DEVICES[job.device]
        target_trials = min(job.trials, job.trials_done + self.config.slice_trials)
        result = optimize(
            output,
            device,
            trials=target_trials,
            seed=job.seed,
            method=job.method,
            checkpoint=self.store.checkpoint_path(job.job_id),
            # Every trial durable, not only the slice end: the daemon may
            # die anywhere inside a slice (see the docstring).
            checkpoint_every=1,
            resume=True,
            workers=self.config.workers,
            # A fresh open per slice: the cache replays what other slices
            # and processes made durable since.
            eval_cache=EvalCache(self.cache_dir),
        )
        slice_seconds = result.tuning.exploration_seconds - job.sim_seconds
        job.trials_done = target_trials
        job.sim_seconds = result.tuning.exploration_seconds
        job.num_measurements = result.tuning.num_measurements
        job.best_gflops = result.gflops
        job.best_point = (
            list(result.tuning.best_point)
            if result.tuning.best_point is not None else None
        )
        self.clock += max(0.0, slice_seconds)
        done = job.trials_done >= job.trials
        # A finished job's best schedule goes to the shared record book
        # (the read path's source of truth).  Only the record is kept:
        # the result would hold the evaluator, its space and its open
        # cache into the next slice.
        self._finished = None
        if done and result.found:
            self._finished = TuningRecord(
                key=workload_key(job.operator, job.params, job.device),
                config=result.config,
                gflops=result.gflops,
                trials=job.trials,
                seed=job.seed,
                signature=result.evaluator.op_signature(),
            )
        return done

    def run(self, max_slices: Optional[int] = None) -> int:
        """Drive slices until idle (or ``max_slices``); returns the
        number of slices executed by this call."""
        executed = 0
        while max_slices is None or executed < max_slices:
            if self.step() is None:
                break
            executed += 1
        return executed

    # -- the read path -----------------------------------------------------

    def lookup(
        self,
        operator: str,
        params: Dict[str, int],
        device: str,
        tenant: str = "anonymous",
        enqueue: bool = False,
        trials: int = 8,
        seed: int = 0,
    ) -> Optional[TuningRecord]:
        """High-QPS read path: the best known schedule for (op, shape,
        device) straight from the RecordBook's O(1) index, or None on a
        miss (optionally enqueueing a tuning job to fill it).  A lookup
        never measures."""
        self.num_lookups += 1
        record = self.records.best(workload_key(operator, params, device))
        if record is not None:
            self.num_lookup_hits += 1
            return record
        if enqueue and not self.draining:
            job = self.submit(
                tenant, operator, params, device, trials=trials, seed=seed,
                priority=2,  # background lane: misses must not preempt tenants
            )
            if job.state is JobState.ADMITTED:
                self.num_lookup_enqueued += 1
        return None

    # -- drain / shutdown --------------------------------------------------

    def drain(self) -> None:
        """Stop admitting and stop slicing; queued work stays durable.
        Running slices never span a ``drain()`` call (steps are
        synchronous), so every job is already checkpointed."""
        if not self.draining:
            self.draining = True
            self.store.note("drain", self.clock)

    def shutdown(self) -> None:
        """Drain plus a durable shutdown marker (clean-exit evidence)."""
        self.drain()
        self.store.note("shutdown", self.clock)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict:
        jobs = list(self.store.jobs.values())
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        waits = [w for j in jobs if (w := j.queue_wait()) is not None]
        return {
            "clock": self.clock,
            "jobs": len(jobs),
            "by_state": dict(sorted(by_state.items())),
            "active": len(self.store.active()),
            "slices_run": self.slices_run,
            "recovered_jobs": list(self.recovered_jobs),
            "draining": self.draining,
            "lookups": self.num_lookups,
            "lookup_hits": self.num_lookup_hits,
            "lookup_enqueued": self.num_lookup_enqueued,
            "max_queue_wait": max(waits, default=0.0),
            "records": len(self.records),
            "scheduler": self.scheduler.stats(jobs),
        }

    def status_table(self) -> str:
        """Human-readable per-job table for ``python -m repro status``."""
        lines = [
            f"{'job':<16} {'tenant':<10} {'state':<12} {'trials':>8} "
            f"{'gflops':>8} {'wait':>7}  reason"
        ]
        for job in self.store.jobs.values():
            wait = job.queue_wait()
            lines.append(
                f"{job.job_id:<16} {job.tenant:<10} {job.state.value:<12} "
                f"{job.trials_done:>3}/{job.trials:<4} "
                f"{job.best_gflops:>8.1f} "
                f"{wait if wait is not None else float('nan'):>7.2f}  "
                f"{job.reason}"
            )
        return "\n".join(lines)
