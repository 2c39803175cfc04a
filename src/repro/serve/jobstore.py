"""Crash-safe job store: an append-only JSONL write-ahead log.

Every job state transition is one fsync'd line appended to an
:class:`~repro.runtime.appendlog.AppendLog`, so the log is the single
source of truth for the service: a daemon killed at any instant loses at
most the line being appended (which replay then skips), and a restarted
daemon rebuilds every job — including the ones that were mid-flight —
by replaying the log front to back.

Each event carries the *full* job record, not a delta, so replay is
last-event-wins per job and tolerates any prefix of lost lines: the job
simply resumes from its previous durable transition, and the PR 1
checkpoint machinery makes re-running the lost slice bit-identical.

The job lifecycle state machine (``docs/serve.md``)::

    SUBMITTED -> ADMITTED | REJECTED
    ADMITTED  -> RUNNING | CANCELLED
    RUNNING   -> PREEMPTED | DONE | FAILED | CANCELLED | QUARANTINED
    PREEMPTED -> RUNNING | CANCELLED | QUARANTINED

``DONE``/``FAILED``/``CANCELLED``/``QUARANTINED``/``REJECTED`` are
terminal.  Illegal transitions raise at *write* time — the log never
records a transition the machine forbids.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..runtime.appendlog import AppendLog

#: On-disk format version; bump when the event layout changes.
JOBSTORE_VERSION = 1

#: File name of the write-ahead log inside a store directory.
JOBLOG_FILENAME = "jobs.jsonl"


class JobState(str, enum.Enum):
    """Lifecycle states of a tuning job."""

    SUBMITTED = "submitted"      # recorded, admission not yet decided
    ADMITTED = "admitted"        # passed admission control, queued
    RUNNING = "running"          # a scheduler slice is executing it
    PREEMPTED = "preempted"      # checkpointed and requeued (time slice,
                                 # crash requeue, or daemon-crash recovery)
    DONE = "done"                # completed all trials; best recorded
    FAILED = "failed"            # unrecoverable error (bad spec, ...)
    CANCELLED = "cancelled"      # user cancel or TTL/deadline expiry
    QUARANTINED = "quarantined"  # poisoned: crashed max_crashes times
    REJECTED = "rejected"        # admission control refused it


#: States a job can never leave.
TERMINAL_STATES = frozenset({
    JobState.DONE,
    JobState.FAILED,
    JobState.CANCELLED,
    JobState.QUARANTINED,
    JobState.REJECTED,
})

#: The legal transition relation (see the module docstring).
LEGAL_TRANSITIONS: Dict[JobState, frozenset] = {
    JobState.SUBMITTED: frozenset({JobState.ADMITTED, JobState.REJECTED}),
    JobState.ADMITTED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset({
        JobState.PREEMPTED, JobState.DONE, JobState.FAILED,
        JobState.CANCELLED, JobState.QUARANTINED,
    }),
    JobState.PREEMPTED: frozenset({
        JobState.RUNNING, JobState.CANCELLED, JobState.QUARANTINED,
    }),
}


@dataclass
class Job:
    """One tuning job: spec plus the mutable progress the WAL persists."""

    job_id: str
    tenant: str
    operator: str
    params: Dict[str, int]
    device: str
    trials: int
    seed: int = 0
    method: str = "q"
    priority: int = 1               # 0 = interactive, 1 = batch, 2 = background
    ttl_seconds: Optional[float] = None
    state: JobState = JobState.SUBMITTED
    submit_clock: float = 0.0
    vtime_floor: float = 0.0        # tenant's fair-share floor at admission
    start_clock: Optional[float] = None   # clock of the first RUNNING
    finish_clock: Optional[float] = None  # clock of the terminal transition
    trials_done: int = 0
    slices: int = 0                 # RUNNING transitions so far
    sim_seconds: float = 0.0        # simulated measurement seconds consumed
    crashes: int = 0                # job-level crashes (poison counting)
    recoveries: int = 0             # daemon-crash recoveries (not poison)
    reason: str = ""                # why the last transition happened
    best_gflops: float = 0.0
    best_point: Optional[List[int]] = None
    num_measurements: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def runnable(self) -> bool:
        """Whether the scheduler may pick this job for a slice."""
        return self.state in (JobState.ADMITTED, JobState.PREEMPTED)

    @property
    def deadline(self) -> Optional[float]:
        if self.ttl_seconds is None:
            return None
        return self.submit_clock + self.ttl_seconds

    def queue_wait(self) -> Optional[float]:
        """Simulated seconds between submission and the first slice."""
        if self.start_clock is None:
            return None
        return self.start_clock - self.submit_clock

    def to_dict(self) -> Dict:
        payload = asdict(self)
        payload["state"] = self.state.value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "Job":
        payload = dict(payload)
        payload["state"] = JobState(payload["state"])
        payload["params"] = {str(k): int(v) for k, v in payload["params"].items()}
        if payload.get("best_point") is not None:
            payload["best_point"] = [int(x) for x in payload["best_point"]]
        return cls(**payload)


class JobStore:
    """The write-ahead log plus the in-memory job table it materializes.

    ``transition()`` is the only way a job changes state: it validates
    the transition, stamps the event, and appends it fsync'd under the
    fcntl lock *before* the in-memory table is updated — write-ahead in
    the literal sense, so the durable log is never behind what the
    daemon believes.
    """

    def __init__(self, store_dir: Union[str, Path]):
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.jobs: Dict[str, Job] = {}       # insertion = first-seen order
        self.clock = 0.0                     # newest clock seen in the log
        self.next_seq = 1                    # job-id counter (persistent)
        self._events = 0
        self._log = AppendLog(self.path, "job event")
        self.replay()

    @property
    def path(self) -> Path:
        return self.store_dir / JOBLOG_FILENAME

    def checkpoint_path(self, job_id: str) -> Path:
        """The per-job tuner checkpoint file (atomic JSONL, PR 1)."""
        return self.store_dir / f"job-{job_id}.ckpt"

    # -- write-ahead -------------------------------------------------------

    def new_job_id(self, tenant: str) -> str:
        job_id = f"{tenant}-{self.next_seq:04d}"
        self.next_seq += 1
        return job_id

    def submit(self, job: Job, clock: float) -> None:
        """Record a brand-new job (its SUBMITTED event)."""
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        if job.state is not JobState.SUBMITTED:
            raise ValueError(f"new job must be SUBMITTED, got {job.state}")
        job.submit_clock = clock
        self._append_event(job, clock)
        self.jobs[job.job_id] = job

    def transition(
        self, job: Job, state: JobState, clock: float, reason: str = ""
    ) -> None:
        """Validate, log, then apply one state transition."""
        allowed = LEGAL_TRANSITIONS.get(job.state, frozenset())
        if state not in allowed:
            raise ValueError(
                f"illegal job transition {job.state.value} -> {state.value} "
                f"for {job.job_id}"
            )
        job.state = state
        job.reason = reason
        if state is JobState.RUNNING:
            if job.start_clock is None:
                job.start_clock = clock
            job.slices += 1
        if state in TERMINAL_STATES:
            job.finish_clock = clock
        self._append_event(job, clock)

    def note(self, kind: str, clock: float, **payload) -> None:
        """Append a service-level event (drain, shutdown, recover, ...)."""
        self._log.append([{
            "v": JOBSTORE_VERSION, "type": "serve-event", "kind": kind,
            "clock": clock, **payload,
        }])
        self.clock = max(self.clock, clock)

    def _append_event(self, job: Job, clock: float) -> None:
        self._events += 1
        self._log.append([{
            "v": JOBSTORE_VERSION, "type": "job-event", "event": self._events,
            "clock": clock, "job": job.to_dict(),
        }])
        self.clock = max(self.clock, clock)

    # -- replay ------------------------------------------------------------

    def replay(self) -> Tuple[Dict[str, Job], float]:
        """Rebuild the job table from the log (last event per job wins).

        Corrupt or truncated lines — the tail a ``kill -9`` can leave —
        are skipped with a warning by the :class:`AppendLog`; the affected
        job falls back to its previous durable transition and its
        checkpoint.
        """
        self.jobs = {}
        self.clock = 0.0
        self._events = 0
        for clock, event, job in self._log.replay(_parse_event):
            self.clock = max(self.clock, clock)
            self._events = max(self._events, event)
            if job is not None:
                # Reassigning a key keeps its dict position: the table stays
                # in first-seen (submission) order, the scheduler's tie-break.
                self.jobs[job.job_id] = job
        self.next_seq = 1 + max(
            (self._seq_of(job_id) for job_id in self.jobs), default=0
        )
        return self.jobs, self.clock

    @staticmethod
    def _seq_of(job_id: str) -> int:
        try:
            return int(job_id.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return 0

    # -- queries -----------------------------------------------------------

    def by_state(self, *states: JobState) -> List[Job]:
        wanted = set(states)
        return [job for job in self.jobs.values() if job.state in wanted]

    def active(self) -> List[Job]:
        """Jobs that still occupy the queue (non-terminal)."""
        return [job for job in self.jobs.values() if not job.terminal]

    def tenant_active(self, tenant: str) -> int:
        return sum(
            1 for job in self.jobs.values()
            if job.tenant == tenant and not job.terminal
        )

    def __len__(self) -> int:
        return len(self.jobs)

    def load_stats(self) -> Dict[str, int]:
        """Load stats of the last :meth:`replay`."""
        return self._log.stats()


def _parse_event(payload: Dict) -> Optional[Tuple[float, int, Optional[Job]]]:
    """``(clock, event, job)`` of a line; None for a newer writer's type."""
    kind = payload.get("type")
    if kind == "serve-event":
        return float(payload.get("clock", 0.0)), 0, None
    if kind != "job-event":
        return None
    job = Job.from_dict(payload["job"])
    return float(payload.get("clock", 0.0)), int(payload.get("event", 0)), job
