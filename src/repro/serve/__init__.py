"""Multi-tenant tuning service (``docs/serve.md``).

``repro.serve`` turns the measurement substrate into
tuning-as-a-service: many tenants submit tuning jobs against one shared
worker pool, EvalCache and RecordBook, and the service guarantees that
**no crash, overload, or poisoned job can lose work or wedge it**:

* :class:`JobStore` — an append-only JSONL write-ahead log (an
  :class:`~repro.runtime.appendlog.AppendLog`) recording every job state
  transition, so a ``kill -9``'d daemon recovers by replaying the log
  and resuming each in-flight job from its atomic checkpoint.
* :class:`Scheduler` — deterministic per-tenant fair share (virtual
  time over simulated measurement seconds) with priority lanes and
  time-sliced preemption via the PR 1 checkpoint machinery.
* Admission control — bounded queue depth, per-tenant quotas and
  token-bucket rate limits, job TTL expiry, and a poisoned-job policy
  (N crashes of one job quarantine the *job*, never the service).
* A high-QPS read path — ``lookup(op, shape, device)`` answered
  straight from the RecordBook's O(1) indexes, enqueueing a tuning job
  on miss; a lookup never measures.

Everything runs on the simulated clock with seeded chaos injection so
tests are deterministic, in the style of ``runtime/fault.py``.
"""

from .jobstore import Job, JobState, JobStore, TERMINAL_STATES
from .scheduler import Scheduler, ServeConfig, TenantPolicy, TokenBucket
from .service import DaemonKilled, ServeChaos, TuningService

__all__ = [
    "DaemonKilled",
    "Job",
    "JobState",
    "JobStore",
    "Scheduler",
    "ServeChaos",
    "ServeConfig",
    "TERMINAL_STATES",
    "TenantPolicy",
    "TokenBucket",
    "TuningService",
]
