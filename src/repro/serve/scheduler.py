"""Deterministic fair-share scheduling and admission control.

The scheduler multiplexes many tenants' tuning jobs over one shared
measurement pool (MetaSchedule-style task scheduling, applied to whole
jobs instead of layers) with two robustness properties:

* **No tenant can starve another.**  Jobs are picked by weighted
  virtual time — each tenant's consumed simulated measurement seconds
  divided by its fair-share weight — so a tenant flooding the queue
  with 100x its quota still only advances its own virtual time and the
  quiet tenant's next job is picked within one slice.  A tenant joining
  mid-run starts at the minimum active virtual time (recorded durably
  on its jobs as ``vtime_floor``), so it is served promptly without
  inheriting unbounded credit.
* **No flood can wedge the queue.**  Admission control rejects before
  work is queued: a global queue-depth bound, a per-tenant cap on
  active (non-terminal) jobs, and a token-bucket rate limit refilled on
  the simulated clock.  Rejections are durable WAL transitions
  (``SUBMITTED -> REJECTED``) with the reason recorded.

Within one tenant, jobs order by priority lane (0 = interactive first)
then submission order.  Virtual time is a *pure function of the job
table* — floors and consumed seconds both live on the WAL-persisted
jobs — so a daemon restarted after ``kill -9`` replays the log and
continues the exact schedule the dead one was executing.  Token
buckets restart full; that is safe because admission outcomes are
themselves durable log transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from .jobstore import Job, JobState


@dataclass
class TenantPolicy:
    """Per-tenant admission and fair-share parameters."""

    share: float = 1.0        # fair-share weight (2.0 = twice the pool)
    max_active: int = 8       # cap on non-terminal jobs at once
    rate: float = 1.0         # token-bucket refill per simulated second
    burst: float = 8.0        # token-bucket capacity


@dataclass
class ServeConfig:
    """Service-wide configuration (see ``docs/serve.md``)."""

    slice_trials: int = 2          # trials per scheduling slice (preemption grain)
    workers: int = 1               # measurement workers per slice
    max_queue: int = 64            # global bound on active jobs
    max_crashes: int = 3           # poisoned-job quarantine threshold
    default_ttl: Optional[float] = None   # simulated-seconds TTL for new jobs
    tenants: Dict[str, TenantPolicy] = field(default_factory=dict)
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)

    def __post_init__(self):
        # A zero-trial slice preempts its job without progress: run() never returns.
        if self.slice_trials < 1:
            raise ValueError(f"slice_trials must be at least 1, got {self.slice_trials}")

    def policy(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, self.default_policy)


class TokenBucket:
    """Deterministic token bucket on the simulated clock."""

    def __init__(self, rate: float, burst: float, clock: float = 0.0):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_clock = float(clock)

    def _refill(self, clock: float) -> None:
        elapsed = max(0.0, clock - self.last_clock)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.last_clock = max(self.last_clock, clock)

    def take(self, clock: float) -> bool:
        """Consume one token if available (refilled up to ``clock``)."""
        self._refill(clock)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class Scheduler:
    """Weighted-virtual-time job picker plus the admission gate."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self._buckets: Dict[str, TokenBucket] = {}

    # -- virtual time (pure function of the job table) ---------------------

    def virtual_times(self, jobs: Iterable[Job]) -> Dict[str, float]:
        """Each tenant's virtual time: its recorded join floor plus its
        consumed simulated seconds over its fair-share weight.  Rejected
        jobs never consumed anything and carry no floor."""
        floors: Dict[str, float] = {}
        consumed: Dict[str, float] = {}
        for job in jobs:
            if job.state is JobState.REJECTED:
                continue
            tenant = job.tenant
            floors[tenant] = max(floors.get(tenant, 0.0), job.vtime_floor)
            share = max(self.config.policy(tenant).share, 1e-9)
            consumed[tenant] = consumed.get(tenant, 0.0) + job.sim_seconds / share
        return {t: floors[t] + consumed[t] for t in floors}

    def join_floor(self, jobs: Iterable[Job], tenant: str) -> float:
        """The virtual-time floor a newly admitted job should carry: the
        tenant's current virtual time if it already has jobs, else the
        minimum over tenants that still have active jobs (0 when idle)."""
        vtimes = self.virtual_times(jobs)
        if tenant in vtimes:
            return 0.0  # floor already established by an earlier job
        active = {job.tenant for job in jobs if not job.terminal}
        candidates = [vt for t, vt in vtimes.items() if t in active]
        return min(candidates, default=0.0)

    # -- admission control -------------------------------------------------

    def admit(
        self, job: Job, active_jobs: int, tenant_active: int, clock: float
    ) -> Tuple[bool, str]:
        """Decide SUBMITTED -> ADMITTED | REJECTED.

        ``active_jobs``/``tenant_active`` count non-terminal jobs
        *excluding* the one being admitted.
        """
        if active_jobs >= self.config.max_queue:
            return False, f"queue full ({active_jobs}/{self.config.max_queue})"
        policy = self.config.policy(job.tenant)
        if tenant_active >= policy.max_active:
            return False, (
                f"tenant quota exceeded ({tenant_active}/{policy.max_active} "
                f"active jobs)"
            )
        if not self._bucket(job.tenant, clock).take(clock):
            return False, f"rate limited ({policy.rate:g}/s, burst {policy.burst:g})"
        return True, ""

    def _bucket(self, tenant: str, clock: float) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            policy = self.config.policy(tenant)
            bucket = TokenBucket(policy.rate, policy.burst, clock)
            self._buckets[tenant] = bucket
        return bucket

    # -- fair-share pick ---------------------------------------------------

    def pick(self, jobs: Iterable[Job]) -> Optional[Job]:
        """The next job to slice, or None when nothing is runnable.

        Tenants order by virtual time; within a tenant, by priority
        lane then submission sequence.  All ties break
        lexicographically — the pick is a deterministic function of the
        job table alone, so a replaying daemon picks identically.
        """
        jobs = list(jobs)
        vtimes = self.virtual_times(jobs)
        best: Optional[Job] = None
        best_key: Optional[Tuple] = None
        for seq, job in enumerate(jobs):
            if not job.runnable:
                continue
            key = (vtimes.get(job.tenant, 0.0), job.tenant, job.priority, seq)
            if best_key is None or key < best_key:
                best, best_key = job, key
        return best

    def stats(self, jobs: Iterable[Job]) -> Dict:
        return {
            "virtual_time": dict(sorted(self.virtual_times(jobs).items())),
            "tokens": {
                tenant: bucket.tokens
                for tenant, bucket in sorted(self._buckets.items())
            },
        }
