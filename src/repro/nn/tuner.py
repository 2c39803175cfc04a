"""Network-level task scheduler: signature dedup + gain-driven trials.

Uniform allocation (``optimize_network``, or ``tune_network`` with
``allocate=False``) hands every layer an identical, independent trial
budget — wasteful twice over: structurally identical layers are tuned
separately, and layers whose schedules have long converged keep burning
measurements that the still-improving layers need.  This module turns
the §6.6 network case study into a *task scheduling* problem in the
style of MetaSchedule/Ansor:

1. **Dedup** — layers are grouped by structural operator identity
   (:func:`~repro.runtime.op_signature_of`, the same signature that keys
   the :class:`~repro.runtime.EvalCache` and the RecordBook's O(1) serve
   index).  Each distinct signature becomes one :class:`TuneTask` whose
   *weight* is the summed ``flops x multiplicity`` of every layer it
   covers, so a task's importance is its contribution to end-to-end
   network time.

2. **Gain-driven allocation** — tuning proceeds in rounds of short trial
   slices, each one ``optimize(checkpoint=..., resume=True,
   checkpoint_every=<slice size>)`` call — sliced tuning is bit-identical
   to one-shot.  The tuner snapshots once, at the slice's last trial:
   the slice is the unit the scheduler commits, so per-trial snapshots
   would be written and never resumed from.
   Every round re-ranks the runnable tasks by *predicted end-to-end
   latency gain*: the observed improvement of the task's network-time
   contribution per trial over its last slice.  Cold tasks (no trials
   yet) rank first, heaviest first; an ε floor forces any task that has
   not been served for ``STARVE_ROUNDS`` rounds into the next round, so
   low-gain tasks are never starved.  Tasks whose improvement curve has
   been flat for ``PATIENCE`` consecutive slices stop early — that is
   where the measurement savings come from — while high-gain tasks may
   run past the uniform per-layer budget (up to ``CAP_BOOST`` times it)
   within the same *global* budget uniform allocation would have spent.

3. **Sharing** — all tasks share one :class:`~repro.runtime.EvalCache`
   and one :class:`~repro.runtime.RecordBook`.  Every improving slice is
   stamped into the record book (with its signature, so ``python -m
   repro lookup`` and the serve read path answer network-layer queries
   directly), and a task's first slice warm-starts from the book's best
   known schedule for its exact signature.  There is no cross-shape
   fallback: another shape's split factors never fit a task's space.

Everything the scheduler decides is a pure function of the seed and the
initial store state: ranking uses no RNG, ties break deterministically
on (weight, task index), and the whole run checkpoints after every
slice, so a kill at a slice boundary resumes bit-identically —
allocation decisions included.  A kill inside a slice re-runs that
slice from the previous boundary.  See ``docs/network.md``.
"""

from __future__ import annotations

import inspect
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..runtime import (
    EvalCache,
    MeasureConfig,
    RecordBook,
    TuningRecord,
    load_checkpoint,
    op_signature_of,
    save_checkpoint,
    workload_key,
)
from ..utils.serialization import config_from_dict, config_to_dict
from .network import (
    LayerResult,
    Network,
    NetworkResult,
    _epilogue_seconds,
    partition_network,
)

#: Workload-family aliases mapping onto the CLI / serve vocabulary, so
#: records stamped by a network tune answer ``python -m repro lookup
#: --op conv2d ...`` (and the serve read path) out of the box.
SERVE_OPERATORS = {"C2D": "conv2d", "GMM": "gemm", "GMV": "gemv"}

#: File name of the scheduler's own checkpoint inside ``checkpoint_dir``.
NETWORK_CHECKPOINT = "network.ckpt"

_SCHEDULER_NAME = "network-scheduler"

#: A slice that moves a task's network-time contribution by no more than
#: this fraction of it is stale; ``PATIENCE`` stale slices end the task.
STALE_REL = 1e-3
#: Consecutive stale slices that end a task, once it has run
#: ``MIN_TRIAL_SLICES`` slices' worth of trials.
PATIENCE = 2
MIN_TRIAL_SLICES = 2
#: The ε floor: a runnable task unserved for this many rounds goes first.
STARVE_ROUNDS = 4
#: A round has one slot per this many tasks (at least one).
TASKS_PER_SLOT = 3
#: A task may run up to this many times the uniform per-layer budget.
CAP_BOOST = 2.0

#: :class:`NetworkTaskScheduler` tuning knobs — meaningless on the flat
#: ``allocate=False`` path, which rejects them.
SCHEDULER_KNOBS = frozenset({
    "slice_trials", "budget_frac", "topup_frac", "max_restarts", "restart_trials",
})


class NetworkKilled(BaseException):
    """Raised by :class:`NetworkChaos` to simulate a hard daemon kill.

    A ``BaseException`` (like serve's ``DaemonKilled``) so ordinary
    ``except Exception`` handlers cannot swallow the kill.
    """


@dataclass
class NetworkChaos:
    """Deterministic kill script for crash-recovery tests.

    ``kill_after_slices=n`` raises :class:`NetworkKilled` immediately
    after the n-th slice (lifetime count, including slices restored from
    a checkpoint) has committed — its task checkpoint and the scheduler
    snapshot are durable, everything after is lost.  Slice boundaries
    are the scheduler's durable commit points, mirroring the tuning
    service's preemption grain.
    """

    kill_after_slices: Optional[int] = None


@dataclass
class TuneTask:
    """One distinct tuning task: a signature and the layers it covers."""

    index: int
    signature: str
    workload: object               # repro.ops.Workload (representative)
    layer_indices: List[int]       # indices into network.layers
    multiplicity: int              # total occurrences covered
    weight_flops: int              # sum of flops x multiplicity over covered layers
    max_trials: int
    # -- mutable tuning state (checkpointed) --------------------------------
    trials_done: int = 0
    best_gflops: float = 0.0
    kernel_seconds: float = float("inf")
    config_dict: Optional[Dict] = None
    curve: List[Tuple[int, float]] = field(default_factory=list)  # (trials, kernel_s)
    num_measurements: int = 0
    exploration_seconds: float = 0.0
    stale_slices: int = 0
    last_served_round: int = -1
    done: bool = False
    done_reason: str = ""
    warm_source: str = ""
    # -- multi-start state: each restart is a fresh search (derived seed,
    #    warm-started from best-so-far); lifetime totals stay monotone.
    restarts: int = 0
    run_trials: int = 0            # trials inside the current (re)start
    measurements_base: int = 0     # measurements from completed earlier runs
    seconds_base: float = 0.0      # exploration clock from earlier runs

    # -- gain model ---------------------------------------------------------

    def latency(self, kernel_seconds: Optional[float] = None) -> float:
        """This task's contribution to end-to-end network time (epilogues
        excluded — they are schedule-independent constants)."""
        seconds = self.kernel_seconds if kernel_seconds is None else kernel_seconds
        if not math.isfinite(seconds):
            return float("inf")
        return seconds * self.multiplicity

    def gain_rate(self) -> float:
        """Observed end-to-end seconds gained per trial over the last
        slice — the marginal-gain estimate the allocator ranks by.
        ``inf`` while the curve is too short to estimate (an unknown
        task is worth exploring)."""
        samples = [s for s in self.curve if math.isfinite(s[1])]
        if len(samples) < 2:
            return float("inf")
        (start_trials, start_s), (end_trials, end_s) = samples[-2:]
        trials = end_trials - start_trials
        if trials <= 0:
            return 0.0
        gained = (start_s - end_s) * self.multiplicity
        return max(0.0, gained) / trials

    # -- checkpointing ------------------------------------------------------

    def get_state(self) -> Dict:
        return {
            "signature": self.signature,
            "trials_done": self.trials_done,
            "best_gflops": self.best_gflops,
            "kernel_seconds": (
                self.kernel_seconds if math.isfinite(self.kernel_seconds) else None
            ),
            "config": self.config_dict,
            "curve": [
                [t, s if math.isfinite(s) else None] for t, s in self.curve
            ],
            "num_measurements": self.num_measurements,
            "exploration_seconds": self.exploration_seconds,
            "stale_slices": self.stale_slices,
            "last_served_round": self.last_served_round,
            "done": self.done,
            "done_reason": self.done_reason,
            "warm_source": self.warm_source,
            "restarts": self.restarts,
            "run_trials": self.run_trials,
            "measurements_base": self.measurements_base,
            "seconds_base": self.seconds_base,
        }

    def set_state(self, state: Dict) -> None:
        self.trials_done = int(state["trials_done"])
        self.best_gflops = float(state["best_gflops"])
        seconds = state["kernel_seconds"]
        self.kernel_seconds = float("inf") if seconds is None else float(seconds)
        self.config_dict = state["config"]
        self.curve = [
            (int(t), float("inf") if s is None else float(s))
            for t, s in state["curve"]
        ]
        self.num_measurements = int(state["num_measurements"])
        self.exploration_seconds = float(state["exploration_seconds"])
        self.stale_slices = int(state["stale_slices"])
        self.last_served_round = int(state["last_served_round"])
        self.done = bool(state["done"])
        self.done_reason = str(state["done_reason"])
        self.warm_source = str(state["warm_source"])
        self.restarts = int(state.get("restarts", 0))
        self.run_trials = int(state.get("run_trials", state["trials_done"]))
        self.measurements_base = int(state.get("measurements_base", 0))
        self.seconds_base = float(state.get("seconds_base", 0.0))


@dataclass
class NetworkTuneResult:
    """Outcome of one network-level tuning run."""

    network: str
    device: str
    method: str
    mode: str                      # "allocated" | "uniform"
    seed: int
    tasks: List[TuneTask]
    layers: List[LayerResult]
    rounds: int
    slices_run: int
    trials_budget: int
    trials_spent: int
    total_measurements: int        # real measurements summed over tasks
    exploration_seconds: float     # summed simulated tuning clock
    wall_seconds: float
    trace: List[Dict] = field(default_factory=list)
    dedup_layers_covered: int = 0  # layers served by an already-seen signature

    @property
    def total_seconds(self) -> float:
        """End-to-end inference time of the whole network."""
        return sum(l.total_seconds for l in self.layers)

    @property
    def gflops(self) -> float:
        total_flops = sum(
            l.layer.workload.flops() * l.layer.multiplicity for l in self.layers
        )
        seconds = self.total_seconds
        return total_flops / seconds / 1e9 if seconds > 0 else 0.0

    @property
    def found(self) -> bool:
        return all(t.best_gflops > 0 for t in self.tasks)

    def to_network_result(self) -> NetworkResult:
        """The classic §6.6 result shape, for existing consumers."""
        return NetworkResult(self.network, self.device, self.method, list(self.layers))

    def state_digest(self) -> Dict:
        """Canonical run outcome for determinism / kill+resume parity
        comparisons — everything except wall-clock time."""
        return {
            "network": self.network,
            "mode": self.mode,
            "seed": self.seed,
            "rounds": self.rounds,
            "slices_run": self.slices_run,
            "trials_spent": self.trials_spent,
            "total_measurements": self.total_measurements,
            "exploration_seconds": self.exploration_seconds,
            "total_seconds": self.total_seconds,
            "trace": self.trace,
            "tasks": [t.get_state() for t in self.tasks],
        }

    def summary(self) -> str:
        lines = [
            f"{self.network} on {self.device} ({self.mode}, method={self.method}): "
            f"{len(self.tasks)} tasks over "
            f"{sum(len(t.layer_indices) for t in self.tasks)} distinct layers",
            f"end-to-end: {self.total_seconds * 1e3:.3f} ms "
            f"({self.gflops:.1f} GFLOPS aggregate)",
            f"budget: {self.trials_spent}/{self.trials_budget} trials in "
            f"{self.rounds} rounds / {self.slices_run} slices, "
            f"{self.total_measurements} real measurements",
        ]
        if self.dedup_layers_covered:
            lines.append(
                f"dedup: {self.dedup_layers_covered} layer(s) served by an "
                f"already-tuned signature at zero cost"
            )
        for task in self.tasks:
            warm = f" warm={task.warm_source}" if task.warm_source else ""
            lines.append(
                f"  task {task.index:>2} x{task.multiplicity} "
                f"{task.workload.operator}:{task.workload.name:<16} "
                f"{task.trials_done:>3} trials {task.best_gflops:8.1f} GFLOPS "
                f"({task.done_reason or 'running'}){warm}"
            )
        return "\n".join(lines)


def _stamp(records: Optional[RecordBook], device_spec, task: TuneTask, result,
           seed: int) -> None:
    """Fold a found schedule into the shared record book under the task's
    serve workload key and signature."""
    if records is None or not result.found:
        return
    alias = SERVE_OPERATORS.get(task.workload.operator, task.workload.operator)
    device = getattr(device_spec, "name", str(device_spec))
    records.add(TuningRecord(
        key=workload_key(alias, task.workload.params, device),
        config=result.config,
        gflops=result.gflops,
        trials=task.trials_done,
        seed=seed,
        signature=task.signature,
    ))


class NetworkTaskScheduler:
    """Round-based gain-driven trial allocator over deduped layer tasks.

    Instantiated (and driven) through :func:`tune_network`; split out as
    a class so tests can exercise the pure planning function
    (:meth:`plan_round`) against synthetic task states.
    """

    def __init__(
        self,
        network: Network,
        device_spec,
        trials: int = 25,
        method: str = "q",
        fuse: bool = True,
        seed: int = 0,
        slice_trials: int = 3,
        budget_frac: float = 1.0,
        topup_frac: float = 0.25,
        max_restarts: int = 1,
        restart_trials: Optional[int] = None,
        records: Optional[RecordBook] = None,
        eval_cache: Optional[EvalCache] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        chaos: Optional[NetworkChaos] = None,
        measure_config: Optional[MeasureConfig] = None,
        **tuner_kwargs,
    ):
        from ..optimize import optimize  # local: avoid an import cycle

        self.network = network
        self.device_spec = device_spec
        self.trials = int(trials)
        self.method = method
        self.fuse = fuse
        self.seed = seed
        self.slice_trials = max(1, int(slice_trials))
        self.min_trials = MIN_TRIAL_SLICES * self.slice_trials
        self.max_restarts = max(0, int(max_restarts))
        # A restart pays a fixed re-seeding overhead before its fresh
        # trajectory can overtake the merged best; a runway shorter than
        # that overhead wastes the entire second run.  The first slice of
        # a restart run is therefore sized to the full runway, and a
        # restart only fires when the remaining budget can fund it.
        self.restart_trials = (
            2 * self.slice_trials
            if restart_trials is None else max(1, int(restart_trials))
        )
        self.measure_config = measure_config
        # A misspelt (or removed) option fails here, before any slice runs.
        inspect.signature(optimize).bind_partial(**tuner_kwargs)
        self.tuner_kwargs = tuner_kwargs
        self.records = records
        self.eval_cache = eval_cache
        self.chaos = chaos
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        if checkpoint_dir is None:
            # Slicing needs per-task checkpoint files even when the caller
            # does not want durability; keep them in a run-scoped temp dir.
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-net-")
            checkpoint_dir = self._tempdir.name
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)

        # -- dedup: one task per distinct operator signature ----------------
        self.tasks: List[TuneTask] = []
        self.task_of_layer: List[int] = []
        self.dedup_layers_covered = 0
        by_signature: Dict[str, int] = {}
        max_trials = max(1, math.ceil(CAP_BOOST * self.trials))
        for layer_index, layer in enumerate(network.layers):
            signature = op_signature_of(
                layer.workload.build(), device_spec,
                measure_config=measure_config,
            )
            task_index = by_signature.get(signature)
            if task_index is None:
                task_index = len(self.tasks)
                by_signature[signature] = task_index
                self.tasks.append(TuneTask(
                    index=task_index,
                    signature=signature,
                    workload=layer.workload,
                    layer_indices=[layer_index],
                    multiplicity=layer.multiplicity,
                    weight_flops=layer.workload.flops() * layer.multiplicity,
                    max_trials=max_trials,
                ))
            else:
                task = self.tasks[task_index]
                task.layer_indices.append(layer_index)
                task.multiplicity += layer.multiplicity
                task.weight_flops += layer.workload.flops() * layer.multiplicity
                self.dedup_layers_covered += 1
            self.task_of_layer.append(task_index)

        self.round_slots = max(1, math.ceil(len(self.tasks) / TASKS_PER_SLOT))
        # Global budget: a fraction of what uniform allocation would
        # spend on the un-deduped layer list (``budget_frac=1.0`` means
        # exactly uniform's spend) — the scheduler may redistribute it,
        # never exceed it.
        self.trials_budget = max(
            1, int(round(float(budget_frac) * self.trials * len(network.layers)))
        )
        self.budget_left = self.trials_budget
        # Trials held back from the gain loop for the headroom-ranked
        # top-up phase, so convergence stops can never starve it.
        self.topup_reserve = int(round(
            max(0.0, min(1.0, float(topup_frac))) * self.trials_budget
        ))
        self.phase = "main"
        self.round_index = 0
        self.slices_run = 0
        self.plan: Optional[List[Tuple[int, str]]] = None
        self.plan_done = 0
        self.trace: List[Dict] = []
        restored = self._restore() if resume else False
        if not restored:
            # A fresh run must not inherit per-task slice checkpoints from
            # an earlier run in the same directory — optimize(resume=True)
            # would silently fast-forward those tasks.
            for stale in self.checkpoint_dir.glob("*.ckpt"):
                stale.unlink()

    # -- checkpointing ------------------------------------------------------

    @property
    def _checkpoint_path(self) -> Path:
        return self.checkpoint_dir / NETWORK_CHECKPOINT

    def _task_checkpoint(self, task: TuneTask) -> Path:
        # One checkpoint file per (task, restart): a restarted search must
        # not resume the trajectory it is restarting away from.
        return self.checkpoint_dir / (
            f"task-{task.index:03d}-r{task.restarts}.ckpt"
        )

    def _task_seed(self, task: TuneTask) -> int:
        """Seed of the task's current search run.  Restart runs use a
        deterministically derived seed so multi-start actually explores a
        different trajectory (still a pure function of the base seed)."""
        if task.restarts == 0:
            return self.seed
        return self.seed + 100_003 * task.restarts + 97 * task.index

    def _save(self) -> None:
        save_checkpoint(self._checkpoint_path, {
            "tuner": _SCHEDULER_NAME,
            "network": self.network.name,
            "seed": self.seed,
            "phase": self.phase,
            "round": self.round_index,
            "plan": [list(entry) for entry in (self.plan or [])],
            "has_plan": self.plan is not None,
            "plan_done": self.plan_done,
            "budget_left": self.budget_left,
            "slices_run": self.slices_run,
            "trace": self.trace,
            "tasks": [task.get_state() for task in self.tasks],
        })

    def _restore(self) -> bool:
        snapshot = load_checkpoint(self._checkpoint_path)
        if snapshot is None:
            return False
        if (
            snapshot.get("tuner") != _SCHEDULER_NAME
            or snapshot.get("network") != self.network.name
            or len(snapshot.get("tasks", ())) != len(self.tasks)
            or any(
                state.get("signature") != task.signature
                for state, task in zip(snapshot["tasks"], self.tasks)
            )
        ):
            import warnings

            warnings.warn(
                f"checkpoint {self._checkpoint_path} does not match this "
                f"network run; starting fresh"
            )
            return False
        self.phase = str(snapshot.get("phase", "main"))
        self.round_index = int(snapshot["round"])
        self.plan = (
            [(int(i), str(reason)) for i, reason in snapshot["plan"]]
            if snapshot.get("has_plan") else None
        )
        self.plan_done = int(snapshot["plan_done"])
        self.budget_left = int(snapshot["budget_left"])
        self.slices_run = int(snapshot["slices_run"])
        self.trace = list(snapshot["trace"])
        for task, state in zip(self.tasks, snapshot["tasks"]):
            task.set_state(state)
        return True

    # -- planning -----------------------------------------------------------

    def plan_round(self, round_index: int, tasks: List[TuneTask]) -> List[Tuple[int, str]]:
        """Choose which runnable tasks get a slice this round.

        A pure function of the task states (no RNG): starved tasks first
        (the ε floor — any runnable task unserved for ``STARVE_ROUNDS``
        rounds), then cold tasks heaviest-first, then warm tasks by
        marginal gain with a deterministic (weight, index) tie-break.
        """
        runnable = [t for t in tasks if not t.done]
        starved = [
            t for t in runnable
            if t.trials_done > 0
            and round_index - t.last_served_round >= STARVE_ROUNDS
        ]
        starved.sort(key=lambda t: (t.last_served_round, t.index))
        cold = [t for t in runnable if t.trials_done == 0]
        cold.sort(key=lambda t: (-t.weight_flops, t.index))
        warm = [t for t in runnable if t.trials_done > 0]
        warm.sort(
            key=lambda t: (-t.gain_rate(), -t.weight_flops, t.index)
        )
        plan: List[Tuple[int, str]] = []
        chosen = set()
        for group, reason in ((starved, "floor"), (cold, "cold"), (warm, "gain")):
            for task in group:
                if len(plan) >= self.round_slots:
                    return plan
                if task.index in chosen:
                    continue
                chosen.add(task.index)
                plan.append((task.index, reason))
        return plan

    # -- warm starting ------------------------------------------------------

    def _warm_start(self, task: TuneTask):
        """Best known schedule for this task's exact signature in the
        shared record book."""
        if self.records is None:
            return None, ""
        exact = self.records.best_for_signature(task.signature)
        if exact is None:
            return None, ""
        return exact.config, "signature"

    # -- slices -------------------------------------------------------------

    def _run_slice(self, task: TuneTask, reason: str) -> None:
        from ..optimize import optimize  # local: avoid an import cycle

        available = self.budget_left
        if self.phase == "main":
            available -= self.topup_reserve
        slice_size = self.slice_trials
        if task.run_trials == 0 and task.restarts > 0:
            # Guaranteed runway: a restart's first slice is the full
            # restart allotment, so the fresh run cannot be re-ranked
            # away before it has had a chance to overtake the merged best.
            slice_size = self.restart_trials
        increment = min(
            slice_size, available, task.max_trials - task.trials_done
        )
        if increment <= 0:
            task.done = True
            task.done_reason = "capped" if available > 0 else "budget"
            return
        warm = None
        first_slice_of_run = task.run_trials == 0
        if first_slice_of_run:
            if task.restarts == 0:
                warm, task.warm_source = self._warm_start(task)
            elif task.config_dict is not None:
                # Multi-start: a restarted search explores from a derived
                # seed but begins at the best schedule found so far.
                warm = config_from_dict(task.config_dict)
        target = task.run_trials + increment
        result = optimize(
            task.workload.build(),
            self.device_spec,
            trials=target,
            method=self.method,
            seed=self._task_seed(task),
            warm_start=warm,
            eval_cache=self.eval_cache,
            measure_config=self.measure_config,
            checkpoint=self._task_checkpoint(task),
            # One tuner snapshot per slice: the slice end is the only
            # point this scheduler commits at (``_drain_plan``).
            checkpoint_every=increment,
            resume=True,
            **self.tuner_kwargs,
        )
        previous_latency = task.latency()
        previous_best = task.best_gflops
        task.run_trials = target
        task.trials_done += increment
        self.budget_left -= increment
        if result.gflops > task.best_gflops:
            # Best-so-far is kept *across* restarts: a restart can improve
            # a task's final schedule, never worsen it.
            task.best_gflops = result.gflops
            task.kernel_seconds = result.kernel_seconds
            task.config_dict = (
                config_to_dict(result.config) if result.config is not None else None
            )
        task.num_measurements = (
            task.measurements_base + result.tuning.num_measurements
        )
        task.exploration_seconds = (
            task.seconds_base + result.tuning.exploration_seconds
        )
        task.curve.append((task.trials_done, task.kernel_seconds))
        # Convergence: a slice that moved this task's network-time
        # contribution by less than ``STALE_REL`` of its value is stale;
        # ``PATIENCE`` consecutive stale slices end the task.
        improvement = previous_latency - task.latency()
        if not math.isfinite(task.latency()):
            task.stale_slices += 1    # still no valid schedule: not improving
        elif not math.isfinite(improvement):
            # First valid schedule: latency went inf -> finite, the
            # largest possible improvement — never a stale slice.
            task.stale_slices = 0
        elif improvement <= STALE_REL * task.latency():
            task.stale_slices += 1
        else:
            task.stale_slices = 0
        if task.trials_done >= task.max_trials:
            task.done = True
            task.done_reason = "capped"
        elif task.trials_done >= self.min_trials and task.stale_slices >= PATIENCE:
            task.done = True
            task.done_reason = "converged"
        if task.best_gflops > previous_best:
            _stamp(self.records, self.device_spec, task, result, self.seed)
        if first_slice_of_run:
            warm_label = "restart" if task.restarts else task.warm_source
        else:
            warm_label = ""
        self.trace.append({
            "round": self.round_index,
            "task": task.index,
            "op": f"{task.workload.operator}:{task.workload.name}",
            "reason": reason,
            "trials": [task.trials_done - increment, task.trials_done],
            "restart": task.restarts,
            "best_gflops": task.best_gflops,
            "kernel_seconds": (
                task.kernel_seconds if math.isfinite(task.kernel_seconds) else None
            ),
            "measurements": task.num_measurements,
            "warm": warm_label,
            "done": task.done_reason,
        })

    def _maybe_kill(self) -> None:
        if (
            self.chaos is not None
            and self.chaos.kill_after_slices is not None
            and self.slices_run >= self.chaos.kill_after_slices
        ):
            raise NetworkKilled(
                f"chaos kill after slice {self.slices_run} commit"
            )

    # -- the allocation loop ------------------------------------------------

    def _drain_plan(self) -> None:
        """Run the current plan's remaining slices, committing after each."""
        while self.plan_done < len(self.plan):
            task_index, reason = self.plan[self.plan_done]
            self._run_slice(self.tasks[task_index], reason)
            self.plan_done += 1
            self.slices_run += 1
            self._save()
            self._maybe_kill()
        self.plan = None
        self.round_index += 1
        self._save()

    def _main_loop(self) -> None:
        """Phase A: gain-driven rounds until the runnable set or the
        budget runs dry."""
        while True:
            if self.plan is None:
                if (
                    self.budget_left <= self.topup_reserve
                    or all(t.done for t in self.tasks)
                ):
                    return
                self.plan = self.plan_round(self.round_index, self.tasks)
                self.plan_done = 0
                if not self.plan:
                    return
                for task_index, _reason in self.plan:
                    self.tasks[task_index].last_served_round = self.round_index
                self._save()
            self._drain_plan()

    def _restart(self, task: TuneTask) -> None:
        """Begin a fresh search run for a plateaued task (multi-start).

        The new run draws a derived seed and warm-starts from the task's
        best schedule so far; best-so-far is merged with ``max`` across
        runs, so a restart can only improve the task's final result."""
        task.measurements_base = task.num_measurements
        task.seconds_base = task.exploration_seconds
        task.restarts += 1
        task.run_trials = 0
        task.stale_slices = 0
        task.done = False
        task.done_reason = ""

    def _topup_loop(self) -> None:
        """Phase B: reinvest leftover budget into the tasks where extra
        trials are most likely to move end-to-end time, up to the
        per-task cap.  This is where measurement savings from early
        convergence turn into latency wins uniform allocation never
        sees: its tail trials are spread evenly, ours are concentrated
        where headroom remains.

        Ranking: latency x headroom x decay^stale.  *Latency* is the
        task's current contribution to end-to-end time — a trial moved
        here can move the network most.  *Headroom* discounts a task by
        how close its best GFLOPS already sits to the best any sibling
        achieved on this device (floored at 10%, because the fleet-best
        task can still improve against itself).  *Staleness decay*
        (x0.5 per consecutive non-improving slice) walks a stalling
        task down the ranking, so the budget rotates deterministically
        across the heavy-with-headroom tasks instead of re-creating
        uniform's even spread.  Deterministic ((latency, index)
        tie-break).  The main loop's ε floor extends here: every
        ``STARVE_ROUNDS``-th plan serves the least-progressed task
        (lowest trials/horizon) regardless of priority, so a light task
        is never starved out of its uniform horizon by heavier tasks'
        decayed probes.

        A chosen converged task below the uniform per-layer horizon
        (``trials`` x completed runs) is **revived** for one slice along
        its existing trajectory — bit-identical to the uniform prefix,
        so these probes only ever converge the task *toward* uniform's
        own result.  Staleness is deliberately NOT reset: a fruitless
        probe re-converges immediately and halves the task's rank
        (geometric backoff), while an improving probe resets it to the
        front of the queue.  A converged task *at* its horizon has
        exhausted the risk-free continuation, so it is **restarted**: a
        fresh search from a derived seed, warm-started at the task's
        best-so-far (multi-start search).  At most ``max_restarts``
        fresh runs per task; best-so-far merges across runs, so neither
        move can ever worsen a task."""
        if self.plan is not None:
            self._drain_plan()
        while self.budget_left > 0:
            candidates = [t for t in self.tasks if self._topup_eligible(t)]
            if not candidates:
                return
            fleet_best = max(t.best_gflops for t in self.tasks)
            def priority(task):
                headroom = max(0.1, 1.0 - task.best_gflops / fleet_best)
                return task.latency() * headroom * 0.5 ** task.stale_slices
            if self.round_index % STARVE_ROUNDS == 0:
                # The ε floor, extended into the top-up phase: every
                # ``STARVE_ROUNDS``-th plan serves the least-progressed
                # eligible task (lowest trials/horizon) regardless of
                # priority, so decayed heavy tasks cannot starve a light
                # task out of its uniform horizon.
                candidates.sort(
                    key=lambda t: (t.trials_done / self._horizon(t), t.index)
                )
            else:
                candidates.sort(
                    key=lambda t: (-priority(t), -t.latency(), t.index)
                )
            pool = candidates
            # Serve one task per plan: the budget check for a restart
            # runway is exact at decision time, and the ranking re-reads
            # the observed curves after every slice.
            plan = None
            for task in pool:
                if not task.done:
                    plan = (task.index, "topup")
                    break
                if (
                    task.done_reason == "converged"
                    and task.trials_done >= self._horizon(task)
                ):
                    if self.budget_left < self.restart_trials:
                        continue    # cannot fund the runway: skip, not waste
                    self._restart(task)
                    plan = (task.index, "restart")
                    break
                # Probe: one slice along the existing trajectory, with
                # staleness (and so the geometric rank backoff) kept.
                task.done = False
                task.done_reason = ""
                plan = (task.index, "revive")
                break
            if plan is None:
                return
            self.plan = [plan]
            self.plan_done = 0
            self._save()
            self._drain_plan()

    def _horizon(self, task: TuneTask) -> int:
        """Lifetime trials at which the task's current run has consumed
        a full uniform per-layer budget — the boundary between risk-free
        continuation (revive probes) and speculative multi-start."""
        return (task.restarts + 1) * self.trials

    def _topup_eligible(self, task: TuneTask) -> bool:
        if task.trials_done >= task.max_trials or task.best_gflops <= 0:
            return False
        if not task.done:
            return True
        if task.done_reason == "budget":
            # Cut off by the main phase's reserve boundary — a phase
            # artifact, not a property of the task; always revivable.
            return True
        if task.done_reason != "converged":
            return False
        if task.trials_done >= self._horizon(task):
            return task.restarts < self.max_restarts
        return True    # under the horizon: continuing the run is always safe

    def run(self) -> NetworkTuneResult:
        start = time.perf_counter()
        try:
            if self.phase == "main":
                self._main_loop()
                self.phase = "topup"
                self._save()
            self._topup_loop()
            for task in self.tasks:
                if not task.done:
                    task.done = True
                    task.done_reason = task.done_reason or "budget"
            self._save()
        finally:
            if self._tempdir is not None:
                self._tempdir.cleanup()
                self._tempdir = None
        return self._result(time.perf_counter() - start)

    def _result(self, wall_seconds: float) -> NetworkTuneResult:
        groups = partition_network(self.network, fuse=self.fuse)
        layers = []
        for layer_index, group in enumerate(groups):
            task = self.tasks[self.task_of_layer[layer_index]]
            epilogue = _epilogue_seconds(
                group.anchor.workload, self.device_spec,
                fused=bool(group.fused_elementwise),
            )
            layers.append(LayerResult(
                group.anchor, task.kernel_seconds, epilogue, task.best_gflops,
            ))
        return NetworkTuneResult(
            network=self.network.name,
            device=getattr(self.device_spec, "name", str(self.device_spec)),
            method=self.method,
            mode="allocated",
            seed=self.seed,
            tasks=self.tasks,
            layers=layers,
            rounds=self.round_index,
            slices_run=self.slices_run,
            trials_budget=self.trials_budget,
            trials_spent=self.trials_budget - self.budget_left,
            total_measurements=sum(t.num_measurements for t in self.tasks),
            exploration_seconds=sum(t.exploration_seconds for t in self.tasks),
            wall_seconds=wall_seconds,
            trace=self.trace,
            dedup_layers_covered=self.dedup_layers_covered,
        )


def _tune_uniform(
    network: Network,
    device_spec,
    trials: int,
    method: str,
    fuse: bool,
    seed: int,
    records: Optional[RecordBook],
    eval_cache: Optional[EvalCache],
    measure_config: Optional[MeasureConfig],
    **tuner_kwargs,
) -> NetworkTuneResult:
    """The flat baseline: every distinct layer tuned independently with
    an identical budget — no dedup, no warm starting, no reallocation —
    but with the same measurement accounting as the scheduler, so the
    two modes are directly comparable (``benchmarks/bench_network.py``)."""
    from ..optimize import optimize  # local: avoid an import cycle

    start = time.perf_counter()
    groups = partition_network(network, fuse=fuse)
    device = getattr(device_spec, "name", str(device_spec))
    tasks: List[TuneTask] = []
    layers: List[LayerResult] = []
    for layer_index, group in enumerate(groups):
        layer = group.anchor
        result = optimize(
            layer.workload.build(), device_spec, trials=trials, method=method,
            seed=seed, eval_cache=eval_cache, measure_config=measure_config,
            **tuner_kwargs,
        )
        task = TuneTask(
            index=layer_index,
            signature=op_signature_of(
                layer.workload.build(), device_spec, measure_config=measure_config,
            ),
            workload=layer.workload,
            layer_indices=[layer_index],
            multiplicity=layer.multiplicity,
            weight_flops=layer.workload.flops() * layer.multiplicity,
            max_trials=trials,
            trials_done=trials,
            best_gflops=result.gflops,
            kernel_seconds=result.kernel_seconds,
            config_dict=(
                config_to_dict(result.config) if result.config is not None else None
            ),
            curve=[(trials, result.kernel_seconds)],
            num_measurements=result.tuning.num_measurements,
            exploration_seconds=result.tuning.exploration_seconds,
            done=True,
            done_reason="uniform",
        )
        tasks.append(task)
        _stamp(records, device_spec, task, result, seed)
        epilogue = _epilogue_seconds(
            layer.workload, device_spec, fused=bool(group.fused_elementwise)
        )
        layers.append(LayerResult(layer, result.kernel_seconds, epilogue, result.gflops))
    return NetworkTuneResult(
        network=network.name,
        device=device,
        method=method,
        mode="uniform",
        seed=seed,
        tasks=tasks,
        layers=layers,
        rounds=0,
        slices_run=len(tasks),
        trials_budget=trials * len(network.layers),
        trials_spent=trials * len(network.layers),
        total_measurements=sum(t.num_measurements for t in tasks),
        exploration_seconds=sum(t.exploration_seconds for t in tasks),
        wall_seconds=time.perf_counter() - start,
    )


def tune_network(
    network: Network,
    device_spec,
    trials: int = 25,
    method: str = "q",
    fuse: bool = True,
    seed: int = 0,
    allocate: bool = True,
    records: Optional[Union[RecordBook, str, Path]] = None,
    eval_cache: Optional[Union[EvalCache, str, Path]] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    chaos: Optional[NetworkChaos] = None,
    measure_config: Optional[MeasureConfig] = None,
    **scheduler_kwargs,
) -> NetworkTuneResult:
    """Tune a whole network through the task scheduler.

    Args:
        network: a :class:`~repro.nn.Network` (e.g. ``yolo_v1()``).
        device_spec: a device from :mod:`repro.model`.
        trials: the per-layer budget anchor.  The global budget is
            ``trials x len(network.layers)`` — exactly what uniform
            allocation spends — and the scheduler redistributes it:
            converged tasks stop early, high-gain tasks may run up to
            ``CAP_BOOST x trials`` (2x).
        method: any :func:`repro.optimize.optimize` method.
        fuse: fuse elementwise epilogues into their producing kernels.
        seed: RNG seed — the whole run, allocation decisions included,
            is a pure function of it (plus the initial store state).
        allocate: ``False`` runs the flat uniform baseline with the same
            accounting (the comparison arm of ``bench_network.py``).
        records: a shared :class:`~repro.runtime.RecordBook` (or path):
            every improving slice is stamped with its signature, and new
            tasks warm-start from the best known schedule for their
            exact signature.
        eval_cache: a shared :class:`~repro.runtime.EvalCache` (or
            cache directory) serving previously measured points across
            tasks and runs.
        checkpoint_dir: directory of the scheduler checkpoint plus the
            per-task slice checkpoints; required for ``resume``.
        resume: restore the scheduler snapshot (if any) and continue —
            a killed run resumes bit-identically, allocation decisions
            included.
        chaos: a :class:`NetworkChaos` kill script (tests).
        measure_config: measurement pipeline policy, folded into task
            signatures.
        **scheduler_kwargs: :class:`NetworkTaskScheduler` knobs
            (``slice_trials``, ``budget_frac``, ``topup_frac``,
            ``max_restarts``, ``restart_trials``) plus any
            :func:`~repro.optimize.optimize` tuner options.  The knobs,
            and ``checkpoint_dir``, ``resume`` and ``chaos``, are rejected
            with ``TypeError`` when ``allocate=False``: the uniform
            baseline has no scheduler and keeps no checkpoints.
    """
    if not allocate:
        ignored = sorted(set(scheduler_kwargs) & SCHEDULER_KNOBS) + [
            name for name, given in (
                ("checkpoint_dir", checkpoint_dir is not None),
                ("resume", resume),
                ("chaos", chaos is not None),
            ) if given
        ]
        if ignored:
            raise TypeError(
                f"no effect with allocate=False: {', '.join(ignored)}"
            )
    records = RecordBook(records) if isinstance(records, (str, Path)) else records
    eval_cache = EvalCache(eval_cache) if isinstance(eval_cache, (str, Path)) else eval_cache
    if not allocate:
        return _tune_uniform(
            network, device_spec, trials=trials, method=method, fuse=fuse,
            seed=seed, records=records, eval_cache=eval_cache,
            measure_config=measure_config, **scheduler_kwargs,
        )
    scheduler = NetworkTaskScheduler(
        network, device_spec, trials=trials, method=method, fuse=fuse,
        seed=seed, records=records, eval_cache=eval_cache,
        checkpoint_dir=checkpoint_dir, resume=resume, chaos=chaos,
        measure_config=measure_config, **scheduler_kwargs,
    )
    return scheduler.run()
