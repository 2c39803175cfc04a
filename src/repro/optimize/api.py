"""Public optimization API — Algorithm 1 and the user entry point.

``optimize(output, device)`` runs the whole FlexTensor flow on one tensor
computation: front-end static analysis and space generation, back-end
exploration (Q-method by default), and schedule implementation for the
device's target.  The result carries the best schedule, its generated
code, and the exploration statistics the benchmarks report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis import AnalysisResult, ScheduleLinter, analyze
from ..codegen import emit_pseudo, emit_python
from ..explore import (
    FlexTensorTuner,
    PMethodTuner,
    RandomSampleTuner,
    RandomWalkTuner,
    SurrogateScreen,
    TuneResult,
)
from ..graph import MiniGraph, get_graph
from ..model import model_for, target_of
from ..runtime import (
    BatchEngine,
    EvalCache,
    Evaluator,
    FaultInjector,
    MeasureConfig,
    materialization_seconds,
)
from ..schedule import GraphConfig, NodeConfig, Scheduled, lower, schedule_facts
from ..space import ScheduleSpace, build_space

_TUNERS = {
    "q": FlexTensorTuner,
    "p": PMethodTuner,
    "random-walk": RandomWalkTuner,
    "random-sample": RandomSampleTuner,
}


@dataclass
class OptimizeResult:
    """Everything FlexTensor produced for one computation on one device."""

    device: str
    target: str
    analysis: AnalysisResult
    space_size: int
    config: Optional[NodeConfig]
    graph_config: GraphConfig
    schedule: Optional[Scheduled]
    gflops: float
    kernel_seconds: float
    tuning: TuneResult
    evaluator: Evaluator = field(repr=False, default=None)

    @property
    def found(self) -> bool:
        return self.schedule is not None

    def generated_code(self) -> str:
        """The generated (executable) Python kernel for the best schedule."""
        if self.schedule is None:
            raise RuntimeError("no valid schedule was found")
        return emit_python(self.schedule)

    def pseudo_code(self) -> str:
        """Target-flavoured pseudo-code of the best schedule."""
        if self.schedule is None:
            raise RuntimeError("no valid schedule was found")
        return emit_pseudo(self.schedule)

    def summary(self) -> str:
        lines = [
            f"device={self.device} target={self.target}",
            f"space size: {self.space_size:.3g}",
            f"best: {self.gflops:.1f} GFLOPS ({self.kernel_seconds * 1e3:.3f} ms)",
            f"measurements: {self.tuning.num_measurements}, "
            f"simulated exploration: {self.tuning.exploration_seconds:.0f} s",
        ]
        if self.tuning.surrogate is not None and self.tuning.num_screened:
            su = self.tuning.surrogate
            lines.append(
                f"surrogate: {self.tuning.num_screened} points screened out at "
                f"near-zero cost (rank correlation {su['rank_correlation']:.2f})"
            )
        if self.tuning.lint_rejects:
            rules = ", ".join(
                f"{rule}={count}"
                for rule, count in sorted(self.tuning.lint_rules.items())
            )
            lines.append(
                f"lint: {self.tuning.lint_rejects} points statically rejected "
                f"at zero cost ({rules})"
            )
        if self.tuning.num_failures:
            counts = ", ".join(
                f"{status}={count}"
                for status, count in sorted(self.tuning.status_counts.items())
                if status not in ("ok", "flaky_retried", "illegal")
            )
            lines.append(f"failed measurements: {self.tuning.num_failures} ({counts})")
        if self.schedule is not None:
            lines.append("primitives: " + "; ".join(self.schedule.primitives))
        return "\n".join(lines)


def _schedule_for_graph(
    graph, config: NodeConfig, target: str, base: GraphConfig, evaluator: Evaluator
) -> GraphConfig:
    """Algorithm 1, line 8: choose the graph-level schedule.

    With the main node's configuration fixed, compare inlining each helper
    node against materializing it (its own elementwise kernel plus a
    memory round-trip) under the device model, and keep the better choice
    per node.  Inlining wins almost always — which is exactly why the
    paper fixes it as the pre-determined decision — but shows up here as a
    measured decision, not an assumption.
    """
    helpers = [op for op in graph.compute_ops if op is not graph.main_op]
    if not helpers:
        return base
    decisions = dict(base.inline)
    # Inline decisions do not change what the model reads of the main
    # node's schedule, so one set of facts prices every trial.
    facts = schedule_facts(graph.main_op, config, target)
    for helper in helpers:
        candidates = {}
        for inline in (True, False):
            trial = GraphConfig(inline={**decisions, helper.name: inline})
            seconds = evaluator.model.estimate_seconds(facts)
            seconds += materialization_seconds(graph, trial, evaluator.device_spec)
            candidates[inline] = seconds
        decisions[helper.name] = min(candidates, key=candidates.get)
    return GraphConfig(inline=decisions)


def optimize(
    output,
    device_spec,
    trials: int = 40,
    method: str = "q",
    num_seeds: int = 4,
    num_starting_points: int = 4,
    gamma: float = 2.0,
    seed: int = 0,
    graph_config: Optional[GraphConfig] = None,
    space: Optional[ScheduleSpace] = None,
    warm_start: Optional[NodeConfig] = None,
    measure_config: Optional[MeasureConfig] = None,
    fault_injector: Optional[FaultInjector] = None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume: bool = False,
    workers: int = 1,
    cache_dir=None,
    eval_cache: Optional[EvalCache] = None,
    lint: bool = False,
    prune_space: bool = False,
    surrogate: bool = False,
    screen_ratio: float = 0.25,
    tensorize: bool = False,
) -> OptimizeResult:
    """Optimize one tensor computation for one device (Algorithm 1).

    Args:
        output: the output tensor (or mini-graph) of the computation.
        device_spec: a device from :mod:`repro.model` (V100, XEON..., VU9P).
        trials: exploration trials (each expands ``num_starting_points``
            points; the Q-method trains its network every 5 trials).
        method: "q" (FlexTensor), "p", "random-walk" or "random-sample".
        num_seeds: heuristic + random seed points evaluated up front.
        num_starting_points: SA starting points per trial.
        gamma: SA temperature of the starting-point distribution.
        seed: RNG seed (the whole run is deterministic given it).
        graph_config: graph-level decisions; defaults to inlining helper
            nodes (Algorithm 1 line 8).
        space: pre-built schedule space (rebuilt from analysis otherwise).
        warm_start: a previously tuned configuration (e.g. from a
            :class:`~repro.runtime.RecordBook`) evaluated before searching.
            One that does not encode in this space is dropped with a
            warning.
        measure_config: timeout / retry / quarantine policy of the
            measurement pipeline (``docs/robustness.md``).
        fault_injector: a :class:`~repro.runtime.FaultInjector` imposing
            simulated compile errors, hangs and flaky measurements.
        checkpoint: path of a JSONL checkpoint file; tuner state is
            snapshotted every ``checkpoint_every`` trials and after the
            last trial when set.
        checkpoint_every: snapshot period in trials (at least 1),
            counted from the trial this call starts or resumes at.  The
            default 1 makes every trial durable, which the tuning
            service relies on; the network scheduler passes its slice
            size for one snapshot per slice (``docs/robustness.md``).
        resume: restore the newest checkpoint snapshot (if any) and
            continue the interrupted run from its trial index.
        workers: candidate evaluations per batch.  1 (default) keeps the
            bit-reproducible serial path; >1 overlaps simulated
            measurement time across that many virtual workers —
            ``docs/parallel.md``.
        cache_dir: directory of a persistent cross-run evaluation cache;
            warm runs serve previously measured (canonical) points for
            free.  ``None`` (default) disables persistence.
        eval_cache: a pre-built :class:`~repro.runtime.EvalCache` to use
            instead of constructing one from ``cache_dir`` — lets many
            ``optimize()`` calls (e.g. the network task scheduler's
            per-task trial slices, ``repro.nn.tuner``) share one
            in-memory cache without re-reading its backing file per call.
            Takes precedence over ``cache_dir``.
        lint: run the static schedule linter (``repro.analysis.lint``)
            on every candidate before measuring; statically-illegal
            points are rejected at zero simulated cost with
            ``MeasureStatus.ILLEGAL``.  Off by default so existing seeded
            trajectories (clock values, measurement counts) stay
            bit-identical; the best point found is the same either way.
        prune_space: shrink split-knob choices that are unconditionally
            illegal on this device (one axis alone busting a budget)
            before exploring — ``docs/lint.md``.
        surrogate: screen candidate batches through an online learned
            cost model (``repro.explore.surrogate``): after the lint gate
            and cache probe, only the top ``screen_ratio`` fraction of
            each batch (plus an ε-greedy exploration slice) is actually
            measured; the rest are answered with the model's prediction
            at near-zero simulated cost.  Off by default so seeded
            trajectories stay bit-identical — ``docs/surrogate.md``.
        screen_ratio: fraction of each ranked batch forwarded to real
            measurement when ``surrogate`` is on.
        tensorize: add the ``tensorize`` knob to the space when any
            registered intrinsic (``repro.analysis.INTRINSICS``)
            statically matches the computation's innermost loops — the
            search then chooses between scalar/vectorized code and the
            intrinsic.  Off by default so existing spaces (and seeded
            trajectories over them) stay bit-identical —
            ``docs/tensorize.md``.
    """
    graph = output if isinstance(output, MiniGraph) else get_graph(output)
    # Front-end: static analysis + schedule space (pruned + rearranged).
    analysis = analyze(graph)
    target = target_of(device_spec)
    space = space or build_space(
        graph, target, spec=device_spec if prune_space else None,
        tensorize=tensorize,
    )
    graph_config = graph_config or GraphConfig()

    # Back-end: exploration over the space.
    linter = ScheduleLinter(space.op, target, device_spec) if lint else None
    if eval_cache is None:
        eval_cache = EvalCache(cache_dir) if cache_dir else None
    evaluator = Evaluator(
        graph, device_spec, space=space, graph_config=graph_config,
        measure_config=measure_config, fault_injector=fault_injector,
        eval_cache=eval_cache, linter=linter,
    )
    try:
        tuner_cls = _TUNERS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(_TUNERS)}"
        ) from None
    seed_points = []
    if warm_start is not None:
        try:
            seed_points.append(space.encode(warm_start))
        except (KeyError, ValueError, IndexError) as exc:
            # The stored config lies outside this space (another shape's
            # split factors, or a pruned knob): search without it.
            warnings.warn(
                f"warm_start dropped: it does not encode in this space ({exc!r})"
            )
    screen = (
        SurrogateScreen(space, screen_ratio=screen_ratio, seed=seed)
        if surrogate
        else None
    )
    engine = BatchEngine(evaluator, workers=workers, surrogate=screen)
    tuner = tuner_cls(
        evaluator,
        gamma=gamma,
        num_starting_points=num_starting_points,
        seed=seed,
        seed_points=seed_points,
        engine=engine,
    )
    tuning = tuner.tune(
        trials,
        num_seeds=num_seeds,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )

    # Schedule implementation for the chosen point (Algorithm 1, line 8:
    # Schedule_for_graph — decide the graph-level inline placements).
    if tuning.found:
        config = space.decode(tuning.best_point)
        graph_config = _schedule_for_graph(graph, config, target, graph_config, evaluator)
        scheduled = lower(graph, config, target, graph_config)
        kernel_seconds = evaluator.model.estimate_seconds(scheduled)
        kernel_seconds += materialization_seconds(graph, graph_config, device_spec)
        gflops = evaluator.flops / kernel_seconds / 1e9
    else:
        config = None
        scheduled = None
        kernel_seconds = float("inf")
        gflops = 0.0

    return OptimizeResult(
        device=device_spec.name,
        target=target,
        analysis=analysis,
        space_size=space.size,
        config=config,
        graph_config=graph_config,
        schedule=scheduled,
        gflops=gflops,
        kernel_seconds=kernel_seconds,
        tuning=tuning,
        evaluator=evaluator,
    )


def tune_workload(
    workload,
    device_spec,
    records=None,
    trials: int = 40,
    **kwargs,
) -> OptimizeResult:
    """Tune a :class:`~repro.ops.Workload` with RecordBook warm-starting.

    If ``records`` holds a best configuration for this (workload, device),
    the search starts from it; the run's outcome is appended back, so a
    record book monotonically improves across sessions.
    """
    from ..runtime.records import TuningRecord, workload_key

    output = workload.build()
    key = workload_key(workload.operator, workload.params, device_spec.name)
    warm = None
    if records is not None:
        best = records.best(key)
        if best is not None:
            warm = best.config
    result = optimize(
        output, device_spec, trials=trials, warm_start=warm, **kwargs
    )
    if records is not None and result.found:
        records.add(TuningRecord(
            key=key,
            config=result.config,
            gflops=result.gflops,
            trials=trials,
            seed=kwargs.get("seed", 0),
            signature=result.evaluator.op_signature(),
        ))
    if records is not None and result.tuning.throughput is not None:
        records.add_metrics({"key": key, **result.tuning.throughput})
    return result


@dataclass
class GraphOptimizeResult:
    """Algorithm 1 over a multi-node graph: one tuned schedule per
    non-inlinable node (reduction helpers and the root), plus the
    end-to-end time of running them in post order."""

    device: str
    target: str
    node_results: Dict[str, OptimizeResult] = field(default_factory=dict)
    node_order: List[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(r.kernel_seconds for r in self.node_results.values())

    @property
    def gflops(self) -> float:
        flops = sum(r.evaluator.flops for r in self.node_results.values())
        return flops / self.total_seconds / 1e9

    def summary(self) -> str:
        lines = [f"graph schedule on {self.device}: {len(self.node_order)} scheduled nodes"]
        for name in self.node_order:
            result = self.node_results[name]
            lines.append(
                f"  {name}: {result.kernel_seconds * 1e6:.1f} us "
                f"({result.gflops:.1f} GFLOPS)"
            )
        lines.append(f"  total: {self.total_seconds * 1e6:.1f} us")
        return "\n".join(lines)


def optimize_graph(
    output,
    device_spec,
    trials: int = 25,
    **kwargs,
) -> GraphOptimizeResult:
    """Optimize every schedulable node of a multi-node computation.

    Algorithm 1 lines 4-7 in full: the mini-graph is traversed in post
    order; elementwise helpers are inlined into their consumers, while
    nodes that cannot be inlined — reductions (softmax's row-max/row-sum,
    layernorm's mean/variance) and the root — each get their own schedule
    search on the same device.  The result reports per-node schedules and
    the end-to-end time.
    """
    from ..ir import Reduce

    graph = output if isinstance(output, MiniGraph) else get_graph(output)
    anchors = [
        op
        for op in graph.compute_ops
        if op is graph.main_op or isinstance(op.body, Reduce)
    ]
    result = GraphOptimizeResult(
        device=device_spec.name, target=target_of(device_spec)
    )
    for anchor in anchors:
        node_result = optimize(anchor.output, device_spec, trials=trials, **kwargs)
        result.node_results[anchor.name] = node_result
        result.node_order.append(anchor.name)
    return result
