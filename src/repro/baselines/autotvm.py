"""AutoTVM baseline: template-restricted space + GBT cost model (§6.5).

AutoTVM [9] tunes the *parameters* of a hand-written schedule template.
Relative to FlexTensor's generated space this means:

* a much smaller space — the template fixes the loop structure and only
  exposes power-of-two-flavoured tile sizes (the paper measures
  FlexTensor's C2D space as 2027x larger on average);
* model-guided random sampling — an XGBoost cost model ranks random
  candidate batches and the top ones are measured, with periodic
  retraining (whose time is charged to the simulated clock).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph import MiniGraph, get_graph
from ..ir import ComputeOp
from ..runtime import Evaluator
from ..explore.tuner import BaseTuner, TuneResult
from ..schedule import (
    CPU_REDUCE_PARTS,
    CPU_SPATIAL_PARTS,
    GPU_REDUCE_PARTS,
    GPU_SPATIAL_PARTS,
)
from ..learn import GradientBoostedTrees
from ..space import ChoiceKnob, Point, ScheduleSpace, SplitKnob, factorizations

#: Candidates measured per trial (one batch), random candidates drawn to
#: rank per batch, and the batches proposed at random before the cost
#: model ranks them.
BATCH_SIZE = 8
POOL_SIZE = 256
WARMUP_BATCHES = 2


def _template_split_choices(extent: int, parts: int, inner_caps: Sequence[int]):
    """Template knob choices: divisible factorizations whose non-block
    parts are capped.  Hand templates expose all divisors of an axis but
    bound the virtual-thread and register-tile factors to small values —
    the structural restriction relative to FlexTensor's generated space."""
    allowed = []
    for factors in factorizations(extent, parts):
        ok = True
        for position, factor in enumerate(factors[1:], start=1):
            cap = inner_caps[min(position - 1, len(inner_caps) - 1)]
            if factor > cap:
                ok = False
                break
        if ok:
            allowed.append(factors)
    return allowed or list(factorizations(extent, parts))[:1]


def build_template_space(output, target: str) -> ScheduleSpace:
    """The AutoTVM-style template space for the main compute node."""
    graph = output if isinstance(output, MiniGraph) else get_graph(output)
    op: ComputeOp = graph.main_op
    knobs = []
    if target == "gpu":
        for i, axis in enumerate(op.axes):
            allowed = _template_split_choices(
                axis.extent, GPU_SPATIAL_PARTS, inner_caps=(2, 256, 4)
            )
            knobs.append(SplitKnob(f"sp{i}", axis.extent, GPU_SPATIAL_PARTS, allowed=allowed))
        for i, axis in enumerate(op.reduce_axes):
            allowed = _template_split_choices(
                axis.extent, GPU_REDUCE_PARTS, inner_caps=(16,)
            )
            knobs.append(SplitKnob(f"re{i}", axis.extent, GPU_REDUCE_PARTS, allowed=allowed))
        knobs.append(ChoiceKnob("unroll", [0, 64]))
    elif target == "cpu":
        for i, axis in enumerate(op.axes):
            allowed = _template_split_choices(
                axis.extent, CPU_SPATIAL_PARTS, inner_caps=(8, 16)
            )
            knobs.append(SplitKnob(f"sp{i}", axis.extent, CPU_SPATIAL_PARTS, allowed=allowed))
        for i, axis in enumerate(op.reduce_axes):
            allowed = _template_split_choices(
                axis.extent, CPU_REDUCE_PARTS, inner_caps=(16,)
            )
            knobs.append(SplitKnob(f"re{i}", axis.extent, CPU_REDUCE_PARTS, allowed=allowed))
        knobs.append(ChoiceKnob("unroll", [0, 64]))
        knobs.append(ChoiceKnob("fuse", list(range(1, len(op.axes) + 1))))
    else:
        raise ValueError(f"AutoTVM baseline supports gpu/cpu, not {target!r}")
    return ScheduleSpace(op, target, knobs)


class AutoTVMTuner(BaseTuner):
    """Model-guided random sampling over the template space."""

    name = "autotvm"

    def __init__(
        self,
        evaluator: Evaluator,
        epsilon: float = 0.25,
        model_fit_seconds: float = 3.0,
        seed: int = 0,
    ):
        super().__init__(evaluator, seed=seed)
        self.epsilon = epsilon
        self.model_fit_seconds = model_fit_seconds
        self.model = GradientBoostedTrees()

    def tune(self, trials: int, num_seeds: int = 0) -> TuneResult:
        """Each trial measures one batch of candidates and retrains the
        cost model (once past the random warm-up)."""
        for trial in range(trials):
            # A proposed batch holds distinct points outside H.
            for point in self._propose_batch(trial):
                self._evaluate_batch([point])
            if trial + 1 >= WARMUP_BATCHES and self.evaluated:
                x = np.stack([self.space.features(p) for p in self.evaluated])
                y = np.asarray(list(self.evaluated.values()))
                self.model.fit(x, np.log1p(y))
                # Model training is real tuning time AutoTVM pays.
                self.evaluator.charge(
                    self.model_fit_seconds + 0.005 * len(self.evaluated)
                )
        return self._result()

    def _propose_batch(self, trial: int) -> List[Point]:
        pool = {self.space.random_point(self.rng) for _ in range(POOL_SIZE)}
        pool = [p for p in pool if p not in self.evaluated]
        if not pool:
            return []
        if trial < WARMUP_BATCHES or not self.model.is_fitted:
            idx = self.rng.permutation(len(pool))[:BATCH_SIZE]
            return [pool[i] for i in idx]
        scores = self.model.predict(np.stack([self.space.features(p) for p in pool]))
        order = np.argsort(-scores)
        batch: List[Point] = []
        for rank in order:
            if len(batch) >= BATCH_SIZE:
                break
            if self.rng.random() < self.epsilon:
                continue  # epsilon-greedy: occasionally skip a top pick
            batch.append(pool[rank])
        while len(batch) < BATCH_SIZE and len(batch) < len(pool):
            candidate = pool[int(self.rng.integers(len(pool)))]
            if candidate not in batch:
                batch.append(candidate)
        return batch


def autotvm_optimize(
    output,
    device_spec,
    trials: int = 40,
    seed: int = 0,
    inline_helpers: bool = True,
) -> TuneResult:
    """Run the AutoTVM baseline end to end on one computation.

    ``inline_helpers=False`` models naive templates that materialize the
    data-rearrangement stages (padding / stride expansion) as separate
    kernels; the default matches TOPI-style templates, which inline them.
    """
    from ..graph import get_graph
    from ..model import target_of
    from ..schedule import GraphConfig

    target = target_of(device_spec)
    graph = get_graph(output) if not hasattr(output, "main_op") else output
    space = build_template_space(graph, target)
    if inline_helpers:
        graph_config = GraphConfig()
    else:
        graph_config = GraphConfig(
            inline={op.name: False for op in graph.compute_ops if op is not graph.main_op}
        )
    evaluator = Evaluator(graph, device_spec, space=space, graph_config=graph_config)
    tuner = AutoTVMTuner(evaluator, seed=seed)
    return tuner.tune(trials)
