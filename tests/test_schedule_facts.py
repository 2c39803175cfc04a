"""Pricing a point from its config equals pricing its full lowering.

The evaluator prices every measured point from ``schedule_facts``,
which derives what the models read of a schedule without building a loop
nest; ``lower`` still builds the nest for codegen, interpretation and
validation.  These tests pin the two paths together over seeded points
of every Table-3 family on every target, plus tensorized GEMMs:

* the facts equal the values derived from the lowered loops;
* ``estimate_seconds`` is bit-equal on the facts and on the lowering;
* a point that fails lowering gets the same ``MeasureStatus`` and error
  text from both paths.
"""

import numpy as np
import pytest

from repro.model import V100, VU9P, XEON_E5_2699V4
from repro.ops import gemm_compute, gemm_int8_compute
from repro.ops.workloads import OPERATOR_NAMES, SUITES
from repro.runtime import Evaluator
from repro.runtime.measure import MeasureStatus
from repro.schedule import (
    LoweringError,
    LoweringMemo,
    NodeConfig,
    ScheduleFacts,
    TENSORIZE,
    lower,
    schedule_facts,
)
from repro.space import build_space

DEVICES = {"gpu": V100, "cpu": XEON_E5_2699V4, "fpga": VU9P}
POINTS = 12


def lowered_facts(scheduled) -> ScheduleFacts:
    """The facts a lowered schedule's loops give (what the models read).

    ``lower`` takes its vectorized loop and cached tensors from
    ``schedule_facts``, so these two are re-derived here from the nest
    and each target's rules instead: the innermost loop is vectorized
    unless the intrinsic subsumes it (on the GPU only a spatial loop, on
    the FPGA never); the GPU stages its inputs in shared memory when
    ``use_shared`` is set, the FPGA always buffers them in BRAM.
    """
    config, target, last = scheduled.config, scheduled.target, scheduled.loops[-1]
    tensorized = any(loop.annotation == TENSORIZE for loop in scheduled.loops)
    vectorized = (
        target != "fpga" and config.vectorize and not tensorized
        and (target == "cpu" or last.role[0] == "spatial")
    )
    vector_loop = (last.extent, last.role) if vectorized else None
    assert scheduled.vector_loop == vector_loop
    cached = target == "fpga" or (target == "gpu" and config.use_shared)
    return ScheduleFacts(
        scheduled.op, target, config, scheduled.grid_size,
        scheduled.block_threads, scheduled.parallel_extent,
        tuple(scheduled.op.input_tensors) if cached else (), vector_loop,
    )


def full_lowering(ev: Evaluator) -> Evaluator:
    """An evaluator over the same space that prices the full lowering."""
    full = Evaluator(ev.graph, ev.device_spec, space=ev.space)
    full.lower_point = lambda point: lower(
        full.graph, full.space.decode(point), full.target, full.graph_config
    )
    return full


def check_points(ev: Evaluator, seed: int, count: int = POINTS):
    """Compare both pricing paths on ``count`` seeded points; returns the
    statuses seen."""
    full = full_lowering(ev)
    rng = np.random.default_rng(seed)
    statuses = []
    for _ in range(count):
        point = ev.space.random_point(rng)
        config = ev.space.decode(point)
        try:
            scheduled = lower(ev.graph, config, ev.target, ev.graph_config)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                ev.lower_point(point)
            assert str(raised.value) == str(exc)
        else:
            facts = ev.lower_point(point)
            assert facts == lowered_facts(scheduled)
            assert ev.model.estimate_seconds(facts) == ev.model.estimate_seconds(scheduled)
        outcome = ev._attempt_at(point, 0)
        assert outcome == full._attempt_at(point, 0)
        statuses.append(outcome[0])
    return statuses


@pytest.mark.parametrize("target", sorted(DEVICES))
@pytest.mark.parametrize("family", OPERATOR_NAMES)
def test_facts_price_like_the_full_lowering(family, target):
    ev = Evaluator(SUITES[family][0].build(), DEVICES[target])
    statuses = check_points(ev, seed=OPERATOR_NAMES.index(family))
    assert len(statuses) == POINTS


@pytest.mark.parametrize("target,build,intrinsic", [
    ("cpu", lambda: gemm_int8_compute(64, 64, 64), True),
    ("gpu", lambda: gemm_int8_compute(64, 64, 64), False),  # no int8 GPU intrinsic
    ("gpu", lambda: gemm_compute(64, 64, 64), True),
])
def test_tensorized_gemm_prices_and_fails_alike(target, build, intrinsic):
    out = build()
    space = build_space(out, target, tensorize=True)
    assert ("tensorize" in [knob.name for knob in space.knobs]) == intrinsic
    ev = Evaluator(out, DEVICES[target], space=space)
    statuses = check_points(ev, seed=7, count=40)
    if intrinsic:
        # Both legal intrinsic points and TEN rejections were priced.
        assert MeasureStatus.LOWER_ERROR in statuses
        assert MeasureStatus.OK in statuses


class TestFailuresMatchLowering:
    """Configs outside any space raise the same error, in the same
    order of checks, from both paths."""

    OUT = gemm_compute(8, 8, 8, name="g")

    @pytest.mark.parametrize("target,config", [
        ("gpu", NodeConfig(spatial_factors=((2, 4),), reduce_factors=((2, 4),))),
        ("gpu", NodeConfig(spatial_factors=((1, 1, 2, 4), (1, 1, 2, 4)),
                           reduce_factors=((8,),))),
        ("gpu", NodeConfig(spatial_factors=((1, 1, 2, 2), (1, 1, 2, 4)),
                           reduce_factors=((2, 4),))),
        ("cpu", NodeConfig(spatial_factors=((2, 2, 2), (2, 2, 2)),
                           reduce_factors=((2, 4),), fuse_levels=3)),
        ("cpu", NodeConfig(spatial_factors=((2, 2, 2), (2, 2, 2)),
                           reduce_factors=((2, 4),), tensorize="mma_16x16")),
        ("fpga", NodeConfig(spatial_factors=((2, 4), (2, 4)),
                            reduce_factors=((2, 4),))),
        ("tpu", NodeConfig(spatial_factors=((2, 4), (2, 4)),
                           reduce_factors=((8,),))),
    ])
    def test_same_error_text(self, target, config):
        with pytest.raises(ValueError) as lowered:
            lower(self.OUT, config, target)
        for memo in (None, LoweringMemo()):
            with pytest.raises(type(lowered.value)) as priced:
                schedule_facts(self.OUT.op, config, target, memo)
            assert str(priced.value) == str(lowered.value)

    def test_failures_are_never_memoized(self):
        memo = LoweringMemo()
        config = NodeConfig(spatial_factors=((2, 2, 2), (2, 2, 2)),
                            reduce_factors=((2, 4),), fuse_levels=3)
        for _ in range(2):
            with pytest.raises(LoweringError):
                schedule_facts(self.OUT.op, config, "cpu", memo)
        assert memo.stats()["entries"] == 0 and memo.misses == 2
