"""Analytical CPU performance model (multicore + SIMD).

Substitutes for measurement on the Xeon E5-2699 v4.  The knobs FlexTensor
tunes on CPU (Fig. 4a) all move the estimate: fusing more outer loops
exposes parallel chunks (too few chunks starve cores, awkward counts cause
imbalance); the innermost split factor is the vectorization length (AVX2
fits 8 fp32 lanes — the paper notes tuned schedules converge to 8); tile
shapes set the per-core working set against the cache hierarchy; reorder
decides whether the vector unit runs over spatial (good) or reduction
(horizontal-add penalty) loops.  The inputs are the schedule facts of a
point (:func:`repro.schedule.schedule_facts`: the vectorized loop's extent
and role) plus its config, so pricing needs no loop nest.
"""

from __future__ import annotations

import math
from typing import Dict

from ..codegen import flops_of, op_facts, tile_footprint
from ..schedule import (
    REORDER_INTERLEAVED,
    REORDER_REDUCE_INNER,
    REORDER_SPATIAL_INNER,
    ScheduleFacts,
)
from .base import PerformanceModel
from .resources import tensorize_rate
from .specs import CpuSpec

_DTYPE_BYTES = 4

_REORDER_EFFICIENCY = {
    REORDER_REDUCE_INNER: 1.00,
    REORDER_SPATIAL_INNER: 0.90,
    REORDER_INTERLEAVED: 0.96,
}


class CpuModel(PerformanceModel):
    """Time estimator for multicore SIMD CPUs."""

    def __init__(self, spec: CpuSpec):
        super().__init__(spec)

    def measurement_seconds(self, runtime: float) -> float:
        """Compile + repeated timed runs, the CPU tuning cost per trial."""
        spec = self.spec
        return spec.compile_seconds + spec.run_repeats * max(runtime, 1e-5) + 0.1

    def estimate_seconds(self, scheduled: ScheduleFacts) -> float:
        """Predicted kernel seconds under the multicore/SIMD model."""
        if scheduled.target != "cpu":
            raise ValueError(f"CPU model got a {scheduled.target!r} schedule")
        spec = self.spec
        config = scheduled.config
        op = scheduled.op

        # Parallelism: chunks of the fused outer loop over physical cores
        # (the extent the linter's CPU002 starvation rule reads too).
        chunks = scheduled.parallel_extent
        rounds = math.ceil(chunks / spec.num_cores)
        effective_cores = chunks / rounds  # average active cores per round

        # Vectorization of the innermost loop.
        vector_eff = 1.0 / spec.vector_lanes  # scalar baseline
        if scheduled.vector_loop is not None:
            length, role = scheduled.vector_loop
            lanes = spec.vector_lanes
            utilization = length / (math.ceil(length / lanes) * lanes)
            if isinstance(role[0], tuple):  # a fused loop: judge by its innermost part
                role = role[-1]
            kind, axis_idx = role[0], role[1]
            if kind == "reduce":
                utilization *= 0.6  # horizontal reduction at the tail
                axis = op.reduce_axes[axis_idx]
            else:
                axis = op.axes[axis_idx]
            stride_penalty = self._gather_penalty(op, axis)
            vector_eff = utilization * stride_penalty
        if getattr(config, "tensorize", ""):
            # The intrinsic replaces the innermost loops outright: bill its
            # rate relative to full-width fp32 SIMD (dot4 VNNI packs 4 int8
            # MACs per lane, so the rate can exceed 1.0).
            vector_eff = tensorize_rate(config, spec)

        unroll_boost = 1.0 + (0.08 if config.unroll_depth else 0.0)
        # Register blocking quality: the innermost tile should fill the FMA
        # pipelines without spilling (~16 fp32 accumulator registers).
        inner_tile = 1
        for factors in config.spatial_factors:
            inner_tile *= factors[2]
        pipeline_eff = min(1.0, inner_tile / 16.0) ** 0.35
        spill = max(1.0, inner_tile / 64.0)

        flops = flops_of(op)
        compute_time = flops / (
            spec.peak_gflops_per_core
            * 1e9
            * effective_cores
            * vector_eff
            * unroll_boost
            * pipeline_eff
            * _REORDER_EFFICIENCY[config.reorder]
            / spill
        )

        # Memory: per-core working set vs the cache hierarchy.
        tile: Dict = {}
        for axis, factors in zip(op.axes, config.spatial_factors):
            tile[axis] = factors[1] * factors[2]
        for axis, factors in zip(op.reduce_axes, config.reduce_factors):
            tile[axis] = factors[1]
        reduce_total = 1
        for axis in op.reduce_axes:
            reduce_total *= axis.extent
        reduce_inner = 1
        for factors in config.reduce_factors:
            reduce_inner *= factors[1]
        reduce_trips = reduce_total // max(reduce_inner, 1)

        working_set = 0
        tile_loads = 0
        for tensor in op.input_tensors:
            footprint = tile_footprint(op, tensor, tile) * _DTYPE_BYTES
            working_set += footprint
            tile_loads += footprint
        outer_iterations = 1
        for factors in config.spatial_factors:
            outer_iterations *= factors[0]
        l2_bytes = spec.l2_kb * 1024
        if working_set <= l2_bytes:
            miss_factor = 1.0
        else:
            # The tile no longer fits: every reduce pass re-streams it.
            miss_factor = min(working_set / l2_bytes, float(max(reduce_trips, 1)))
        traffic = outer_iterations * tile_loads * miss_factor
        traffic += op.output.size * _DTYPE_BYTES  # stores
        memory_time = traffic / (spec.bandwidth_gbs * 1e9)

        spawn = spec.thread_spawn_us * 1e-6 * min(chunks, spec.num_cores)
        return max(compute_time, memory_time) + spawn

    def _gather_penalty(self, op, axis) -> float:
        """SIMD loads want the vectorized axis contiguous in its inputs."""
        return op_facts(op).gather_penalty(axis)
