"""Analytical GPU performance model.

Substitutes for real measurement on V100 / P100 / Titan X (see DESIGN.md).
The model charges the two classical terms — compute throughput degraded by
occupancy, warp granularity and instruction-level parallelism, and memory
traffic degraded by coalescing — and takes their max per wave of thread
blocks, plus kernel launch overhead.  The inputs are the schedule facts of
a point (:func:`repro.schedule.schedule_facts`: grid size, block threads,
cached tensors, the vectorized loop) plus its config, so pricing needs no
loop nest, and the knobs FlexTensor tunes (tiling, binding, shared-memory
caching, unroll, reorder, vectorize) all move the estimate the way they
move real kernels:

* more threads/blocks -> better latency hiding, until register/shared
  memory pressure throttles occupancy;
* larger register tiles -> more reuse and ILP, until spilling;
* shared-memory caching -> traffic drops by the tile reuse factor, cost is
  occupancy;
* thread binding onto a stride-1 axis -> coalesced loads.
"""

from __future__ import annotations

import math

from ..analysis.lint import (
    gpu_active_blocks,
    gpu_block_tile,
    gpu_register_estimate,
    gpu_smem_bytes,
)
from ..codegen import coalescing_efficiency, flops_of, tensor_reads, tile_footprint
from ..schedule import (
    REORDER_INTERLEAVED,
    REORDER_REDUCE_INNER,
    REORDER_SPATIAL_INNER,
    ScheduleFacts,
)
from .base import INVALID_TIME, PerformanceModel
from .resources import tensorize_rate
from .specs import GpuSpec

_REORDER_EFFICIENCY = {
    REORDER_REDUCE_INNER: 1.00,   # accumulate in registers, spill never
    REORDER_SPATIAL_INNER: 0.88,  # accumulator re-read every reduce step
    REORDER_INTERLEAVED: 0.96,
}

_DTYPE_BYTES = 4


class GpuModel(PerformanceModel):
    """Time estimator for CUDA-class devices."""

    def __init__(self, spec: GpuSpec):
        super().__init__(spec)

    # -- measurement cost (drives Figures 6d / 7) ------------------------

    def measurement_seconds(self, runtime: float) -> float:
        """Compile + repeated timed runs, the GPU tuning cost per trial."""
        spec = self.spec
        return spec.compile_seconds + spec.run_repeats * max(runtime, 1e-5) + 0.2

    # -- the model --------------------------------------------------------

    def estimate_seconds(self, scheduled: ScheduleFacts) -> float:
        """Predicted kernel seconds under the occupancy/coalescing model."""
        if scheduled.target != "gpu":
            raise ValueError(f"GPU model got a {scheduled.target!r} schedule")
        spec = self.spec
        config = scheduled.config
        op = scheduled.op

        threads_per_block = scheduled.block_threads
        grid = scheduled.grid_size
        if threads_per_block > spec.max_threads_per_block:
            return INVALID_TIME

        # Per-thread register tile: vthread and inner parts of each axis.
        acc_tile = 1
        for factors in config.spatial_factors:
            acc_tile *= factors[1] * factors[3]
        inner_tile = 1
        for factors in config.spatial_factors:
            inner_tile *= factors[3]

        reduce_total = 1
        for axis in op.reduce_axes:
            reduce_total *= axis.extent
        reduce_inner = 1
        for factors in config.reduce_factors:
            reduce_inner *= factors[1]
        reduce_outer_trips = reduce_total // max(reduce_inner, 1)

        # Shared memory: the block's input tiles for one reduce-outer step.
        # Static legality (footprints, register pressure, occupancy) comes
        # from repro.analysis.lint so the linter and this model can never
        # disagree on what is rejected.
        block_tile = gpu_block_tile(op, config)
        smem_bytes = gpu_smem_bytes(op, config, scheduled.cached_tensors)
        if scheduled.cached_tensors and smem_bytes > spec.shared_mem_per_block:
            return INVALID_TIME

        registers = gpu_register_estimate(config)
        spill_penalty = 1.0
        if registers > spec.max_registers_per_thread:
            spill_penalty = registers / spec.max_registers_per_thread

        # Occupancy (the register cap is applied inside gpu_active_blocks).
        active_blocks = gpu_active_blocks(spec, threads_per_block, smem_bytes, registers)
        if active_blocks == 0:
            return INVALID_TIME
        occupancy = active_blocks * threads_per_block / spec.max_threads_per_sm

        # Compute term.
        flops = flops_of(op)
        warp_eff = threads_per_block / (math.ceil(threads_per_block / 32) * 32)
        latency_hiding = min(1.0, math.sqrt(occupancy) * 1.05)
        ilp_bonus = min(1.25, 1.0 + 0.06 * math.log2(1 + inner_tile))
        per_thread_work = acc_tile * reduce_total
        loop_overhead = per_thread_work / (per_thread_work + 12.0)
        unroll_boost = 1.0 + (0.06 if config.unroll_depth else 0.0)
        efficiency = (
            warp_eff
            * min(1.0, latency_hiding * ilp_bonus)
            * loop_overhead
            * unroll_boost
            * _REORDER_EFFICIENCY[config.reorder]
            / spill_penalty
        )
        compute_time = flops / (spec.peak_gflops * 1e9 * max(efficiency, 1e-4))
        # Tensorized inner loops run on the mma units at their own rate.
        compute_time /= tensorize_rate(config, spec)

        # Memory term.
        thread_axis, run_threads = self._fastest_thread_axis(scheduled)
        traffic = 0.0
        if scheduled.cached_tensors:
            for tensor in scheduled.cached_tensors:
                per_step = tile_footprint(op, tensor, block_tile) * _DTYPE_BYTES
                coalesce = coalescing_efficiency(op, tensor, thread_axis, run_threads)
                traffic += grid * per_step * reduce_outer_trips / coalesce
        else:
            reads = tensor_reads(op)
            iteration_total = op.output.size * reduce_total
            l2_catch = 0.2  # implicit cache captures some reuse
            for ref in reads:
                coalesce = coalescing_efficiency(op, ref.tensor, thread_axis, run_threads)
                traffic += iteration_total * _DTYPE_BYTES * l2_catch / coalesce
        store_coalesce = _store_coalescing(op, thread_axis, run_threads)
        store_bytes = op.output.size * _DTYPE_BYTES / store_coalesce
        vector_boost = 1.0
        vector_loop = scheduled.vector_loop
        if vector_loop is not None and vector_loop[0] % 4 == 0:
            vector_boost = 1.08  # float4 transactions
        memory_time = (traffic + store_bytes) / (
            spec.bandwidth_gbs * 1e9 * vector_boost
        )

        # Wave quantization: a partial last wave wastes SM compute, so the
        # compute term divides by occupancy of the wave grid.  Memory is
        # different: a modest number of in-flight warps can already stream
        # a large fraction of DRAM bandwidth, so the memory term divides by
        # a gentler request-parallelism factor.
        wave_capacity = active_blocks * spec.num_sms
        waves = math.ceil(grid / wave_capacity)
        tail_eff = grid / (waves * wave_capacity)
        inflight = grid * min(threads_per_block, 128)
        mem_parallel = min(1.0, math.sqrt(inflight / (spec.num_sms * 256.0)))
        kernel_time = max(
            compute_time / max(tail_eff, 1e-3),
            memory_time / max(mem_parallel, 0.02),
        )
        return kernel_time + spec.kernel_launch_us * 1e-6

    def _fastest_thread_axis(self, scheduled: ScheduleFacts):
        """(axis, run length): the original axis whose thread part varies
        fastest inside the fused threadIdx (the last axis with a thread
        factor > 1) and how many consecutive threads walk it."""
        config = scheduled.config
        op = scheduled.op
        fastest, run = None, 1
        for axis, factors in zip(op.axes, config.spatial_factors):
            if factors[2] > 1:
                fastest, run = axis, factors[2]
        return fastest, run


def _store_coalescing(op, thread_axis, run_threads: int) -> float:
    """Warp coalescing of the output writes."""
    from ..codegen import output_write_stride

    floor = 1.0 / 8.0
    if thread_axis is None:
        return floor
    stride = output_write_stride(op, thread_axis)
    if stride == 0:
        return floor  # thread axis is a reduce axis: serialized writes
    return min(1.0, max(floor, run_threads / (8.0 * stride)))
