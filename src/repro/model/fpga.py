"""Analytical FPGA performance model — the paper's §5.2 equation.

    Execution_time = workload / #PE * max(R, C, W)

where ``R``/``C``/``W`` are the read / compute / write stage times of one
round of the three-stage coarse-grained pipeline (Fig. 4c), ``#PE`` the
number of parallel processing elements.  Hardware constraints: the PE
array is bounded by DSP slices, line buffers by BRAM, and the effective
DDR bandwidth scales with the memory partition factor.  Synthesis takes
hours on a real VU9P, which is exactly why the paper (and this
reproduction) evaluates FPGA candidates through this model rather than by
measurement.
"""

from __future__ import annotations

import math
from typing import Dict

from ..analysis.lint import fpga_bram_bytes, fpga_num_pes
from ..codegen import flops_of, tile_footprint
from ..schedule import ScheduleFacts
from .base import INVALID_TIME, PerformanceModel
from .specs import FpgaSpec

_DTYPE_BYTES = 4


class FpgaModel(PerformanceModel):
    """The three-stage-pipeline estimator of §5.2."""

    def __init__(self, spec: FpgaSpec):
        super().__init__(spec)

    def measurement_seconds(self, runtime: float) -> float:
        """One analytical-model query (synthesis is never run)."""
        # Candidates are scored by the analytical model, never synthesized.
        return self.spec.model_query_seconds

    def estimate_seconds(self, scheduled: ScheduleFacts) -> float:
        """The §5.2 pipeline equation under DSP/BRAM constraints."""
        if scheduled.target != "fpga":
            raise ValueError(f"FPGA model got a {scheduled.target!r} schedule")
        spec = self.spec
        config = scheduled.config
        op = scheduled.op

        num_pe = fpga_num_pes(config)
        assert num_pe == scheduled.parallel_extent
        if num_pe > spec.max_pes:
            return INVALID_TIME

        reduce_total = 1
        for axis in op.reduce_axes:
            reduce_total *= axis.extent

        # One round: the PE array produces #PE output elements, each a full
        # reduction.  Buffering more input lines amortizes DDR bursts.
        # The BRAM legality gate shares its arithmetic with the linter
        # (repro.analysis.lint), one source of truth for the budget.
        pe_tile: Dict = {}
        for axis, factors in zip(op.axes, config.spatial_factors):
            pe_tile[axis] = factors[1]
        for axis in op.reduce_axes:
            pe_tile[axis] = axis.extent
        buffer_lines = max(config.fpga_buffer_lines, 1)
        read_bytes = 0
        for tensor in op.input_tensors:
            read_bytes += tile_footprint(op, tensor, pe_tile) * _DTYPE_BYTES
        bram_bytes = fpga_bram_bytes(op, config)
        if bram_bytes > spec.bram_kb * 1024:
            return INVALID_TIME

        partition = min(max(config.fpga_partition, 1), spec.max_partitions)
        # Partitioning multiplies usable banks with diminishing returns.
        bandwidth = spec.ddr_bandwidth_gbs * 1e9 * (1 + 0.75 * math.log2(partition))
        burst_eff = min(1.0, 0.4 + 0.15 * math.log2(1 + buffer_lines))

        cycles = reduce_total  # one MAC per PE per cycle
        compute_stage = cycles / (spec.mhz * 1e6)
        # Line-buffering ``buffer_lines`` rounds of input amortizes each
        # DDR burst across that many rounds.
        read_stage = read_bytes / (bandwidth * burst_eff) / buffer_lines
        write_stage = num_pe * _DTYPE_BYTES / (spec.ddr_bandwidth_gbs * 1e9)

        # The paper's model: time per round is the longest pipeline stage
        # when all three stages overlap; with fewer stages the unoverlapped
        # parts serialize.  Compute is always charged in full.
        if config.fpga_pipeline >= 3:
            round_time = max(read_stage, compute_stage, write_stage)
        elif config.fpga_pipeline == 2:
            round_time = max(compute_stage, read_stage + write_stage)
        else:
            round_time = compute_stage + read_stage + write_stage

        rounds = math.ceil(op.output.size / num_pe)
        return max(rounds * round_time, 1e-9)
