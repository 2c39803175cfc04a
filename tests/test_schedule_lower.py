"""Tests for target-specific lowering (§5.3): structure and validation."""

import pytest

from repro.ops import conv2d_compute, gemm_compute
from repro.schedule import (
    BLOCK_X,
    GraphConfig,
    LoweringError,
    NodeConfig,
    PARALLEL,
    PE_PARALLEL,
    REORDER_INTERLEAVED,
    REORDER_REDUCE_INNER,
    REORDER_SPATIAL_INNER,
    THREAD_X,
    UNROLL,
    VECTORIZE,
    VTHREAD,
    lower,
)


def gemm_gpu_config(**kw):
    base = dict(
        spatial_factors=((2, 1, 2, 2), (1, 2, 2, 2)),
        reduce_factors=((2, 4),),
    )
    base.update(kw)
    return NodeConfig(**base)


class TestGpuLowering:
    def setup_method(self):
        self.out = gemm_compute(8, 8, 8, name="g")

    def test_structure(self):
        sch = lower(self.out, gemm_gpu_config(), "gpu")
        assert sch.target == "gpu"
        annotations = [l.annotation for l in sch.loops]
        assert annotations[0] == BLOCK_X
        assert annotations[1] == THREAD_X
        assert VTHREAD in annotations

    def test_grid_and_threads(self):
        sch = lower(self.out, gemm_gpu_config(), "gpu")
        assert sch.grid_size == 2 * 1
        assert sch.block_threads == 2 * 2

    def test_shared_memory_caching(self):
        sch = lower(self.out, gemm_gpu_config(use_shared=True), "gpu")
        assert len(sch.cached_tensors) == 2
        sch = lower(self.out, gemm_gpu_config(use_shared=False), "gpu")
        assert sch.cached_tensors == ()

    def test_reorder_reduce_inner_places_reduce_last(self):
        sch = lower(self.out, gemm_gpu_config(reorder=REORDER_REDUCE_INNER, vectorize=False), "gpu")
        last = sch.loops[-1]
        assert last.role[0] == "reduce"

    def test_reorder_spatial_inner_places_spatial_last(self):
        sch = lower(self.out, gemm_gpu_config(reorder=REORDER_SPATIAL_INNER), "gpu")
        assert sch.loops[-1].role[0] == "spatial"

    def test_vectorize_only_on_spatial_innermost(self):
        sch = lower(self.out, gemm_gpu_config(reorder=REORDER_REDUCE_INNER, vectorize=True), "gpu")
        # innermost is a reduce loop -> no vectorize annotation
        assert all(l.annotation != VECTORIZE for l in sch.loops)
        sch = lower(self.out, gemm_gpu_config(reorder=REORDER_SPATIAL_INNER, vectorize=True), "gpu")
        assert sch.loops[-1].annotation == VECTORIZE

    def test_unroll_marks_inner_serial_loops(self):
        sch = lower(self.out, gemm_gpu_config(unroll_depth=64, vectorize=False), "gpu")
        assert any(l.annotation == UNROLL for l in sch.loops)

    def test_primitive_trace_records_table2_primitives(self):
        sch = lower(self.out, gemm_gpu_config(unroll_depth=16), "gpu")
        text = "; ".join(sch.primitives)
        for primitive in ("split", "fuse", "bind", "reorder", "unroll", "cache"):
            assert primitive in text, f"missing {primitive} in trace"

    def test_wrong_parts_rejected(self):
        with pytest.raises(LoweringError):
            lower(self.out, NodeConfig(
                spatial_factors=((2, 4), (2, 4)), reduce_factors=((8,),)
            ), "gpu")

    def test_wrong_axis_count_rejected(self):
        with pytest.raises(LoweringError):
            lower(self.out, NodeConfig(
                spatial_factors=((2, 1, 2, 2),), reduce_factors=((2, 4),)
            ), "gpu")

    def test_unknown_target_rejected(self):
        with pytest.raises(LoweringError):
            lower(self.out, gemm_gpu_config(), "tpu")


class TestCpuLowering:
    def setup_method(self):
        self.out = gemm_compute(8, 8, 8, name="g")
        self.config = NodeConfig(
            spatial_factors=((2, 2, 2), (2, 2, 2)),
            reduce_factors=((2, 4),),
            fuse_levels=2,
        )

    def test_parallel_outer_loop(self):
        sch = lower(self.out, self.config, "cpu")
        assert sch.loops[0].annotation == PARALLEL
        assert sch.loops[0].extent == 4  # 2 * 2 fused outer parts

    def test_fuse_levels_cap(self):
        with pytest.raises(LoweringError):
            lower(self.out, self.config.with_(fuse_levels=3), "cpu")

    def test_vectorize_innermost(self):
        sch = lower(self.out, self.config, "cpu")
        assert sch.loops[-1].annotation == VECTORIZE

    def test_parallel_extent_property(self):
        sch = lower(self.out, self.config, "cpu")
        assert sch.parallel_extent == 4


class TestFpgaLowering:
    def setup_method(self):
        self.out = gemm_compute(8, 8, 8, name="g")
        self.config = NodeConfig(
            spatial_factors=((2, 4), (4, 2)),
            reduce_factors=((8,),),
            fpga_partition=4,
            fpga_pipeline=3,
            fpga_buffer_lines=2,
        )

    def test_pe_loop(self):
        sch = lower(self.out, self.config, "fpga")
        pe_loops = sch.loops_with(PE_PARALLEL)
        assert len(pe_loops) == 1
        assert pe_loops[0].extent == 4 * 2
        assert sch.parallel_extent == 8

    def test_fpga_primitives_recorded(self):
        sch = lower(self.out, self.config, "fpga")
        text = "; ".join(sch.primitives)
        for primitive in ("pipeline", "partition", "buffer"):
            assert primitive in text

    def test_inputs_buffered(self):
        sch = lower(self.out, self.config, "fpga")
        assert len(sch.cached_tensors) == 2


class TestGraphConfigInlining:
    def test_helper_nodes_inlined_by_default(self):
        out = conv2d_compute(1, 2, 6, 6, 2, 3, padding=1, name="c")
        config = NodeConfig(
            spatial_factors=((1, 1, 1, 1), (1, 1, 2, 1), (2, 1, 3, 1), (2, 1, 3, 1)),
            reduce_factors=((2, 1), (3, 1), (3, 1)),
        )
        sch = lower(out, config, "gpu")
        assert len(sch.inlined) == 1  # the padding node
        assert any("inline" in p for p in sch.primitives)

    def test_inlining_can_be_disabled(self):
        out = conv2d_compute(1, 2, 6, 6, 2, 3, padding=1, name="c")
        config = NodeConfig(
            spatial_factors=((1, 1, 1, 1), (1, 1, 2, 1), (2, 1, 3, 1), (2, 1, 3, 1)),
            reduce_factors=((2, 1), (3, 1), (3, 1)),
        )
        graph_config = GraphConfig(inline={"c_pad": False})
        sch = lower(out, config, "gpu", graph_config)
        assert sch.inlined == ()


class TestNodeConfigValidation:
    def test_bad_reorder(self):
        with pytest.raises(ValueError):
            NodeConfig(spatial_factors=((1,),), reorder=9)

    def test_bad_unroll(self):
        with pytest.raises(ValueError):
            NodeConfig(spatial_factors=((1,),), unroll_depth=7)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            NodeConfig(spatial_factors=((0, 2),))

    def test_as_vector_roundtrips_values(self):
        config = gemm_gpu_config(unroll_depth=16)
        vector = config.as_vector()
        assert 16 in vector
        assert len(vector) > 8

    def test_with_replaces(self):
        config = gemm_gpu_config()
        assert config.with_(unroll_depth=64).unroll_depth == 64
        assert config.unroll_depth == 0  # frozen original untouched


class TestValidateSchedule:
    def test_valid_schedules_pass(self):
        from repro.schedule import validate_schedule

        out = gemm_compute(8, 8, 8, name="g")
        for target, config in (
            ("gpu", gemm_gpu_config()),
            ("cpu", NodeConfig(spatial_factors=((2, 2, 2), (2, 2, 2)),
                               reduce_factors=((2, 4),), fuse_levels=2)),
            ("fpga", NodeConfig(spatial_factors=((2, 4), (4, 2)),
                                reduce_factors=((8,),))),
        ):
            validate_schedule(lower(out, config, target))

    def test_random_space_points_are_bijections(self):
        import numpy as np

        from repro.schedule import validate_schedule
        from repro.space import build_space

        out = gemm_compute(12, 6, 8, name="g")
        rng = np.random.default_rng(0)
        for target in ("gpu", "cpu", "fpga"):
            space = build_space(out, target)
            for _ in range(4):
                config = space.decode(space.random_point(rng))
                validate_schedule(lower(out, config, target))

    def test_corrupted_index_map_detected(self):
        from repro.ir import IntImm
        from repro.schedule import ScheduleValidationError, validate_schedule

        out = gemm_compute(8, 8, 8, name="g")
        scheduled = lower(out, gemm_gpu_config(), "gpu")
        axis = out.op.axes[0]
        scheduled.index_map = dict(scheduled.index_map)
        scheduled.index_map[axis] = IntImm(0)  # constant: not a bijection
        with pytest.raises(ScheduleValidationError):
            validate_schedule(scheduled)

    def test_quick_report_mentions_bijection(self):
        from repro.schedule import quick_report

        out = gemm_compute(8, 8, 8, name="g")
        lines = quick_report(lower(out, gemm_gpu_config(), "gpu"))
        assert any("bijection" in line for line in lines)
