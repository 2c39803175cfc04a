"""Symbolic bijection validation (ISSUE #3): the mixed-radix proof must
accept every lowered schedule at any space size, reject corrupted index
maps even when enumeration is impossible, and agree with exhaustive
enumeration where both apply."""

import numpy as np
import pytest

from repro.ir import IntImm, Sub
from repro.ops import conv2d_compute, gemm_compute
from repro.schedule import lower
from repro.schedule.validate import (
    ScheduleValidationError,
    _validate_by_enumeration,
    _validate_symbolic,
    validate_schedule,
)
from repro.space import build_space

LARGE = 200_000  # the old enumeration cutoff


def random_schedules(output, target, count, seed=0):
    space = build_space(output, target)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield lower(output, space.decode(space.random_point(rng)), target)


def iteration_space(scheduled):
    size = 1
    for axis in scheduled.op.all_axes:
        size *= axis.extent
    return size


class TestSymbolicProof:
    @pytest.mark.parametrize("target", ["gpu", "cpu", "fpga"])
    def test_proves_large_gemm_spaces(self, target):
        out = gemm_compute(1024, 1024, 1024)
        for scheduled in random_schedules(out, target, 20):
            assert iteration_space(scheduled) > LARGE
            _validate_symbolic(scheduled)      # must not raise
            validate_schedule(scheduled)       # full pipeline, no fallback

    @pytest.mark.parametrize("target", ["gpu", "cpu"])
    def test_proves_large_conv2d_spaces(self, target):
        out = conv2d_compute(1, 64, 56, 56, 128, 3, padding=1)
        for scheduled in random_schedules(out, target, 10, seed=1):
            assert iteration_space(scheduled) > LARGE
            _validate_symbolic(scheduled)

    def test_agrees_with_enumeration_on_small_spaces(self):
        out = gemm_compute(8, 8, 8)
        for scheduled in random_schedules(out, "gpu", 20, seed=2):
            size = iteration_space(scheduled)
            assert size <= LARGE
            _validate_symbolic(scheduled)
            _validate_by_enumeration(scheduled, size)  # same verdict


def corrupt_one(output, target="gpu", seed=5):
    space = build_space(output, target)
    rng = np.random.default_rng(seed)
    scheduled = lower(output, space.decode(space.random_point(rng)), target)
    # Lowering shares one read-only index map; corrupt a private copy.
    scheduled.index_map = dict(scheduled.index_map)
    axis = next(iter(output.op.all_axes))
    return scheduled, axis


class TestCorruptionDetection:
    def test_constant_axis_on_large_space(self):
        # enumeration is hopeless at 2^30 points; the proof still fails fast
        scheduled, axis = corrupt_one(gemm_compute(1024, 1024, 1024))
        scheduled.index_map[axis] = IntImm(0)
        with pytest.raises(ScheduleValidationError):
            validate_schedule(scheduled)

    def test_duplicated_digit_on_large_space(self):
        # mapping one axis onto another's expression breaks injectivity
        scheduled, axis = corrupt_one(gemm_compute(1024, 1024, 1024))
        axes = list(scheduled.op.all_axes)
        scheduled.index_map[axes[0]] = scheduled.index_map[axes[1]]
        with pytest.raises(ScheduleValidationError):
            validate_schedule(scheduled)

    def test_scaled_axis_on_large_space(self):
        scheduled, axis = corrupt_one(gemm_compute(1024, 1024, 1024))
        scheduled.index_map[axis] = scheduled.index_map[axis] * IntImm(2)
        with pytest.raises(ScheduleValidationError):
            validate_schedule(scheduled)

    def test_offset_axis_on_large_space(self):
        scheduled, axis = corrupt_one(gemm_compute(1024, 1024, 1024))
        scheduled.index_map[axis] = scheduled.index_map[axis] + IntImm(1)
        with pytest.raises(ScheduleValidationError):
            validate_schedule(scheduled)


class TestFallbacks:
    def test_unparseable_but_correct_falls_back_to_enumeration(self):
        # 2v - v == v is outside the linear fragment (Sub): on a small
        # space enumeration settles it as valid
        scheduled, axis = corrupt_one(gemm_compute(8, 8, 8))
        expr = scheduled.index_map[axis]
        scheduled.index_map[axis] = Sub(expr * IntImm(2), expr)
        validate_schedule(scheduled)  # enumeration verdict: still a bijection

    def test_unparseable_and_wrong_caught_by_enumeration(self):
        scheduled, axis = corrupt_one(gemm_compute(8, 8, 8))
        expr = scheduled.index_map[axis]
        scheduled.index_map[axis] = Sub(expr * IntImm(3), expr)  # == 2*expr
        with pytest.raises(ScheduleValidationError):
            validate_schedule(scheduled)

    def test_unparseable_large_space_keeps_structural_checks_only(self):
        # legacy contract: beyond the enumeration budget an expression the
        # proof cannot read is not an error by itself
        scheduled, axis = corrupt_one(gemm_compute(1024, 1024, 1024))
        expr = scheduled.index_map[axis]
        scheduled.index_map[axis] = Sub(expr * IntImm(2), expr)
        validate_schedule(scheduled)  # silently structural-only
