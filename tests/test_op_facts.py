"""The per-op access facts table against a fresh derivation.

``repro.codegen.features.OpFacts`` derives an op's reads, flops, affine
footprint terms, strides and CPU gather penalties once and every model
query reads the table.  These tests hold each answer to the scalar
derivation in ``tests/facts_reference.py``, re-run from the IR per call,
on every compute node (main and helper) of the first shape of the 12
Table-3 families plus BCM, whose modular indexing (like grouped
convolution's ``k // group_size``) is the non-affine case, and of a read
that walks memory backwards (negative coefficients and strides).
"""

import numpy as np
import pytest

from repro.codegen import (
    access_stride,
    flops_of,
    read_tensors,
    tensor_reads,
    tile_footprint,
)
from repro.graph import get_graph
from repro.ir import compute, placeholder, stride_of
from repro.model import XEON_E5_2699V4, CpuModel
from repro.ops.workloads import OPERATOR_NAMES, SUITES, bcm_workloads

from . import facts_reference as reference

FAMILIES = list(OPERATOR_NAMES) + ["BCM", "reversed"]


def reversed_read():
    """``O[i, j] = A[15 - 2j, i]``: j steps back two rows per iteration."""
    a = placeholder((16, 8), name="rev_A")
    return compute((8, 8), lambda i, j: a[15 - 2 * j, i] * 2.0, name="rev")


def compute_ops(family):
    if family == "reversed":
        return get_graph(reversed_read()).compute_ops
    workload = bcm_workloads()[0] if family == "BCM" else SUITES[family][0]
    return get_graph(workload.build()).compute_ops


def random_tiles(op, rng, count=25):
    """Tiles with each axis present (extent in [1, axis extent]) or
    omitted (extent 1 by default), plus the full and the unit tile."""
    tiles = [{axis: axis.extent for axis in op.all_axes}, {}]
    for _ in range(count):
        tiles.append({
            axis: int(rng.integers(1, axis.extent + 1))
            for axis in op.all_axes if rng.random() < 0.85
        })
    return tiles


@pytest.mark.parametrize("family", FAMILIES)
class TestFactsMatchFreshDerivation:
    def test_footprints_of_random_tiles(self, family):
        rng = np.random.default_rng(0)
        for op in compute_ops(family):
            # The output is not read: its footprint is 0 on both sides.
            tensors = list(op.input_tensors) + [op.output]
            for tile in random_tiles(op, rng):
                for tensor in tensors:
                    assert tile_footprint(op, tensor, tile) == reference.footprint(
                        op, tensor, tile), (op.name, tensor.name, tile)

    def test_strides_and_gather_penalties(self, family):
        model = CpuModel(XEON_E5_2699V4)
        for op in compute_ops(family):
            for axis in op.all_axes:
                for tensor in list(op.input_tensors) + [op.output]:
                    assert access_stride(op, tensor, axis) == reference.stride(
                        op, tensor, axis), (op.name, tensor.name, axis.name)
                assert model._gather_penalty(op, axis) == reference.gather_penalty(
                    op, axis, stride_of), (op.name, axis.name)

    def test_flops_and_reads(self, family):
        for op in compute_ops(family):
            assert flops_of(op) == reference.flops(op)
            fresh = reference.reads(op)
            assert [(r.tensor, r.indices) for r in tensor_reads(op)] == [
                (r.tensor, r.indices) for r in fresh]
            distinct = []
            for ref in fresh:
                if all(ref.tensor is not t for t in distinct):
                    distinct.append(ref.tensor)
            assert list(read_tensors(op)) == distinct


@pytest.mark.parametrize("family", ["BCM", "GRP"])
def test_non_affine_reads_are_covered(family):
    """The suite exercises the fallbacks: some read is non-affine in some
    axis (``stride_of`` is None), so its stride is None and its footprint
    takes whole dimensions."""
    op = compute_ops(family)[-1]
    assert any(
        stride_of(ref.indices, ref.tensor.shape, axis) is None
        for ref in reference.reads(op) for axis in op.all_axes
    )
    assert any(
        access_stride(op, tensor, axis) is None
        for tensor in op.input_tensors for axis in op.all_axes
    )
    assert any(
        reference.gather_penalty(op, axis, stride_of) == 0.3 for axis in op.all_axes
    )
