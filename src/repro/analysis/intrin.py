"""Declarative intrinsic registry for tensorization (ISSUE #8).

FlexTensor's schedule space stops at split/reorder/bind/unroll, but the
biggest hardware factors on the paper's targets come from tensorized
dot-product units (VNNI on Skylake-SP, mma fragments on Volta).  Following
TensorIR, each intrinsic is described *declaratively*: its compute pattern
is an ordinary :mod:`repro.ir` expression built with ``placeholder`` /
``compute`` / ``reduce_axis``, exactly like a workload definition.  The
matcher in :mod:`repro.analysis.match` then decides by structural
unification whether an op's innermost loops instantiate the pattern.

An :class:`IntrinsicSpec` also carries the constraint set that cannot be
read off the pattern expression alone:

* ``target`` — which lowering backend owns the instruction,
* ``rate`` — the datapath speedup the models bill over the scalar/SIMD
  compute baseline (GPU intrinsics additionally multiply the device's
  ``tensor_core_rate``; see :func:`repro.model.resources.tensorize_rate`),
* ``stride_mode`` — contiguity the instruction's loads require: ``"any"``
  means at least one matched operand must access a covered axis at unit
  stride (the packed side of a VNNI dot product), ``"all"`` means every
  matched operand needs a unit-stride covered axis (both mma fragment
  loads are contiguous in their minor dimension).

The pattern's axis *extents* are the instruction's tile shape: a covered
op loop must split into inner factors that are positive multiples of the
pattern extent (checked per-config by ``TEN002``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..ir import (
    ComputeOp,
    IterVar,
    Reduce,
    Tensor,
    compute,
    placeholder,
    reduce_axis,
    stride_of,
    sum_reduce,
)

STRIDE_ANY = "any"    # >= 1 matched operand reads a covered axis at unit stride
STRIDE_ALL = "all"    # every matched operand reads some covered axis at unit stride


@dataclass(frozen=True)
class IntrinsicSpec:
    """One hardware intrinsic: a compute pattern plus legality constraints."""

    name: str
    description: str
    target: str                   # "cpu" | "gpu"
    output: Tensor                # pattern ComputeOp output (ordinary ir)
    rate: float                   # compute-rate multiplier over the SIMD baseline
    stride_mode: str = STRIDE_ANY

    def __post_init__(self):
        if self.target not in ("cpu", "gpu"):
            raise ValueError(f"intrinsic target must be cpu or gpu, got {self.target!r}")
        if self.stride_mode not in (STRIDE_ANY, STRIDE_ALL):
            raise ValueError(f"unknown stride mode {self.stride_mode!r}")
        if self.rate <= 0:
            raise ValueError("intrinsic rate must be positive")
        if not isinstance(self.output.op, ComputeOp):
            raise ValueError("intrinsic pattern must be a ComputeOp output")

    @property
    def op(self) -> ComputeOp:
        """The pattern's compute op."""
        return self.output.op

    @property
    def inner_body(self):
        """The pattern body below any Reduce wrapper (the lane expression)."""
        body = self.op.body
        return body.body if isinstance(body, Reduce) else body

    @property
    def combiner(self) -> str:
        """Reduction combiner, or "" for reduction-free patterns."""
        body = self.op.body
        return body.combiner if isinstance(body, Reduce) else ""

    @property
    def reduce_axes(self) -> Tuple[IterVar, ...]:
        """Pattern reduce axes (the accumulation tile)."""
        return tuple(self.op.reduce_axes)

    @property
    def spatial_axes(self) -> Tuple[IterVar, ...]:
        """Pattern spatial axes that the lane expression actually reads.

        A unit-extent spatial axis that never appears in the body (the
        scalar output slot of a dot product) covers no op loop.
        """
        from ..ir import collect_tensor_refs

        refs = list(collect_tensor_refs(self.op.body))
        used = []
        for axis in self.op.axes:
            for ref in refs:
                stride = stride_of(ref.indices, ref.tensor.shape, axis)
                if stride is None or stride != 0:
                    used.append(axis)
                    break
        return tuple(used)


def _dot4_vnni() -> IntrinsicSpec:
    x = placeholder((4,), name="vnni_x", dtype="int8")
    y = placeholder((4,), name="vnni_y", dtype="int8")
    r = reduce_axis(4, name="vnni_r")
    out = compute((1,), lambda i: sum_reduce(x[r] * y[r], r),
                  name="dot4_vnni", dtype="int32")
    return IntrinsicSpec(
        name="dot4_vnni",
        description="int8 x int8 -> int32 4-wide dot product (AVX-512 VNNI "
                    "vpdpbusd): four adjacent products accumulate in one "
                    "int32 lane at 4x the fp32 FMA rate",
        target="cpu",
        output=out,
        rate=4.0,
        stride_mode=STRIDE_ANY,
    )


def _fma_w8() -> IntrinsicSpec:
    s = placeholder((1,), name="fma_s", dtype="float32")
    y = placeholder((8,), name="fma_y", dtype="float32")
    out = compute((8,), lambda i: s[0] * y[i], name="fma_w8", dtype="float32")
    return IntrinsicSpec(
        name="fma_w8",
        description="width-8 fp32 fused multiply-add (broadcast scalar x "
                    "contiguous vector): both FMA pipes issue per cycle",
        target="cpu",
        output=out,
        rate=2.0,
        stride_mode=STRIDE_ANY,
    )


def _mma_16x16() -> IntrinsicSpec:
    a = placeholder((16, 16), name="mma_a", dtype="float32")
    b = placeholder((16, 16), name="mma_b", dtype="float32")
    r = reduce_axis(16, name="mma_r")
    out = compute((16, 16), lambda i, j: sum_reduce(a[i, r] * b[r, j], r),
                  name="mma_16x16", dtype="float32")
    return IntrinsicSpec(
        name="mma_16x16",
        description="16x16x16 mma fragment (wmma-style warp matrix multiply "
                    "accumulate); billed at the device tensor_core_rate",
        target="gpu",
        output=out,
        rate=1.0,
        stride_mode=STRIDE_ALL,
    )


#: The registry: stable names -> specs.  Iteration order is sorted-name so
#: knob choice lists and features are deterministic across processes.
INTRINSICS: Dict[str, IntrinsicSpec] = {
    spec.name: spec for spec in sorted(
        (_dot4_vnni(), _fma_w8(), _mma_16x16()), key=lambda s: s.name
    )
}

_FEATURE_INDEX = {name: float(i + 1) for i, name in enumerate(sorted(INTRINSICS))}


def intrinsic_feature(name: str) -> float:
    """Surrogate feature value of a ``tensorize`` knob choice.

    ``""`` (untensorized) encodes to 0.0; registered intrinsics get a
    stable positive ordinal from the sorted registry.  Unknown names (a
    hand-made config) encode like untensorized — the linter rejects them
    before any model sees them.
    """
    return _FEATURE_INDEX.get(name, 0.0)


__all__ = [
    "INTRINSICS",
    "IntrinsicSpec",
    "STRIDE_ALL",
    "STRIDE_ANY",
    "intrinsic_feature",
]
