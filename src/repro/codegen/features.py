"""Feature extraction from scheduled programs for the machine models.

The models need two things the schedule alone doesn't state directly:

* **tile footprints** — how many elements of each input a tile of the
  iteration space touches (determines shared-memory/BRAM usage, cache
  working sets and memory traffic), and
* **access strides** — the flat-memory stride of a given loop variable in
  each input (determines GPU coalescing and CPU vectorization quality).

Both are derived from the affine structure of the tensor index expressions
(``repro.ir.evalexpr``); non-affine accesses (e.g. BCM's modular indexing
or grouped convolution's ``k // group_size``) conservatively fall back to
whole-dimension footprints.  None of it depends on the schedule, so
:class:`OpFacts` derives it once per op and every per-candidate query is
a dict lookup plus integer arithmetic.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir import (
    ComputeOp,
    IterVar,
    Reduce,
    Tensor,
    affine_coefficients,
    collect_tensor_refs,
    count_flops_per_point,
    stride_of,
)


class OpFacts:
    """The schedule-independent access facts of one :class:`ComputeOp`.

    ``reads`` are the body's tensor reads (duplicates included) and
    ``tensors`` the distinct read tensors in first-read order.  Per read
    tensor, from its first read: ``coefficients`` holds the per-dimension
    affine coefficients over ``op.all_axes`` (None for a non-affine
    dimension), ``footprint_terms`` the ``(size, ((axis, |coeff|), ...))``
    rows :func:`tile_footprint` sums (terms None for a non-affine
    dimension), and ``strides`` the flat row-major stride of every axis
    (None when any dimension is non-affine).  The CPU gather penalty of an
    axis probes every read with :func:`~repro.ir.stride_of` once, on first
    request.  Built by :func:`op_facts` and kept on the op (``op._facts``),
    so it lives exactly as long as the op does.
    """

    __slots__ = ("reads", "tensors", "flops", "coefficients", "footprint_terms",
                 "strides", "_gather_penalties", "__weakref__")

    def __init__(self, op: ComputeOp):
        body = op.body.body if isinstance(op.body, Reduce) else op.body
        self.reads = tuple(collect_tensor_refs(body))
        tensors: List[Tensor] = []
        for ref in self.reads:
            if not any(ref.tensor is t for t in tensors):
                tensors.append(ref.tensor)
        self.tensors = tuple(tensors)
        flops = op.output.size
        for axis in op.reduce_axes:
            flops *= axis.extent
        self.flops = flops * count_flops_per_point(op.body)
        axes = op.all_axes
        self.coefficients: Dict[Tensor, List] = {}
        self.footprint_terms: Dict[Tensor, Tuple] = {}
        self.strides: Dict[Tensor, Dict[IterVar, Optional[int]]] = {}
        for tensor in tensors:
            ref = next(r for r in self.reads if r.tensor is tensor)
            per_dim = [affine_coefficients(index, axes) for index in ref.indices]
            self.coefficients[tensor] = per_dim
            self.footprint_terms[tensor] = tuple(
                (size, None if coeffs is None else tuple(
                    (axis, abs(c)) for axis, c in zip(axes, coeffs) if c))
                for size, coeffs in zip(tensor.shape, per_dim)
            )
            strides: Dict[IterVar, Optional[int]] = dict.fromkeys(axes)
            if all(coeffs is not None for coeffs in per_dim):
                for position, axis in enumerate(axes):
                    stride, row_major = 0, 1
                    for size, coeffs in zip(reversed(tensor.shape), reversed(per_dim)):
                        stride += coeffs[position] * row_major
                        row_major *= size
                    strides[axis] = stride
            self.strides[tensor] = strides
        self._gather_penalties: Dict[IterVar, float] = {}

    def gather_penalty(self, axis: IterVar) -> float:
        """SIMD efficiency factor of vectorizing ``axis``: 0.3 if any read
        is non-affine in it, 0.45 if any read strides it by more than one
        element, else 1."""
        penalty = self._gather_penalties.get(axis)
        if penalty is None:
            penalty = 1.0
            for ref in self.reads:
                stride = stride_of(ref.indices, ref.tensor.shape, axis)
                if stride is None:
                    penalty = min(penalty, 0.3)
                elif abs(stride) > 1:
                    penalty = min(penalty, 0.45)
            self._gather_penalties[axis] = penalty
        return penalty


def op_facts(op: ComputeOp) -> OpFacts:
    """The op's :class:`OpFacts`, derived on first use and kept on the op."""
    facts = op.__dict__.get("_facts")
    if facts is None:
        facts = op._facts = OpFacts(op)
    return facts


def tensor_reads(op: ComputeOp):
    """All tensor-element reads in the op body (including duplicates)."""
    return op_facts(op).reads


def access_coefficients(op: ComputeOp, tensor: Tensor):
    """Per-dimension affine coefficients of the op's first read of
    ``tensor`` over ``op.all_axes`` (None for non-affine dimensions, and
    None overall when the op does not read ``tensor``)."""
    return op_facts(op).coefficients.get(tensor)


def tile_footprint(op: ComputeOp, tensor: Tensor, tile: Dict[IterVar, int]) -> int:
    """Elements of ``tensor`` touched by one tile of the iteration space.

    ``tile`` maps each axis of ``op`` to its tile extent; omitted axes
    default to extent 1.  For each tensor dimension the touched range is
    ``1 + Σ_axes |coeff| * (tile_extent - 1)`` (clipped to the dimension),
    the standard affine footprint bound; a non-affine dimension counts in
    full.  A tensor the op does not read has footprint 0.
    """
    rows = op_facts(op).footprint_terms.get(tensor)
    if rows is None:
        return 0
    footprint = 1
    for size, terms in rows:
        if terms is None:
            footprint *= size
            continue
        reach = 1
        for axis, weight in terms:
            reach += weight * (tile.get(axis, 1) - 1)
        footprint *= reach if reach < size else size
    return footprint


def reuse_factor(op: ComputeOp, tensor: Tensor, tile: Dict[IterVar, int]) -> float:
    """How many times each fetched element of ``tensor`` is used within a
    tile: tile iterations / footprint.  >1 means caching the tile pays."""
    iterations = 1
    for axis in op.all_axes:
        iterations *= tile.get(axis, 1)
    footprint = tile_footprint(op, tensor, tile)
    if footprint == 0:
        return 1.0
    return iterations / footprint


def access_stride(op: ComputeOp, tensor: Tensor, axis: IterVar) -> Optional[int]:
    """Flat row-major stride of ``axis`` in the op's read of ``tensor``.

    ``None`` means non-affine; ``0`` means the axis does not index the
    tensor (full reuse along it), or the op does not read ``tensor``.
    """
    strides = op_facts(op).strides.get(tensor)
    return 0 if strides is None else strides.get(axis, 0)


def coalescing_efficiency(
    op: ComputeOp, tensor: Tensor, axis: Optional[IterVar], run_threads: int = 32
) -> float:
    """Fraction of a memory transaction usefully consumed by a warp whose
    consecutive threads step ``axis``, ``run_threads`` of them before the
    next-outer fused index changes.

    * stride 0 — all lanes read one address (broadcast): perfect;
    * stride 1 — ``run_threads`` consecutive floats per run: a 32-byte
      sector serves ``min(run_threads, 8)`` of them, so efficiency is
      ``run_threads / 8`` until runs fill whole sectors;
    * stride s — runs are s-spread, wasting a factor of ~s more;
    * non-affine — worst case, one useful word per sector.

    This is what makes *shape-adapted* thread tiling matter: putting 14 or
    28 threads on a width-28 axis yields long coalesced runs, while a
    power-of-two template is stuck at runs of 2 or 4 (§2.3's motivation).
    """
    floor = 1.0 / 8.0
    if axis is None:
        return floor
    stride = access_stride(op, tensor, axis)
    if stride is None:
        return floor
    stride = abs(stride)
    if stride == 0:
        return 1.0
    run = max(run_threads, 1)
    return min(1.0, max(floor, run / (8.0 * stride)))


def output_write_stride(op: ComputeOp, axis: IterVar) -> int:
    """Row-major stride of ``axis`` in the output write."""
    stride = 1
    position = None
    for i, a in enumerate(op.axes):
        if a is axis:
            position = i
            break
    if position is None:
        return 0
    for size in op.output.shape[position + 1 :]:
        stride *= size
    return stride


def flops_of(op: ComputeOp) -> int:
    """Total floating-point operations of the node (MAC = 2)."""
    return op_facts(op).flops


def bytes_of(tensor: Tensor, dtype_bytes: int = 4) -> int:
    return tensor.size * dtype_bytes


def read_tensors(op: ComputeOp) -> Tuple[Tensor, ...]:
    """Distinct tensors read by the op body, in first-read order."""
    return op_facts(op).tensors


def point_features(space, point) -> np.ndarray:
    """Surrogate feature vector of one schedule-space point: the one row
    of :func:`batch_point_features` ``(space, [point])``."""
    return batch_point_features(space, [point])[0]


def _exact_log1p(values: np.ndarray) -> np.ndarray:
    """``math.log1p`` applied elementwise through a unique-value table.

    ``np.log1p`` may route through a different libm than ``math.log1p``
    and disagree in the last bit, so each *distinct* value goes through
    ``math.log1p`` and is gathered back — the scalar helpers' float by
    construction, and cheap because tile footprints and reuse factors
    repeat heavily within a batch.
    """
    uniques, inverse = np.unique(values, return_inverse=True)
    table = np.array([math.log1p(float(v)) for v in uniques], dtype=np.float64)
    return table[inverse.reshape(values.shape)]


class _BatchFeaturePlan:
    """Per-space compilation of the surrogate features into array ops.

    Everything that depends only on the space (knob feature encodings,
    per-choice log2 tables, affine coefficients, per-tensor stride and
    coalescing constants) is computed once with the *scalar* helpers, so
    each term is the exact float a per-point featurizer would emit; the
    per-point work reduces to integer gathers, one integer matrix product
    per tensor dimension, and two exact-log1p gathers per tensor.
    """

    def __init__(self, space):
        op: ComputeOp = space.op
        self.num_knobs = len(space.knobs)
        # Block 1: the space's own per-knob encoding.
        self.knob_tables = [
            np.array([knob.features(i) for i in range(len(knob.choices))],
                     dtype=np.float64)
            for knob in space.knobs
        ]
        names = [knob.name for knob in space.knobs]
        # Blocks 2-3: per split knob, [log2(f) for f in factors] + [log2(inner)],
        # plus the integer inner-tile extent feeding the tensor terms.
        self.split_columns: List[Tuple[int, np.ndarray]] = []
        self.inner_extent_columns: List[Tuple[int, np.ndarray]] = []
        axis_names = [f"sp{i}" for i in range(len(op.axes))] + [
            f"re{i}" for i in range(len(op.reduce_axes))
        ]
        for name in axis_names:
            ki = names.index(name)
            knob = space.knobs[ki]
            rows = []
            inners = []
            for factors in knob.choices:
                inner = 1
                for factor in factors[1:]:
                    inner *= factor
                rows.append(
                    [math.log2(max(f, 1)) for f in factors]
                    + [math.log2(max(inner, 1))]
                )
                inners.append(inner)
            self.split_columns.append((ki, np.array(rows, dtype=np.float64)))
            self.inner_extent_columns.append((ki, np.array(inners, dtype=np.int64)))

        def choice_table(name: str, encode, default_row) -> Tuple[Optional[int], np.ndarray]:
            if name not in names:
                return None, np.array(default_row, dtype=np.float64)
            ki = names.index(name)
            rows = [encode(value) for value in space.knobs[ki].choices]
            return ki, np.array(rows, dtype=np.float64)

        # Blocks 4-8: annotation knobs (decode() defaults when absent).
        self.annotation_tables = [
            choice_table("unroll", lambda v: [math.log2(1 + v)], [0.0]),
            choice_table("vectorize", lambda v: [1.0 if v else 0.0], [1.0]),
            choice_table("shared", lambda v: [1.0 if v else 0.0], [1.0]),
            choice_table("fuse", lambda v: [float(v)], [1.0]),
            choice_table(
                "reorder",
                lambda v: [1.0 if v == choice else 0.0 for choice in (0, 1, 2)],
                [1.0, 0.0, 0.0],
            ),
        ]
        if "tensorize" in names:
            from ..analysis.intrin import intrinsic_feature

            self.annotation_tables.append(
                choice_table("tensorize", lambda v: [intrinsic_feature(v)], [0.0])
            )
        # Tensor block: affine structure and per-tensor constants.
        axes = list(op.all_axes)
        innermost = op.axes[-1] if op.axes else None
        self.tensor_terms = []
        for tensor in read_tensors(op):
            stride = (
                access_stride(op, tensor, innermost) if innermost is not None else 0
            )
            stride_value = -1.0 if stride is None else math.log1p(abs(stride))
            coalescing = coalescing_efficiency(op, tensor, innermost)
            per_dim = access_coefficients(op, tensor)
            if per_dim is None:
                # No read of this tensor: footprint 0, reuse pinned at 1.
                self.tensor_terms.append(
                    ("const", math.log1p(0), math.log1p(1.0), stride_value, coalescing)
                )
                continue
            dims = []
            for size, coeffs in zip(tensor.shape, per_dim):
                if coeffs is None:
                    dims.append(("full", int(size), None, 0))
                    continue
                weights = np.array(
                    [abs(c) for c in coeffs[: len(axes)]], dtype=np.int64
                )
                offset = 1 - int(weights.sum())
                dims.append(("affine", int(size), weights, offset))
            self.tensor_terms.append(("affine", dims, stride_value, coalescing))

    def __call__(self, points) -> np.ndarray:
        chosen = np.asarray([list(p) for p in points], dtype=np.intp)
        if chosen.size == 0:
            chosen = chosen.reshape(0, self.num_knobs)
        blocks: List[np.ndarray] = []
        for ki, table in enumerate(self.knob_tables):
            blocks.append(table[chosen[:, ki]])
        for ki, table in self.split_columns:
            blocks.append(table[chosen[:, ki]])
        for ki, table in self.annotation_tables:
            if ki is None:
                blocks.append(np.broadcast_to(table, (len(chosen), table.shape[-1])))
            else:
                blocks.append(table[chosen[:, ki]])
        if self.tensor_terms:
            extents = np.empty((len(chosen), len(self.inner_extent_columns)),
                               dtype=np.int64)
            for j, (ki, inners) in enumerate(self.inner_extent_columns):
                extents[:, j] = inners[chosen[:, ki]]
            iterations = extents.prod(axis=1)
            for term in self.tensor_terms:
                if term[0] == "const":
                    _kind, log_fp, log_reuse, stride_value, coalescing = term
                    blocks.append(np.broadcast_to(
                        np.array([log_fp, log_reuse, stride_value, coalescing]),
                        (len(chosen), 4),
                    ))
                    continue
                _kind, dims, stride_value, coalescing = term
                footprint = np.ones(len(chosen), dtype=np.int64)
                for kind, size, weights, offset in dims:
                    if kind == "full":
                        footprint *= size
                        continue
                    reach = extents @ weights + offset
                    footprint *= np.minimum(reach, size)
                blocks.append(np.stack(
                    [
                        _exact_log1p(footprint),
                        _exact_log1p(iterations / footprint),
                        np.full(len(chosen), stride_value),
                        np.full(len(chosen), coalescing),
                    ],
                    axis=1,
                ))
        return np.hstack(blocks) if blocks else np.zeros((len(chosen), 0))


def batch_point_features(space, points) -> np.ndarray:
    """Surrogate feature vectors of schedule-space points, one
    (n_points, n_features) matrix.

    The learned screen (``repro.explore.surrogate``) needs features that
    correlate with modeled kernel time, not just with knob identity, so
    a row combines:

    * the space's per-knob one-hot encoding (what the Q-network sees),
    * log2 trip counts of every split factor plus each axis's inner-tile
      extent (the loop structure the models price),
    * annotation signals — log unroll depth, vectorize/shared flags,
      fuse levels, a reorder one-hot, and the intrinsic feature on
      spaces that expose the ``tensorize`` knob,
    * per-input-tensor memory behaviour under the chosen inner tile:
      log tile footprint, log reuse factor, the innermost axis's flat
      access stride, and its coalescing efficiency.

    Per-space invariants (affine coefficients, read-tensor order, axis
    lists, per-choice log tables) are compiled once into a
    :class:`_BatchFeaturePlan` kept on the space; the per-point cost is
    integer gathers and one small matrix product per tensor dimension.
    Each row is **bit-identical** to the per-point reference featurizer
    of ``tests/feature_reference.py``, pinned by
    ``tests/test_hotpath_parity.py`` across gemm/conv2d spaces on every
    target.

    ``space`` is duck-typed (``op``, ``knobs``) to keep ``repro.codegen``
    free of an import cycle with ``repro.space``.
    """
    plan = space.__dict__.get("_feature_plan")
    if plan is None:
        plan = space._feature_plan = _BatchFeaturePlan(space)
    return plan(points)
