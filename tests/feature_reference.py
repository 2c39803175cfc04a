"""Reference (per-point) surrogate featurizer: the ground truth the
vectorized ``repro.codegen.features.batch_point_features`` is tested
against.

This is the original scalar featurizer, kept as an executable
specification: it decodes the point and walks the loop structure one
knob and one tensor at a time.  The package computes the same rows with
a per-space array plan and must match it **bit for bit** — the parity
suite (``tests/test_hotpath_parity.py``) and the tensorize tests hold the
two against each other.  It lives with the tests because only they
import it, like ``tests/gbt_reference.py``.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.analysis.intrin import intrinsic_feature
from repro.codegen.features import (
    access_stride,
    coalescing_efficiency,
    read_tensors,
    reuse_factor,
    tile_footprint,
)


def point_features(space, point) -> np.ndarray:
    """Surrogate feature vector of one schedule-space point, term by
    term (:func:`repro.codegen.batch_point_features` lists the terms)."""
    op = space.op
    config = space.decode(point)
    values: List[float] = [float(v) for v in space.features(point)]

    tile = {}
    for axis, factors in zip(op.axes, config.spatial_factors):
        inner = 1
        for factor in factors[1:]:
            inner *= factor
        tile[axis] = inner
        values.extend(math.log2(max(factor, 1)) for factor in factors)
        values.append(math.log2(max(inner, 1)))
    for axis, factors in zip(op.reduce_axes, config.reduce_factors):
        inner = 1
        for factor in factors[1:]:
            inner *= factor
        tile[axis] = inner
        values.extend(math.log2(max(factor, 1)) for factor in factors)
        values.append(math.log2(max(inner, 1)))

    values.append(math.log2(1 + config.unroll_depth))
    values.append(1.0 if config.vectorize else 0.0)
    values.append(1.0 if config.use_shared else 0.0)
    values.append(float(config.fuse_levels))
    values.extend(1.0 if config.reorder == choice else 0.0 for choice in (0, 1, 2))
    # Only spaces that actually expose the tensorize knob get the feature:
    # appending a constant 0.0 to every existing space would shift GBT
    # splits and perturb pinned trajectories for no information.
    if any(k.name == "tensorize" for k in getattr(space, "knobs", ())):
        values.append(intrinsic_feature(config.tensorize))

    innermost = op.axes[-1] if op.axes else None
    for tensor in read_tensors(op):
        footprint = tile_footprint(op, tensor, tile)
        values.append(math.log1p(footprint))
        values.append(math.log1p(reuse_factor(op, tensor, tile)))
        stride = access_stride(op, tensor, innermost) if innermost is not None else 0
        values.append(-1.0 if stride is None else math.log1p(abs(stride)))
        values.append(coalescing_efficiency(op, tensor, innermost))
    return np.asarray(values, dtype=np.float64)
