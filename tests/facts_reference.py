"""Reference (scalar) derivations of the per-op access facts: the ground
truth ``repro.codegen.features.OpFacts`` is tested against.

These are the per-call derivations the facts table replaced, re-run from
the IR on every call with nothing cached: the affine footprint bound of a
tile, the row-major stride of an axis, the CPU gather penalty probed read
by read with :func:`repro.ir.stride_of`, and the op's flop count.  They
live with the tests because only the tests import them.
"""

from __future__ import annotations

from repro.ir import Reduce, affine_coefficients, collect_tensor_refs, count_flops_per_point


def reads(op):
    """Every tensor read of the op body, duplicates included."""
    body = op.body.body if isinstance(op.body, Reduce) else op.body
    return collect_tensor_refs(body)


def coefficients(op, tensor):
    """Per-dimension affine coefficients of the first read of ``tensor``."""
    refs = [r for r in reads(op) if r.tensor is tensor]
    if not refs:
        return None
    return [affine_coefficients(index, list(op.all_axes)) for index in refs[0].indices]


def footprint(op, tensor, tile):
    """``Π_dims min(1 + Σ_axes |coeff| * (extent - 1), size)``; a
    non-affine dimension counts in full, an unread tensor is 0."""
    per_dim = coefficients(op, tensor)
    if per_dim is None:
        return 0
    total = 1
    for size, coeffs in zip(tensor.shape, per_dim):
        if coeffs is None:
            total *= size
            continue
        reach = 1
        for axis, coeff in zip(op.all_axes, coeffs[:-1]):
            reach += abs(coeff) * (tile.get(axis, 1) - 1)
        total *= min(reach, size)
    return total


def stride(op, tensor, axis):
    """Row-major stride of ``axis`` in the first read of ``tensor``."""
    per_dim = coefficients(op, tensor)
    axes = list(op.all_axes)
    if per_dim is None or not any(a is axis for a in axes):
        return 0
    position = next(i for i, a in enumerate(axes) if a is axis)
    total, row_major = 0, 1
    for size, coeffs in zip(reversed(tensor.shape), reversed(per_dim)):
        if coeffs is None:
            return None
        total += coeffs[position] * row_major
        row_major *= size
    return total


def gather_penalty(op, axis, stride_of):
    """0.3 if any read is non-affine in ``axis``, 0.45 if any strides it
    by more than one element, else 1.0."""
    worst = 1.0
    for ref in reads(op):
        probed = stride_of(ref.indices, ref.tensor.shape, axis)
        if probed is None:
            worst = min(worst, 0.3)
        elif abs(probed) > 1:
            worst = min(worst, 0.45)
    return worst


def flops(op):
    """Output points × reduction trip count × flops per point."""
    total = op.output.size
    for axis in op.reduce_axes:
        total *= axis.extent
    return total * count_flops_per_point(op.body)
