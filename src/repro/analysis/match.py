"""Static IR subtree matcher for intrinsic tensorization (ISSUE #8).

Decides whether the innermost loops of a :class:`~repro.ir.ComputeOp`
instantiate a registered intrinsic's compute pattern, and — given a
schedule configuration — whether the ``tensorize`` knob choice is legal.

The match is *structural unification*: the pattern's lane expression (an
ordinary :mod:`repro.ir` tree, see :mod:`repro.analysis.intrin`) is
unified against the op's inner body with

* commutative handling of ``+`` / ``*`` (operand order backtracks),
* tensor-binding capture with exact dtype constraints,
* positional axis binding — the pattern's covered spatial/reduce axes bind
  to the op's *last* spatial/reduce axes, which is exactly what lowering
  makes innermost,
* dependence verification via affine strides: a bound op axis must appear
  in a matched operand read iff the pattern axis appears in the pattern
  read (non-affine accesses never match),
* stride constraints: the intrinsic's loads dictate unit-stride
  requirements (``stride_mode``), and
* extent constraints: a covered op axis extent must be divisible by the
  pattern tile extent.

Legality is then split between the static match (config-independent,
memoized per op) and :func:`tensorize_rejections`, the **single source of
truth** consulted by both ``schedule.lower.schedule_facts`` (raises
``LoweringError``) and the ``TEN`` lint rules in
:mod:`repro.analysis.lint`.  A TEN error diagnostic is therefore a proof
of lowering failure by construction — PR 3's soundness contract extends
to tensorization with zero new arithmetic to keep in sync.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir import (
    Add,
    BinaryOp,
    ComputeOp,
    Expr,
    FloatImm,
    IntImm,
    IterVar,
    Mul,
    Reduce,
    Tensor,
    TensorRef,
    stride_of,
)
from ..schedule import NodeConfig
from ..schedule.lower import INNER_REDUCE_PART, INNER_SPATIAL_PART, inner_role_order
from .intrin import INTRINSICS, STRIDE_ALL, IntrinsicSpec

@dataclass(frozen=True)
class MatchResult:
    """A successful static match of an intrinsic against an op."""

    intrinsic: str
    #: (pattern tensor, op tensor) bindings captured by unification.
    tensor_bindings: Tuple[Tuple[Tensor, Tensor], ...]
    #: (pattern read, matched op read) pairs, in unification order.
    ref_pairs: Tuple[Tuple[TensorRef, TensorRef], ...]
    #: covered op spatial axes (a suffix of ``op.axes``).
    spatial_axes: Tuple[IterVar, ...]
    #: covered op reduce axes (a suffix of ``op.reduce_axes``).
    reduce_axes: Tuple[IterVar, ...]
    #: (pattern axis, op axis) pairs, spatial first.
    axis_pairs: Tuple[Tuple[IterVar, IterVar], ...]


def _unify(pattern: Expr, expr: Expr,
           binding: Dict[Tensor, Tensor],
           pairs: List[Tuple[TensorRef, TensorRef]]) -> bool:
    """Unify the pattern tree against an op expression, capturing tensor
    bindings.  Commutative ``+``/``*`` backtrack over operand order."""
    if isinstance(pattern, TensorRef):
        if not isinstance(expr, TensorRef):
            return False
        bound = binding.get(pattern.tensor)
        if bound is not None and bound is not expr.tensor:
            return False
        if expr.tensor.dtype != pattern.tensor.dtype:
            return False
        binding[pattern.tensor] = expr.tensor
        pairs.append((pattern, expr))
        return True
    if isinstance(pattern, (IntImm, FloatImm)):
        return type(expr) is type(pattern) and expr.value == pattern.value
    if isinstance(pattern, BinaryOp):
        if type(expr) is not type(pattern):
            return False
        orders = [(expr.a, expr.b)]
        if isinstance(pattern, (Add, Mul)):
            orders.append((expr.b, expr.a))
        for first, second in orders:
            trial_binding = dict(binding)
            trial_pairs = list(pairs)
            if _unify(pattern.a, first, trial_binding, trial_pairs) and _unify(
                pattern.b, second, trial_binding, trial_pairs
            ):
                binding.clear()
                binding.update(trial_binding)
                pairs[:] = trial_pairs
                return True
        return False
    # Patterns are built from reads, immediates and arithmetic only.
    return False


def _match(op: ComputeOp, intrin: IntrinsicSpec) -> Optional[MatchResult]:
    pattern_op = intrin.op
    if op.output.dtype != intrin.output.dtype:
        return None
    op_body = op.body
    if intrin.combiner:
        if not isinstance(op_body, Reduce) or op_body.combiner != intrin.combiner:
            return None
        op_inner = op_body.body
    else:
        if isinstance(op_body, Reduce):
            # A reduction-free lane pattern (FMA) tensorizes the multiply
            # inside a sum: the op's own accumulator is the add.
            if op_body.combiner != "sum":
                return None
            op_inner = op_body.body
        else:
            op_inner = op_body

    p_spatial = intrin.spatial_axes
    p_reduce = intrin.reduce_axes
    if len(op.axes) < len(p_spatial) or len(op.reduce_axes) < len(p_reduce):
        return None
    o_spatial = op.axes[len(op.axes) - len(p_spatial):]
    o_reduce = op.reduce_axes[len(op.reduce_axes) - len(p_reduce):]
    axis_pairs = tuple(zip(p_spatial, o_spatial)) + tuple(zip(p_reduce, o_reduce))

    # Tile-extent divisibility: some inner split must be able to align.
    for p_axis, o_axis in axis_pairs:
        if o_axis.extent % p_axis.extent:
            return None

    binding: Dict[Tensor, Tensor] = {}
    pairs: List[Tuple[TensorRef, TensorRef]] = []
    if not _unify(intrin.inner_body, op_inner, binding, pairs):
        return None

    # Dependence + stride verification per matched read.
    unit_refs = 0
    for p_ref, o_ref in pairs:
        has_unit = False
        for p_axis, o_axis in axis_pairs:
            p_stride = stride_of(p_ref.indices, p_ref.tensor.shape, p_axis)
            o_stride = stride_of(o_ref.indices, o_ref.tensor.shape, o_axis)
            if o_stride is None:
                return None  # non-affine in a covered axis
            p_used = p_stride is None or p_stride != 0
            if p_used != (o_stride != 0):
                return None  # dependence pattern differs from the intrinsic
            if p_used and p_stride is not None and abs(p_stride) == 1 \
                    and abs(o_stride) == 1:
                has_unit = True
        unit_refs += has_unit
    if intrin.stride_mode == STRIDE_ALL:
        if unit_refs < len(pairs):
            return None
    elif unit_refs == 0:
        return None

    return MatchResult(
        intrinsic=intrin.name,
        tensor_bindings=tuple(binding.items()),
        ref_pairs=tuple(pairs),
        spatial_axes=tuple(o_spatial),
        reduce_axes=tuple(o_reduce),
        axis_pairs=axis_pairs,
    )


# Static matches are pure functions of (op, intrinsic); memoize per op so
# the space builder, the linter and lowering all pay at most once.
_MATCH_CACHE: "weakref.WeakKeyDictionary[ComputeOp, Dict[str, Optional[MatchResult]]]" \
    = weakref.WeakKeyDictionary()


def match_intrinsic(op: ComputeOp, intrin: IntrinsicSpec) -> Optional[MatchResult]:
    """The static (config-independent) match verdict, memoized per op."""
    per_op = _MATCH_CACHE.get(op)
    if per_op is None:
        per_op = {}
        _MATCH_CACHE[op] = per_op
    if intrin.name not in per_op:
        per_op[intrin.name] = _match(op, intrin)
    return per_op[intrin.name]


def matching_intrinsics(op: ComputeOp, target: str) -> Tuple[str, ...]:
    """Registered intrinsic names that statically match ``op`` on ``target``."""
    return tuple(
        name
        for name in sorted(INTRINSICS)
        if INTRINSICS[name].target == target
        and match_intrinsic(op, INTRINSICS[name]) is not None
    )


def covered_inner_roles(op: ComputeOp, name: str, target: str) -> Tuple[Tuple, ...]:
    """Loop roles ``(kind, axis_index, part)`` the intrinsic consumes.

    These are the inner split parts of the matched axis suffix — the loops
    that lowering annotates ``TENSORIZE`` and that must sit innermost.
    """
    match = match_intrinsic(op, INTRINSICS[name])
    if match is None:
        return ()
    spatial_part = INNER_SPATIAL_PART[target]
    n_spatial, n_reduce = len(op.axes), len(op.reduce_axes)
    roles = [
        ("spatial", idx, spatial_part)
        for idx in range(n_spatial - len(match.spatial_axes), n_spatial)
    ]
    roles += [
        ("reduce", idx, INNER_REDUCE_PART)
        for idx in range(n_reduce - len(match.reduce_axes), n_reduce)
    ]
    return tuple(roles)


def _inner_factor(config: NodeConfig, role: Tuple) -> int:
    kind, idx, part = role
    factors = config.spatial_factors if kind == "spatial" else config.reduce_factors
    return factors[idx][part]


def tensorize_rejections(
    op: ComputeOp, config: NodeConfig, target: str
) -> List[Tuple[str, str, str]]:
    """Why ``config.tensorize`` cannot be applied: ``(rule, message, hint)``.

    Empty iff lowering will apply the intrinsic.  This function is the one
    legality oracle: ``schedule.lower.schedule_facts`` raises ``LoweringError``
    exactly when it is non-empty, and the TEN lint rules emit exactly its
    entries — so a TEN error diagnostic is a proof of lowering failure.

    Callers guarantee the config's split shape fits the op (the linter's
    GEN003 gate; lowering's ``_check_parts``).
    """
    name = getattr(config, "tensorize", "")
    if not name:
        return []
    intrin = INTRINSICS.get(name)
    if intrin is None:
        return [(
            "TEN001",
            f"unknown intrinsic {name!r}",
            f"choose one of {', '.join(sorted(INTRINSICS))} (or \"\")",
        )]
    if intrin.target != target:
        return [(
            "TEN001",
            f"intrinsic {name} is a {intrin.target} instruction; "
            f"this schedule lowers for {target}",
            "drop tensorize or tune for the intrinsic's target",
        )]
    match = match_intrinsic(op, intrin)
    if match is None:
        return [(
            "TEN001",
            f"op {op.name!r} does not instantiate {name}: its inner body, "
            "dtypes, access strides or axis extents fail unification with "
            "the intrinsic pattern",
            "tensorize only ops the matcher reports via matching_intrinsics()",
        )]
    found: List[Tuple[str, str, str]] = []
    covered = covered_inner_roles(op, name, target)
    for (p_axis, o_axis), role in zip(match.axis_pairs, covered):
        factor = _inner_factor(config, role)
        if factor % p_axis.extent:
            found.append((
                "TEN002",
                f"inner split of {o_axis.name} is {factor}, not a multiple "
                f"of the {name} tile extent {p_axis.extent}",
                f"make that inner split factor a positive multiple of "
                f"{p_axis.extent}",
            ))
    order = inner_role_order(op, config, target)
    suffix = order[len(order) - len(covered):]
    if set(suffix) != set(covered):
        inner_names = ", ".join(f"{k}[{i}].{p}" for k, i, p in suffix)
        found.append((
            "TEN003",
            f"{name} needs its {len(covered)} covered loops contiguous and "
            f"innermost, but reorder choice {config.reorder} ends the nest "
            f"with {inner_names}",
            "pick a reorder that keeps the intrinsic tile innermost",
        ))
    return found


__all__ = [
    "INNER_REDUCE_PART",
    "INNER_SPATIAL_PART",
    "MatchResult",
    "covered_inner_roles",
    "inner_role_order",
    "match_intrinsic",
    "matching_intrinsics",
    "tensorize_rejections",
]
