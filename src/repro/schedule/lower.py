"""Lowering schedule configurations to loop nests (§5.3, Figure 4).

One lowering function per target, mirroring the paper's hardware-specific
schedule generation:

* **CPU** (Fig. 4a) — multi-level tiling (3-part splits), dynamic fusion of
  outer loops into one parallel hyper-loop, reorder, unroll, vectorize the
  innermost loop.
* **GPU** (Fig. 4b) — 4-part splits (block / vthread / thread / register
  tile), bind fused outer parts to ``blockIdx`` and fused thread parts to
  ``threadIdx``, shared-memory caching of inputs, register tile for
  results, unroll + reorder of inner loops.
* **FPGA** (Fig. 4c) — PE-parallel decomposition feeding a three-stage
  read / compute / write pipeline with input line-buffering and memory
  partitioning (these affect the analytical model; the loop nest itself
  stays a PE-parallel tiling).

Helper nodes (padding / expansion) are inlined per the graph config, the
paper's pre-determined decision for data-rearrangement nodes.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph import MiniGraph, get_graph
from ..ir import ComputeOp, Expr, IterVar, Reduce, Var
from .config import (
    GraphConfig,
    NodeConfig,
    REORDER_INTERLEAVED,
    REORDER_REDUCE_INNER,
    REORDER_SPATIAL_INNER,
)
from .loopnest import (
    BLOCK_X,
    LoopDef,
    PARALLEL,
    PE_PARALLEL,
    SERIAL,
    Scheduled,
    TENSORIZE,
    THREAD_X,
    UNROLL,
    VECTORIZE,
    VTHREAD,
    substitute_vars,
)

GPU_SPATIAL_PARTS = 4
GPU_REDUCE_PARTS = 2
CPU_SPATIAL_PARTS = 3
CPU_REDUCE_PARTS = 2
FPGA_SPATIAL_PARTS = 2

TARGETS = ("gpu", "cpu", "fpga")

#: ``(var, extent, role, annotation)``: a :class:`LoopDef` before it is
#: built; the structural phase works in these, :func:`_annotate` builds
#: each schedule's loops from them.
LoopSpec = Tuple[Var, int, Tuple, str]


class LoweringError(ValueError):
    """Raised when a configuration cannot be lowered for a target."""


class LazyIndexMap(Mapping):
    """Index map whose expression construction, fuse-recovery substitution
    and simplification are all deferred to the first value read.

    The axis -> expression reconstruction is the most expensive part of
    lowering (building the split re-composition expressions, tree-walking
    ``substitute_vars`` per fused loop, then ``simplify``), yet the
    performance models never read it — only code generation,
    interpretation and schedule validation do.  The structural phase
    therefore records only *recipes*: per axis the ``(var, extent)``
    chain of its split loops, plus per fused loop the ``(fused_var,
    parts)`` pair.  Keys are known up front (the op's axes), so
    membership checks and ``len`` are free; the first
    ``[]``/``items()``/``values()`` builds the expressions exactly as the
    eager path would (same construction order, same substitution order,
    same ``simplify`` pass) and caches them for every subsequent read.
    Instances are read-only (a write raises ``TypeError``) and shared
    across all :class:`Scheduled` objects built from one structure, so
    each unique loop structure pays for reconstruction at most once per
    process.
    """

    __slots__ = ("_split_specs", "_fuse_specs", "_final")

    def __init__(self, split_specs, fuse_specs):
        # axis -> ((var, extent), ...) outermost-first split chain
        self._split_specs = split_specs
        # ((fused_var, ((var, extent), ...)), ...) in application order
        self._fuse_specs = fuse_specs
        self._final: Optional[Dict[IterVar, Expr]] = None

    def _materialize(self) -> Dict[IterVar, Expr]:
        final = self._final
        if final is None:
            from ..ir import simplify

            recoveries = []
            for fused_var, parts in self._fuse_specs:
                total = 1
                for _, extent in parts:
                    total *= extent
                recovery: Dict[Var, Expr] = {}
                trailing = total
                for var, extent in parts:
                    trailing //= extent
                    recovery[var] = (
                        (fused_var // trailing) % extent
                        if trailing > 1
                        else fused_var % extent
                    )
                recoveries.append(recovery)
            final = {}
            for axis, parts in self._split_specs.items():
                expr: Expr = parts[0][0]
                for var, extent in parts[1:]:
                    expr = expr * extent + var
                for recovery in recoveries:
                    expr = substitute_vars(expr, recovery)
                final[axis] = simplify(expr)
            self._final = final
        return final

    def __getitem__(self, axis: IterVar) -> Expr:
        return self._materialize()[axis]

    def __iter__(self):
        return iter(self._split_specs)

    def __len__(self) -> int:
        return len(self._split_specs)

    def __contains__(self, axis) -> bool:
        return axis in self._split_specs


@dataclass(frozen=True)
class LoweredStructure:
    """The reusable (annotation-independent) half of a lowered schedule.

    Lowering splits into two phases: the *structural* phase — axis
    splits, loop fusion, reorder, index-expression reconstruction, which
    depends only on :func:`structural_key` — and the cheap *annotation*
    phase (vectorize / unroll marking, cache declarations, config-valued
    primitives).  Two configs sharing a structural key share one
    ``LoweredStructure``; each gets fresh :class:`LoopDef` objects
    (annotations are mutated in place) while the ``Var`` objects and the
    (lazy, materialize-once) index map are shared.
    """

    loop_specs: Tuple[LoopSpec, ...]
    index_map: LazyIndexMap                  # shared across Scheduled uses
    primitives: Tuple[str, ...]              # structural trace prefix
    has_inner: bool                          # GPU: inner tile loops exist


def structural_key(config: NodeConfig, target: str) -> Tuple:
    """Hashable identity of the structural phase of lowering ``config``.

    Annotation knobs (unroll / vectorize / shared, FPGA pipeline /
    partition / buffer) are deliberately excluded: points differing only
    in them lower to the same loop nest and index map.
    """
    if target == "gpu":
        return (
            "gpu", config.spatial_factors, config.reduce_factors, config.reorder,
        )
    if target == "cpu":
        return (
            "cpu", config.spatial_factors, config.reduce_factors,
            config.reorder, config.fuse_levels,
        )
    if target == "fpga":
        return ("fpga", config.spatial_factors, config.reduce_factors)
    raise LoweringError(f"unknown target {target!r}; expected one of {TARGETS}")


class LoweringMemo:
    """Bounded LRU of :class:`LoweredStructure` keyed by structural key.

    One memo per evaluator (op, target and graph config are fixed
    there), so the key does not need to repeat them.  Configurations
    that fail to lower are never cached — they re-raise on every
    attempt, exactly like the unmemoized path.

    Below the structures it keeps the per-axis splits they are built
    from: ``splits`` maps ``(axis, kind, index, factors)`` to the split's
    loop specs, its index-map recipe and its primitive string, so a
    structural miss whose axes were all split before builds no ``Var``
    and formats no split primitive.  It holds one entry per distinct
    factor tuple of each axis, so it is bounded by the space's split
    knobs.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict[Tuple, LoweredStructure]" = OrderedDict()
        self.splits: Dict[Tuple, Tuple] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple) -> Optional[LoweredStructure]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, key: Tuple, structure: LoweredStructure) -> None:
        self._entries[key] = structure
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
        }


def lower(
    output,
    config: NodeConfig,
    target: str,
    graph_config: Optional[GraphConfig] = None,
    memo: Optional[LoweringMemo] = None,
) -> Scheduled:
    """Lower the main node of ``output``'s graph under ``config``.

    ``output`` may be a tensor or a :class:`MiniGraph`.  Helper compute
    nodes are inlined according to ``graph_config`` (all inlined by
    default).  With a ``memo``, the structural phase (splits, fusion,
    reorder, index simplification) is reused across configs that differ
    only in annotation knobs; the result is bit-identical to the
    unmemoized path (pinned by ``tests/test_hotpath_parity.py``).
    """
    graph = output if isinstance(output, MiniGraph) else get_graph(output)
    graph_config = graph_config or GraphConfig()
    main = graph.main_op
    inlined = tuple(
        op
        for op in graph.compute_ops
        if op is not main
        and graph_config.should_inline(op.name)
        and not isinstance(op.body, Reduce)  # reductions cannot be inlined
    )
    if memo is None:
        structure = _structural_lower(main, config, target, None)
    else:
        key = structural_key(config, target)
        structure = memo.get(key)
        if structure is None:
            structure = _structural_lower(main, config, target, memo.splits)
            memo.put(key, structure)
    scheduled = _annotate(main, structure, config, target)
    scheduled.inlined = inlined
    for op in inlined:
        scheduled.primitives.append(f"inline {op.name}")
    return scheduled


def _structural_lower(
    op: ComputeOp, config: NodeConfig, target: str, splits: Optional[Dict]
) -> LoweredStructure:
    """Run the expensive half of lowering and freeze it for reuse.

    ``splits`` is the memo's per-axis split table (None: split afresh)."""
    if target == "gpu":
        loops, raw, recoveries, primitives, has_inner = _structural_gpu(op, config, splits)
    elif target == "cpu":
        loops, raw, recoveries, primitives = _structural_cpu(op, config, splits)
        has_inner = len(loops) > 1
    elif target == "fpga":
        loops, raw, recoveries, primitives = _structural_fpga(op, config, splits)
        has_inner = False
    else:
        raise LoweringError(f"unknown target {target!r}; expected one of {TARGETS}")
    # Fuse-recovery substitution and simplification (the cleanup that
    # lets generated code and interpretation avoid no-op arithmetic) are
    # deferred: the performance models never read the index map, so
    # model-driven tuning skips that cost entirely.
    index_map = LazyIndexMap(raw, recoveries)
    return LoweredStructure(
        loop_specs=tuple(loops),
        index_map=index_map,
        primitives=tuple(primitives),
        has_inner=has_inner,
    )


def _annotate(
    op: ComputeOp, structure: LoweredStructure, config: NodeConfig, target: str
) -> Scheduled:
    """Apply the cheap, annotation-knob-dependent tail of lowering to a
    fresh clone of the structural loop nest."""
    loops = _fresh_loops(structure.loop_specs)
    primitives = list(structure.primitives)
    cached: Tuple = ()
    tensorized = _apply_tensorize(op, loops, config, target, primitives)
    if target == "gpu":
        if (
            not tensorized
            and config.vectorize
            and structure.has_inner
            and loops[-1].role[0] == "spatial"
        ):
            loops[-1].annotation = VECTORIZE
            primitives.append(f"vectorize {loops[-1].var.name}")
        _mark_unroll(loops, config.unroll_depth)
        if config.unroll_depth:
            primitives.append(f"unroll depth {config.unroll_depth}")
        cached = op.input_tensors if config.use_shared else ()
        for tensor in cached:
            primitives.append(f"cache {tensor.name} in shared memory")
    elif target == "cpu":
        if not tensorized and config.vectorize and len(loops) > 1:
            loops[-1].annotation = VECTORIZE
            primitives.append(f"vectorize {loops[-1].var.name}")
        _mark_unroll(loops, config.unroll_depth)
        if config.unroll_depth:
            primitives.append(f"unroll depth {config.unroll_depth}")
    else:  # fpga
        primitives.append(f"pipeline stages {config.fpga_pipeline}")
        primitives.append(f"partition factor {config.fpga_partition}")
        primitives.append(f"buffer {config.fpga_buffer_lines} input lines")
        _mark_unroll(loops, config.unroll_depth)
        cached = tuple(op.input_tensors)  # BRAM line buffers
    return Scheduled(
        op=op,
        target=target,
        loops=loops,
        index_map=structure.index_map,
        cached_tensors=tuple(cached),
        primitives=primitives,
        config=config,
    )


def _fresh_loops(specs: Sequence[LoopSpec]) -> List[LoopDef]:
    """New :class:`LoopDef` objects for a structure's loop specs.

    The specs come from the structural phase (positive extents, known
    annotations), so ``LoopDef.__post_init__``'s checks are skipped: this
    runs once per lowered point.
    """
    loops = []
    for var, extent, role, annotation in specs:
        loop = object.__new__(LoopDef)
        loop.var = var
        loop.extent = extent
        loop.role = role
        loop.annotation = annotation
        loops.append(loop)
    return loops


def _apply_tensorize(
    op: ComputeOp,
    loops: List[LoopDef],
    config: NodeConfig,
    target: str,
    primitives: List[str],
) -> bool:
    """Apply the ``tensorize`` knob: mark the intrinsic's covered loops.

    Legality comes from :func:`repro.analysis.match.tensorize_rejections`
    — the same oracle the TEN lint rules report — so a lint error is a
    proof this raises, and vice versa.  The covered loops stay in the nest
    (the interpreter executes them as one batched intrinsic call with an
    ordered accumulate, so numerics are bit-identical to the scalar nest)
    but are annotated ``TENSORIZE``: vectorize is subsumed and the models
    bill the compute term at the intrinsic's accelerator rate.  Purely an
    annotation, so the structural memo key is untouched.
    """
    if not getattr(config, "tensorize", ""):
        return False
    from ..analysis.match import covered_inner_roles, tensorize_rejections

    rejections = tensorize_rejections(op, config, target)
    if rejections:
        raise LoweringError(
            "illegal tensorize: "
            + "; ".join(f"{rule}: {message}" for rule, message, _hint in rejections)
        )
    covered = set(covered_inner_roles(op, config.tensorize, target))
    marked = []
    for loop in loops:
        if loop.role in covered:
            loop.annotation = TENSORIZE
            marked.append(loop.var.name)
    primitives.append(f"tensorize {config.tensorize} over " + ", ".join(marked))
    return True


def _check_parts(config: NodeConfig, op: ComputeOp, spatial: int, reduce_: int) -> None:
    if len(config.spatial_factors) != len(op.axes):
        raise LoweringError(
            f"config has {len(config.spatial_factors)} spatial splits, "
            f"op {op.name} has {len(op.axes)} spatial axes"
        )
    if len(config.reduce_factors) != len(op.reduce_axes):
        raise LoweringError(
            f"config has {len(config.reduce_factors)} reduce splits, "
            f"op {op.name} has {len(op.reduce_axes)} reduce axes"
        )
    for factors in config.spatial_factors:
        if len(factors) != spatial:
            raise LoweringError(f"expected {spatial}-part spatial splits, got {factors}")
    for factors in config.reduce_factors:
        if len(factors) != reduce_:
            raise LoweringError(f"expected {reduce_}-part reduce splits, got {factors}")


def _split_all(
    axes: Sequence[IterVar],
    factor_lists,
    kind: str,
    primitives: List[str],
    splits: Optional[Dict],
) -> Tuple[List[Tuple[LoopSpec, ...]], Dict[IterVar, Tuple]]:
    """Split every axis into serial loop specs, recording index-map
    *recipes* instead of exprs.

    Validation and loops match :func:`split_axis` exactly; the index
    re-composition expression is deferred to :class:`LazyIndexMap` (the
    models never read it).  With a ``splits`` table (a memo's), each
    axis split is built once and reused by every later structure.
    """
    loops_per_axis: List[Tuple[LoopSpec, ...]] = []
    split_specs: Dict[IterVar, Tuple] = {}
    for idx, (axis, factors) in enumerate(zip(axes, factor_lists)):
        if splits is None:
            split = _split_axis(axis, factors, kind, idx)
        else:
            key = (axis, kind, idx, factors)
            split = splits.get(key)
            if split is None:
                split = splits[key] = _split_axis(axis, factors, kind, idx)
        loops, recipe, primitive = split
        loops_per_axis.append(loops)
        split_specs[axis] = recipe
        primitives.append(primitive)
    return loops_per_axis, split_specs


def _split_axis(axis: IterVar, factors, kind: str, idx: int) -> Tuple:
    """One axis split: (loop specs, index-map recipe, primitive)."""
    product = 1
    for f in factors:
        product *= f
    if product != axis.extent:
        raise ValueError(
            f"split factors {tuple(factors)} do not multiply to extent "
            f"{axis.extent} of {axis.name}"
        )
    loops = tuple(
        (Var(f"{axis.name}.{part}"), factor, (kind, idx, part), SERIAL)
        for part, factor in enumerate(factors)
    )
    recipe = tuple((var, extent) for var, extent, _role, _annotation in loops)
    return loops, recipe, f"split {axis.name}({axis.extent}) -> {tuple(factors)}"


def _fuse_structural(
    loops: Sequence[LoopSpec], name: str, annotation: str
) -> Tuple[LoopSpec, Tuple]:
    """Fuse adjacent loops, deferring the div/mod recovery expressions.

    The fused loop matches :func:`fuse_loops` exactly; the recovery
    recipe is handed to :class:`LazyIndexMap`, which builds the same
    ``(fused // trailing) % extent`` expressions on first read.
    """
    if not loops:
        raise ValueError("cannot fuse zero loops")
    total = 1
    for loop in loops:
        total *= loop[1]
    fused = (Var(name), total, tuple(loop[2] for loop in loops), annotation)
    return fused, (fused[0], tuple((loop[0], loop[1]) for loop in loops))


def _names(loops: Sequence[LoopSpec]) -> str:
    return ", ".join(loop[0].name for loop in loops)


def _mark_unroll(loops: List[LoopDef], unroll_depth: int) -> None:
    """Annotate innermost serial loops whose combined body fits the unroll
    budget, emulating TVM's ``auto_unroll_max_step`` pragma."""
    if unroll_depth <= 0:
        return
    budget = unroll_depth
    for loop in reversed(loops):
        if loop.annotation != SERIAL:
            continue
        if loop.extent <= budget:
            loop.annotation = UNROLL
            budget //= loop.extent
        else:
            break


def _order_inner(
    reorder: int,
    reduce_outer: List[LoopSpec],
    spatial_inner: List[LoopSpec],
    reduce_inner: List[LoopSpec],
) -> List[LoopSpec]:
    """Arrange the per-thread (or per-core) tile loops per the reorder knob."""
    if reorder == REORDER_REDUCE_INNER:
        return reduce_outer + spatial_inner + reduce_inner
    if reorder == REORDER_SPATIAL_INNER:
        return reduce_outer + reduce_inner + spatial_inner
    if reorder == REORDER_INTERLEAVED:
        if spatial_inner:
            return (
                reduce_outer
                + spatial_inner[:-1]
                + reduce_inner
                + [spatial_inner[-1]]
            )
        return reduce_outer + reduce_inner
    raise LoweringError(f"unknown reorder choice {reorder}")


def _structural_gpu(op: ComputeOp, config: NodeConfig, splits: Optional[Dict]):
    _check_parts(config, op, GPU_SPATIAL_PARTS, GPU_REDUCE_PARTS)
    primitives: List[str] = []
    spatial_loops, index_map = _split_all(
        op.axes, config.spatial_factors, "spatial", primitives, splits)
    reduce_loops, reduce_index = _split_all(
        op.reduce_axes, config.reduce_factors, "reduce", primitives, splits)
    index_map.update(reduce_index)

    block_parts = [loops[0] for loops in spatial_loops]
    vthread_parts = [loops[1][:3] + (VTHREAD,) for loops in spatial_loops]
    thread_parts = [loops[2] for loops in spatial_loops]
    inner_parts = [loops[3] for loops in spatial_loops]

    recoveries = []
    block_loop, recovery = _fuse_structural(block_parts, f"{op.name}.blockIdx", BLOCK_X)
    recoveries.append(recovery)
    primitives.append("fuse " + _names(block_parts) + " -> blockIdx.x")
    primitives.append("bind blockIdx.x")

    thread_loop, recovery = _fuse_structural(thread_parts, f"{op.name}.threadIdx", THREAD_X)
    recoveries.append(recovery)
    primitives.append("fuse " + _names(thread_parts) + " -> threadIdx.x")
    primitives.append("bind threadIdx.x")

    reduce_outer = [loops[0] for loops in reduce_loops]
    reduce_inner = [loops[1] for loops in reduce_loops]
    inner = _order_inner(config.reorder, reduce_outer, inner_parts, reduce_inner)
    primitives.append(f"reorder choice {config.reorder}")

    loops = [block_loop, thread_loop] + vthread_parts + inner
    return loops, index_map, recoveries, primitives, bool(inner)


def _structural_cpu(op: ComputeOp, config: NodeConfig, splits: Optional[Dict]):
    _check_parts(config, op, CPU_SPATIAL_PARTS, CPU_REDUCE_PARTS)
    if config.fuse_levels > len(op.axes):
        raise LoweringError(
            f"fuse_levels {config.fuse_levels} exceeds spatial axes {len(op.axes)}"
        )
    primitives: List[str] = []
    spatial_loops, index_map = _split_all(
        op.axes, config.spatial_factors, "spatial", primitives, splits)
    reduce_loops, reduce_index = _split_all(
        op.reduce_axes, config.reduce_factors, "reduce", primitives, splits)
    index_map.update(reduce_index)

    outer_parts = [loops[0] for loops in spatial_loops]
    middle_parts = [loops[1] for loops in spatial_loops]
    inner_parts = [loops[2] for loops in spatial_loops]

    fused = outer_parts[: config.fuse_levels]
    fused_outer, recovery = _fuse_structural(fused, f"{op.name}.parallel", PARALLEL)
    recoveries = [recovery]
    primitives.append("fuse " + _names(fused) + " -> outer")
    primitives.append("parallel outer")

    remaining_outer = outer_parts[config.fuse_levels :]
    reduce_outer = [loops[0] for loops in reduce_loops]
    reduce_inner = [loops[1] for loops in reduce_loops]
    inner = _order_inner(config.reorder, reduce_outer, inner_parts, reduce_inner)
    primitives.append(f"reorder choice {config.reorder}")

    loops = [fused_outer] + remaining_outer + middle_parts + inner
    return loops, index_map, recoveries, primitives


def _structural_fpga(op: ComputeOp, config: NodeConfig, splits: Optional[Dict]):
    _check_parts(config, op, FPGA_SPATIAL_PARTS, 1)
    primitives: List[str] = []
    spatial_loops, index_map = _split_all(
        op.axes, config.spatial_factors, "spatial", primitives, splits)
    reduce_loops, reduce_index = _split_all(
        op.reduce_axes, config.reduce_factors, "reduce", primitives, splits)
    index_map.update(reduce_index)

    outer_parts = [loops[0] for loops in spatial_loops]
    pe_parts = [loops[1] for loops in spatial_loops]
    pe_loop, recovery = _fuse_structural(pe_parts, f"{op.name}.pe", PE_PARALLEL)
    recoveries = [recovery]
    primitives.append("fuse " + _names(pe_parts) + " -> PE")

    reduce_flat = [loops[0] for loops in reduce_loops]
    loops = outer_parts + [pe_loop] + reduce_flat
    return loops, index_map, recoveries, primitives
