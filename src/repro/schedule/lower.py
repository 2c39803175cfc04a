"""Lowering schedule configurations to loop nests (§5.3, Figure 4).

Two entry points share one set of lowering rules:

* :func:`schedule_facts` prices a point.  From the config alone it
  derives what the performance models read of a lowered schedule — grid
  size, block threads, parallel/PE extent, cached tensors and the
  innermost vectorized loop — and raises what lowering would raise,
  without building a loop nest.  The evaluator calls it once per
  measured point, like the paper's one analytical-model query (§5.2).
* :func:`lower` builds the full loop nest (loops, index map, primitive
  trace) for code generation, interpretation and validation.

One lowering per target, mirroring the paper's hardware-specific
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

import functools
import math
from collections import OrderedDict
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..graph import MiniGraph, get_graph
from ..ir import ComputeOp, Reduce, simplify
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
    fuse_loops,
    split_axis,
    substitute_vars,
)

GPU_SPATIAL_PARTS = 4
GPU_REDUCE_PARTS = 2
CPU_SPATIAL_PARTS = 3
CPU_REDUCE_PARTS = 2
FPGA_SPATIAL_PARTS = 2

TARGETS = ("gpu", "cpu", "fpga")

#: Split parts per target: (spatial, reduce).
SPLIT_PARTS = {
    "gpu": (GPU_SPATIAL_PARTS, GPU_REDUCE_PARTS),
    "cpu": (CPU_SPATIAL_PARTS, CPU_REDUCE_PARTS),
    "fpga": (FPGA_SPATIAL_PARTS, 1),
}

#: Inner (register-tile) spatial split part per target; reduce-inner is
#: part 1 on both.  FPGA has no inner tile.
INNER_SPATIAL_PART = {"cpu": 2, "gpu": 3}
INNER_REDUCE_PART = 1


class LoweringError(ValueError):
    """Raised when a configuration cannot be lowered for a target."""


class ScheduleFacts(NamedTuple):
    """What the performance models read of a lowered schedule.

    :func:`schedule_facts` computes these from the config alone; a
    :class:`Scheduled` carries the same attributes, derived from its
    loops, so a model prices either one.
    """

    op: ComputeOp
    target: str
    config: NodeConfig
    grid_size: int          # GPU thread blocks (1 off-GPU)
    block_threads: int      # threads per GPU block (1 off-GPU)
    parallel_extent: int    # CPU parallel chunks / FPGA PEs (1 on GPU)
    cached_tensors: Tuple   # inputs staged in shared memory / BRAM
    vector_loop: Optional[Tuple[int, Tuple]]  # innermost VECTORIZE (extent, role)


def structural_key(config: NodeConfig, target: str) -> Tuple:
    """Hashable identity of the structural half of lowering ``config``.

    Annotation knobs (unroll / vectorize / shared / tensorize, FPGA
    pipeline / partition / buffer) are deliberately excluded: points
    differing only in them lower to the same loop nest and index map.
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
    """Bounded LRU of structural facts keyed by :func:`structural_key`.

    One memo per evaluator (op, target and graph config are fixed
    there), so the key does not need to repeat them.  An entry holds the
    annotation-independent half of :class:`ScheduleFacts`: grid size,
    block threads, parallel extent and the innermost tile loop.
    Configurations that fail to lower are never cached — they re-raise
    on every attempt, exactly like the unmemoized path.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple) -> Optional[Tuple]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, key: Tuple, structure: Tuple) -> None:
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


def schedule_facts(
    op: ComputeOp,
    config: NodeConfig,
    target: str,
    memo: Optional[LoweringMemo] = None,
) -> ScheduleFacts:
    """The facts the models price of ``op`` lowered under ``config``,
    computed without building the loop nest.

    Raises what :func:`lower` raises for the same config, with the same
    text.  With a ``memo``, the structural half is reused across configs
    that share a :func:`structural_key`.
    """
    if memo is None:
        structure = _structural_facts(op, config, target)
    else:
        key = structural_key(config, target)
        structure = memo.get(key)
        if structure is None:
            structure = _structural_facts(op, config, target)
            memo.put(key, structure)
    grid, threads, parallel, innermost = structure
    tensorized = config.tensorize and _check_tensorize(op, config, target)
    # The intrinsic subsumes vectorize; the GPU vectorizes only a spatial loop.
    vectorized = (
        target != "fpga" and not tensorized and config.vectorize
        and (target == "cpu" or innermost[1][0] == "spatial")
    )
    # Shared-memory tiles on the GPU, BRAM line buffers on the FPGA.
    cached = op.input_tensors if target == "fpga" or (
        target == "gpu" and config.use_shared) else ()
    return ScheduleFacts(
        op, target, config, grid, threads, parallel, tuple(cached),
        innermost if vectorized else None,
    )


def _structural_facts(op: ComputeOp, config: NodeConfig, target: str) -> Tuple:
    """:func:`loop_extents` after the checks lowering makes, in its order."""
    if target not in SPLIT_PARTS:
        raise LoweringError(f"unknown target {target!r}; expected one of {TARGETS}")
    _check_parts(config, op, *SPLIT_PARTS[target])
    if target == "cpu" and config.fuse_levels > len(op.axes):
        raise LoweringError(
            f"fuse_levels {config.fuse_levels} exceeds spatial axes {len(op.axes)}"
        )
    all_factors = tuple(config.spatial_factors) + tuple(config.reduce_factors)
    for axis, factors in zip(op.all_axes, all_factors):
        if math.prod(factors) != axis.extent:
            raise ValueError(
                f"split factors {tuple(factors)} do not multiply to extent "
                f"{axis.extent} of {axis.name}"
            )
    if not op.axes:
        raise ValueError("cannot fuse zero loops")
    return loop_extents(op, config, target)


def loop_extents(
    op: ComputeOp, config: NodeConfig, target: str
) -> Tuple[int, int, int, Optional[Tuple[int, Tuple]]]:
    """``(grid, threads, parallel, innermost)`` of the loop nest
    :func:`lower` builds for ``config``.

    ``grid`` and ``threads`` are the GPU's fused block and thread parts
    (1 off-GPU); ``parallel`` is the CPU's fused parallel-outer parts or
    the FPGA's PE parts (1 on the GPU); ``innermost`` is the last loop's
    ``(extent, role)`` (None on the FPGA, which never vectorizes).

    No checks: the config needs :data:`SPLIT_PARTS` parts per axis, but
    its splits need not multiply to their extents, so the linter, the
    models and lowering all read one mapping of split parts to loops.
    """
    spatial = config.spatial_factors
    if target == "fpga":
        return 1, 1, math.prod(f[1] for f in spatial), None
    roles = _role_order(len(op.axes), len(op.reduce_axes), config.reorder, target)
    kind, idx, part = role = roles[-1]
    factors = spatial if kind == "spatial" else config.reduce_factors
    innermost = factors[idx][part], role
    if target == "cpu":
        return 1, 1, math.prod(f[0] for f in spatial[: config.fuse_levels]), innermost
    return math.prod(f[0] for f in spatial), math.prod(f[2] for f in spatial), 1, innermost


def _check_tensorize(op: ComputeOp, config: NodeConfig, target: str) -> bool:
    """True when the set ``tensorize`` knob applies; raises when it is
    illegal.

    Legality comes from :func:`repro.analysis.match.tensorize_rejections`
    — the same oracle the TEN lint rules report — so a lint error is a
    proof this raises, and vice versa.
    """
    from ..analysis.match import tensorize_rejections

    rejections = tensorize_rejections(op, config, target)
    if rejections:
        raise LoweringError(
            "illegal tensorize: "
            + "; ".join(f"{rule}: {message}" for rule, message, _hint in rejections)
        )
    return True


def lower(
    output,
    config: NodeConfig,
    target: str,
    graph_config: Optional[GraphConfig] = None,
) -> Scheduled:
    """Lower the main node of ``output``'s graph under ``config``.

    ``output`` may be a tensor or a :class:`MiniGraph`.  Helper compute
    nodes are inlined according to ``graph_config`` (all inlined by
    default).  The checks, the vectorized loop and the cached tensors
    come from :func:`schedule_facts`, so a lowered schedule prices
    exactly like its facts.
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
    facts = schedule_facts(main, config, target)
    primitives: List[str] = []
    spatial, reduce_, index_map = _split_all(main, config, primitives)
    build = {"gpu": _loops_gpu, "cpu": _loops_cpu, "fpga": _loops_fpga}[target]
    loops, recoveries = build(main, config, spatial, reduce_, primitives)
    for axis, index in index_map.items():
        for recovery in recoveries:
            index = substitute_vars(index, recovery)
        index_map[axis] = simplify(index)
    if config.tensorize:
        _mark_tensorize(main, loops, config, target, primitives)
    if facts.vector_loop is not None:
        loops[-1].annotation = VECTORIZE
        primitives.append(f"vectorize {loops[-1].var.name}")
    if target == "fpga":
        primitives.append(f"pipeline stages {config.fpga_pipeline}")
        primitives.append(f"partition factor {config.fpga_partition}")
        primitives.append(f"buffer {config.fpga_buffer_lines} input lines")
    _mark_unroll(loops, config.unroll_depth)
    if config.unroll_depth and target != "fpga":
        primitives.append(f"unroll depth {config.unroll_depth}")
    if target == "gpu":
        for tensor in facts.cached_tensors:
            primitives.append(f"cache {tensor.name} in shared memory")
    for op in inlined:
        primitives.append(f"inline {op.name}")
    return Scheduled(
        op=main,
        target=target,
        loops=loops,
        index_map=MappingProxyType(index_map),
        inlined=inlined,
        cached_tensors=facts.cached_tensors,
        primitives=primitives,
        config=config,
    )


def _mark_tensorize(
    op: ComputeOp,
    loops: List[LoopDef],
    config: NodeConfig,
    target: str,
    primitives: List[str],
) -> None:
    """Annotate the intrinsic's covered loops ``TENSORIZE``.

    The covered loops stay in the nest (the interpreter executes them as
    one batched intrinsic call with an ordered accumulate, so numerics
    are bit-identical to the scalar nest); vectorize is subsumed and the
    models bill the compute term at the intrinsic's accelerator rate.
    """
    from ..analysis.match import covered_inner_roles

    covered = set(covered_inner_roles(op, config.tensorize, target))
    marked = []
    for loop in loops:
        if loop.role in covered:
            loop.annotation = TENSORIZE
            marked.append(loop.var.name)
    primitives.append(f"tensorize {config.tensorize} over " + ", ".join(marked))


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


def _split_all(op: ComputeOp, config: NodeConfig, primitives: List[str]):
    """Split every spatial, then every reduce axis into serial loops.

    Returns the per-axis loops of each kind and each axis's index
    expression over its split loops.
    """
    index_map: Dict = {}
    per_kind = []
    for kind, axes, factor_lists in (
        ("spatial", op.axes, config.spatial_factors),
        ("reduce", op.reduce_axes, config.reduce_factors),
    ):
        per_axis = []
        for idx, (axis, factors) in enumerate(zip(axes, factor_lists)):
            loops, index_map[axis] = split_axis(axis, factors, kind, idx)
            primitives.append(f"split {axis.name}({axis.extent}) -> {tuple(factors)}")
            per_axis.append(loops)
        per_kind.append(per_axis)
    return per_kind[0], per_kind[1], index_map


def _names(loops: Sequence[LoopDef]) -> str:
    return ", ".join(loop.var.name for loop in loops)


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


def _order_inner(reorder: int, reduce_outer: List, spatial_inner: List, reduce_inner: List) -> List:
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


def inner_role_order(op: ComputeOp, config: NodeConfig, target: str) -> List[Tuple]:
    """Roles of the per-core/per-thread tile loops, outermost first.

    The GPU and CPU nests always end with these loops, so the list's
    suffix is the nest's innermost suffix.
    """
    return list(_role_order(len(op.axes), len(op.reduce_axes), config.reorder, target))


@functools.lru_cache(maxsize=None)
def _role_order(n_spatial: int, n_reduce: int, reorder: int, target: str) -> Tuple:
    return tuple(_order_inner(
        reorder,
        [("reduce", i, 0) for i in range(n_reduce)],
        [("spatial", i, INNER_SPATIAL_PART[target]) for i in range(n_spatial)],
        [("reduce", i, INNER_REDUCE_PART) for i in range(n_reduce)],
    ))


def _loops_gpu(op: ComputeOp, config: NodeConfig, spatial, reduce_, primitives: List[str]):
    block_parts = [loops[0] for loops in spatial]
    block_loop, block_recovery = fuse_loops(block_parts, f"{op.name}.blockIdx")
    block_loop.annotation = BLOCK_X
    primitives.append("fuse " + _names(block_parts) + " -> blockIdx.x")
    primitives.append("bind blockIdx.x")

    thread_parts = [loops[2] for loops in spatial]
    thread_loop, thread_recovery = fuse_loops(thread_parts, f"{op.name}.threadIdx")
    thread_loop.annotation = THREAD_X
    primitives.append("fuse " + _names(thread_parts) + " -> threadIdx.x")
    primitives.append("bind threadIdx.x")

    vthread_parts = [loops[1] for loops in spatial]
    for loop in vthread_parts:
        loop.annotation = VTHREAD
    inner = _order_inner(
        config.reorder,
        [loops[0] for loops in reduce_],
        [loops[3] for loops in spatial],
        [loops[1] for loops in reduce_],
    )
    primitives.append(f"reorder choice {config.reorder}")
    loops = [block_loop, thread_loop] + vthread_parts + inner
    return loops, (block_recovery, thread_recovery)


def _loops_cpu(op: ComputeOp, config: NodeConfig, spatial, reduce_, primitives: List[str]):
    outer_parts = [loops[0] for loops in spatial]
    fused = outer_parts[: config.fuse_levels]
    fused_outer, recovery = fuse_loops(fused, f"{op.name}.parallel")
    fused_outer.annotation = PARALLEL
    primitives.append("fuse " + _names(fused) + " -> outer")
    primitives.append("parallel outer")

    inner = _order_inner(
        config.reorder,
        [loops[0] for loops in reduce_],
        [loops[2] for loops in spatial],
        [loops[1] for loops in reduce_],
    )
    primitives.append(f"reorder choice {config.reorder}")
    loops = (
        [fused_outer] + outer_parts[config.fuse_levels :]
        + [loops[1] for loops in spatial] + inner
    )
    return loops, (recovery,)


def _loops_fpga(op: ComputeOp, config: NodeConfig, spatial, reduce_, primitives: List[str]):
    pe_parts = [loops[1] for loops in spatial]
    pe_loop, recovery = fuse_loops(pe_parts, f"{op.name}.pe")
    pe_loop.annotation = PE_PARALLEL
    primitives.append("fuse " + _names(pe_parts) + " -> PE")
    loops = [loops[0] for loops in spatial] + [pe_loop] + [loops[0] for loops in reduce_]
    return loops, (recovery,)
