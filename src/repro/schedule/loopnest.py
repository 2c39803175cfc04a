"""Scheduled loop nests.

Lowering a :class:`~repro.ir.ComputeOp` under a schedule configuration
produces a :class:`Scheduled` object: an ordered list of loops (with
annotations saying how each maps to hardware — thread blocks, threads,
parallel workers, vector lanes) plus, for every original iteration axis, an
index expression over the new loop variables that reconstructs it.  The
interpreter executes this structure directly, so every transformation the
optimizer can express is also executable and testable for semantics.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import ComputeOp, Expr, IterVar, Var

# Loop annotations (how a loop is realized on the target).
SERIAL = "serial"
PARALLEL = "parallel"          # CPU worker threads
VECTORIZE = "vectorize"        # SIMD lanes
UNROLL = "unroll"
BLOCK_X = "blockIdx.x"         # GPU grid
THREAD_X = "threadIdx.x"       # GPU threads in a block
VTHREAD = "vthread"            # GPU serial-in-thread outer tile
PE_PARALLEL = "pe"             # FPGA processing elements
TENSORIZE = "tensorize"        # loops replaced by one intrinsic call

ANNOTATIONS = (
    SERIAL, PARALLEL, VECTORIZE, UNROLL, BLOCK_X, THREAD_X, VTHREAD,
    PE_PARALLEL, TENSORIZE,
)


@dataclass
class LoopDef:
    """One loop of the transformed nest.

    ``role`` records the loop's origin as ``(kind, axis_index, part_index)``
    with kind ``"spatial"`` or ``"reduce"``; fused loops carry a tuple of
    the roles they merged.
    """

    var: Var
    extent: int
    role: Tuple
    annotation: str = SERIAL

    def __post_init__(self):
        if self.annotation not in ANNOTATIONS:
            raise ValueError(f"unknown loop annotation {self.annotation!r}")
        if self.extent <= 0:
            raise ValueError(f"loop {self.var.name} has non-positive extent")


@dataclass
class Scheduled:
    """A fully lowered schedule for one compute node.

    Attributes:
        op: the compute node being scheduled.
        target: target name ("gpu", "cpu", "fpga").
        loops: the transformed loop nest, outermost first.
        index_map: original :class:`IterVar` -> expression over loop vars
            (read-only: lowering shares one map across schedules).
        inlined: producer ops whose bodies are computed in place (padding,
            expansion nodes — the paper's ``inline`` primitive).
        cached_tensors: input tensors staged in GPU shared memory / FPGA
            BRAM (the ``cache``/``buffer`` primitives).
        primitives: human-readable trace of applied primitives, in order.
        config: the schedule configuration this was lowered from.
    """

    op: ComputeOp
    target: str
    loops: List[LoopDef]
    index_map: Mapping[IterVar, Expr]
    inlined: Tuple = ()
    cached_tensors: Tuple = ()
    primitives: List[str] = field(default_factory=list)
    config: Optional[object] = None

    def __post_init__(self):
        missing = [a.name for a in self.op.all_axes if a not in self.index_map]
        if missing:
            raise ValueError(f"index_map missing axes: {missing}")

    # -- queries used by cost models and codegen -------------------------

    def loops_with(self, annotation: str) -> List[LoopDef]:
        return [l for l in self.loops if l.annotation == annotation]

    def extent_product(self, annotation: str) -> int:
        total = 1
        for loop in self.loops_with(annotation):
            total *= loop.extent
        return total

    @property
    def grid_size(self) -> int:
        """Number of GPU thread blocks (or 1 off-GPU)."""
        return self.extent_product(BLOCK_X)

    @property
    def block_threads(self) -> int:
        """Threads per GPU block (or 1 off-GPU)."""
        return self.extent_product(THREAD_X)

    @property
    def parallel_extent(self) -> int:
        """CPU parallel workers / FPGA PEs exposed by the schedule."""
        return max(self.extent_product(PARALLEL), self.extent_product(PE_PARALLEL))

    @property
    def vector_loop(self) -> Optional[Tuple[int, Tuple]]:
        """``(extent, role)`` of the innermost VECTORIZE loop, or None."""
        for loop in reversed(self.loops):
            if loop.annotation == VECTORIZE:
                return loop.extent, loop.role
        return None

    @property
    def iteration_count(self) -> int:
        total = 1
        for loop in self.loops:
            total *= loop.extent
        return total

    def describe(self) -> str:
        """Multi-line summary of the loop nest."""
        lines = [f"schedule[{self.target}] of {self.op.name}"]
        indent = "  "
        for loop in self.loops:
            tag = "" if loop.annotation == SERIAL else f"  # {loop.annotation}"
            lines.append(f"{indent}for {loop.var.name} in range({loop.extent}):{tag}")
            indent += "  "
        lines.append(f"{indent}{self.op.name}[...] = ...")
        return "\n".join(lines)


def split_axis(axis: IterVar, factors: Sequence[int], kind: str, axis_idx: int) -> Tuple[List[LoopDef], Expr]:
    """Split ``axis`` into ``len(factors)`` nested loops.

    ``factors`` are outermost-first and must multiply to the axis extent
    (divisible splits only — the paper's parameter pruning, §4.2).  Returns
    the new loops and the expression reconstructing the original index:
    ``((f0*e1 + f1)*e2 + f2) ...``.
    """
    product = 1
    for f in factors:
        product *= f
    if product != axis.extent:
        raise ValueError(
            f"split factors {tuple(factors)} do not multiply to extent "
            f"{axis.extent} of {axis.name}"
        )
    loops = []
    for part, factor in enumerate(factors):
        var = Var(f"{axis.name}.{part}")
        loops.append(LoopDef(var, factor, (kind, axis_idx, part)))
    index: Expr = loops[0].var
    for loop in loops[1:]:
        index = index * loop.extent + loop.var
    return loops, index


def fuse_loops(loops: Sequence[LoopDef], name: str) -> Tuple[LoopDef, Dict[Var, Expr]]:
    """Fuse adjacent loops into one hyper-loop.

    Returns the fused loop and a mapping from each original loop variable
    to its reconstruction (div/mod of the fused variable), outermost first.
    """
    if not loops:
        raise ValueError("cannot fuse zero loops")
    total = 1
    for loop in loops:
        total *= loop.extent
    fused_var = Var(name)
    fused = LoopDef(fused_var, total, tuple(l.role for l in loops))
    recovery: Dict[Var, Expr] = {}
    remaining: Expr = fused_var
    trailing = total
    for loop in loops:
        trailing //= loop.extent
        recovery[loop.var] = (remaining // trailing) % loop.extent if trailing > 1 else remaining % loop.extent
    return fused, recovery


def substitute_vars(expr: Expr, mapping: Dict[Var, Expr]) -> Expr:
    """Replace loop variables in ``expr`` according to ``mapping``."""
    from ..ir import BinaryOp

    if isinstance(expr, Var) and expr in mapping:
        return mapping[expr]
    if isinstance(expr, BinaryOp):
        cls = type(expr)
        return cls(substitute_vars(expr.a, mapping), substitute_vars(expr.b, mapping))
    return expr
