"""Schedule representation, configuration and lowering (Table 2, §5.3)."""

from .config import (
    GraphConfig,
    NodeConfig,
    REORDER_CHOICES,
    REORDER_INTERLEAVED,
    REORDER_REDUCE_INNER,
    REORDER_SPATIAL_INNER,
    UNROLL_CHOICES,
    check_choice,
)
from .loopnest import (
    ANNOTATIONS,
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
from .validate import ScheduleValidationError, quick_report, validate_schedule
from .lower import (
    CPU_REDUCE_PARTS,
    CPU_SPATIAL_PARTS,
    FPGA_SPATIAL_PARTS,
    GPU_REDUCE_PARTS,
    GPU_SPATIAL_PARTS,
    LoweringError,
    LoweringMemo,
    SPLIT_PARTS,
    ScheduleFacts,
    TARGETS,
    loop_extents,
    lower,
    schedule_facts,
    structural_key,
)

__all__ = [
    "ANNOTATIONS", "BLOCK_X", "CPU_REDUCE_PARTS", "CPU_SPATIAL_PARTS",
    "FPGA_SPATIAL_PARTS", "GPU_REDUCE_PARTS", "GPU_SPATIAL_PARTS",
    "GraphConfig", "LoopDef", "LoweringError",
    "LoweringMemo", "NodeConfig", "PARALLEL", "SPLIT_PARTS",
    "PE_PARALLEL", "REORDER_CHOICES", "REORDER_INTERLEAVED",
    "REORDER_REDUCE_INNER", "REORDER_SPATIAL_INNER", "SERIAL", "ScheduleFacts", "Scheduled",
    "TARGETS", "TENSORIZE", "THREAD_X", "UNROLL", "UNROLL_CHOICES",
    "VECTORIZE", "VTHREAD", "check_choice",
    "fuse_loops", "loop_extents", "lower", "schedule_facts", "split_axis", "structural_key",
    "substitute_vars",
    "ScheduleValidationError", "quick_report", "validate_schedule",
]
