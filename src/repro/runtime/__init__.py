"""Measurement harness, simulated exploration clock, fault injection,
checkpointing, batched parallel evaluation, and tuning records."""

from .cache import EVALCACHE_VERSION, EvalCache
from .checkpoint import CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from .fault import (
    Fault,
    FaultInjector,
    InjectedCompileError,
    InjectedHang,
    InjectedRuntimeError,
)
from .measure import (
    Evaluator,
    MeasureConfig,
    MeasureResult,
    MeasureStatus,
    materialization_seconds,
    op_signature_of,
)
from .parallel import BatchEngine
from .records import RecordBook, TuningRecord, workload_key

__all__ = [
    "BatchEngine",
    "CHECKPOINT_VERSION",
    "EVALCACHE_VERSION",
    "EvalCache",
    "Evaluator",
    "Fault",
    "FaultInjector",
    "InjectedCompileError",
    "InjectedHang",
    "InjectedRuntimeError",
    "MeasureConfig",
    "MeasureResult",
    "MeasureStatus",
    "RecordBook",
    "TuningRecord",
    "load_checkpoint",
    "materialization_seconds",
    "op_signature_of",
    "save_checkpoint",
    "workload_key",
]
