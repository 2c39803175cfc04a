"""Code generation and execution of scheduled programs."""

from .features import (
    OpFacts,
    access_stride,
    batch_point_features,
    bytes_of,
    coalescing_efficiency,
    flops_of,
    op_facts,
    output_write_stride,
    point_features,
    read_tensors,
    reuse_factor,
    tensor_reads,
    tile_footprint,
)
from .interp import (
    execute_compute_op,
    execute_reference,
    execute_scheduled,
    random_inputs,
)
from .pycodegen import (
    compile_python,
    emit_pseudo,
    emit_python,
    expr_to_python,
    run_generated,
)

__all__ = [
    "OpFacts", "access_stride", "batch_point_features", "bytes_of",
    "coalescing_efficiency", "compile_python",
    "emit_pseudo", "emit_python", "execute_compute_op", "execute_reference",
    "execute_scheduled", "expr_to_python", "flops_of", "op_facts", "output_write_stride",
    "point_features", "random_inputs", "read_tensors", "reuse_factor",
    "run_generated", "tensor_reads", "tile_footprint",
]
