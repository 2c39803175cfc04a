"""Schedule configurations — points of the schedule space (Figure 3e).

A :class:`NodeConfig` encodes one schedule for one compute node as the
paper's vector of primitive parameters: split factors per loop, a reorder
choice, fusion depth, unroll depth, vectorization and memory-customization
flags.  A :class:`GraphConfig` adds the graph-level decisions (which helper
nodes to inline) produced by ``Schedule_for_graph`` in Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

#: Reorder choices for the innermost tile (which loops end up innermost).
REORDER_REDUCE_INNER = 0   # ... spatial tile, then reduce-inner innermost
REORDER_SPATIAL_INNER = 1  # ... reduce-inner, then spatial tile innermost
REORDER_INTERLEAVED = 2    # reduce-inner between the spatial tile loops
REORDER_CHOICES = (REORDER_REDUCE_INNER, REORDER_SPATIAL_INNER, REORDER_INTERLEAVED)

#: Unroll pragma depths offered by the space (0 disables).
UNROLL_CHOICES = (0, 16, 64, 256)


@dataclass(frozen=True)
class NodeConfig:
    """Schedule parameters for a single compute node.

    ``spatial_factors[d]`` are the ordered split factors of spatial axis d
    (outermost first; their product equals the axis extent); likewise
    ``reduce_factors``.  GPU lowering expects 4 spatial parts
    (block, vthread, thread, inner) and 2 reduce parts (outer, inner); CPU
    lowering expects 3 spatial parts (parallel-outer, middle, inner) and 2
    reduce parts; FPGA lowering expects 2 spatial parts (PE, serial).
    """

    spatial_factors: Tuple[Tuple[int, ...], ...]
    reduce_factors: Tuple[Tuple[int, ...], ...] = ()
    reorder: int = REORDER_REDUCE_INNER
    fuse_levels: int = 1          # CPU: #outer parts fused into the parallel loop
    unroll_depth: int = 0
    vectorize: bool = True
    use_shared: bool = True       # GPU shared-memory caching of inputs
    tensorize: str = ""           # intrinsic name from repro.analysis.INTRINSICS
    # FPGA-specific parameters (ignored by other targets):
    fpga_partition: int = 1       # memory partition factor (bandwidth multiplier)
    fpga_pipeline: int = 3        # pipeline stages (read / compute / write)
    fpga_buffer_lines: int = 1    # input rows buffered per round

    def __post_init__(self):
        if self.reorder not in REORDER_CHOICES:
            raise ValueError(f"unknown reorder choice {self.reorder}")
        if self.unroll_depth not in UNROLL_CHOICES:
            raise ValueError(f"unknown unroll depth {self.unroll_depth}")
        if self.fuse_levels < 1:
            raise ValueError("fuse_levels must be >= 1")
        for factors in tuple(self.spatial_factors) + tuple(self.reduce_factors):
            if min(factors, default=1) < 1:
                raise ValueError(f"split factors must be positive, got {factors}")

    def with_(self, **changes) -> "NodeConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def as_vector(self) -> Tuple[int, ...]:
        """The paper's flat encoding of the schedule point (Fig. 3e)."""
        flat = []
        for factors in self.spatial_factors:
            flat.extend(factors)
        for factors in self.reduce_factors:
            flat.extend(factors)
        flat.extend(
            [
                self.reorder,
                self.fuse_levels,
                self.unroll_depth,
                int(self.vectorize),
                int(self.use_shared),
                self.fpga_partition,
                self.fpga_pipeline,
                self.fpga_buffer_lines,
            ]
        )
        return tuple(flat)


@dataclass(frozen=True)
class GraphConfig:
    """Graph-level schedule decisions (Algorithm 1, line 8).

    ``inline`` maps helper-node names to whether their computation is
    inlined into the consumer.  FlexTensor's pre-determined decision is to
    inline data-rearrangement nodes (padding, expansion), which is also our
    default when a name is absent.
    """

    inline: Dict[str, bool] = field(default_factory=dict)

    def should_inline(self, op_name: str) -> bool:
        return self.inline.get(op_name, True)
