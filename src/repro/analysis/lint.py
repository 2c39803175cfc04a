"""Static schedule linter: prove legality before spending measurement budget.

FlexTensor's front-end prunes the schedule space with static structural
knowledge (§4.1–4.2), but hardware legality — thread counts, shared-memory
footprints, register pressure, PE/BRAM budgets — is equally a function of
``(op, config, device spec)`` alone: none of it needs lowering, compiling
or measuring to decide.  This module makes that knowledge a first-class
rule-based analyzer:

* :class:`Diagnostic` — one finding, with a stable rule ID (``GPU001``),
  a severity (``error`` means the evaluator is guaranteed to reject the
  point; ``warn`` means it is modeled as slow but legal), and a fix hint.
* :class:`ScheduleLinter` — runs every applicable rule for one
  ``(op, target, spec)`` against a :class:`~repro.schedule.NodeConfig`.

**Soundness contract** (enforced by ``tests/test_lint.py``): a config
receives an *error*-severity diagnostic **iff** the analytical performance
model rejects it (returns :data:`~repro.model.base.INVALID_TIME`) or
lowering fails.  Neither side re-derives the other's arithmetic: the
loop extents (threads per block, parallel chunks, PEs, the innermost
loop) come from :func:`repro.schedule.loop_extents`, which lowering
uses too, and the footprint helpers below (registers, shared memory,
occupancy, BRAM) are imported by the models in :mod:`repro.model`.

Consumers: the :class:`~repro.runtime.BatchEngine` runs the linter
before its cache probe and bills rejected points at zero cost
(``MeasureStatus.ILLEGAL``), and ``python -m repro lint`` prints a
diagnostics report.  :func:`repro.space.build_space` does not run the
linter: with a device spec it prunes split choices by its own per-axis
caps, each of which one of the error rules below would also reject.
See ``docs/lint.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..schedule import NodeConfig, REORDER_REDUCE_INNER, SPLIT_PARTS, loop_extents

_DTYPE_BYTES = 4

ERROR = "error"
WARN = "warn"

#: Rule registry: id -> (short name, severity, one-line description).
#: Stable IDs — documented in docs/lint.md; tests pin them.
RULES: Dict[str, Tuple[str, str, str]] = {
    "GEN001": ("non-divisible-split", ERROR,
               "split factors of an axis do not multiply to its extent"),
    "GEN002": ("dead-knob", WARN,
               "a knob setting has no effect on the lowered schedule"),
    "GEN003": ("malformed-config", ERROR,
               "config shape does not match the operator/target (lowering "
               "would fail)"),
    "GPU001": ("threads-per-block", ERROR,
               "fused threadIdx extent exceeds the device block limit"),
    "GPU002": ("smem-footprint", ERROR,
               "shared-memory tile exceeds the per-block budget"),
    "GPU003": ("register-pressure", WARN,
               "register tile exceeds the per-thread budget (spills)"),
    "GPU004": ("zero-occupancy", ERROR,
               "no thread block fits on an SM under the resource limits"),
    "CPU001": ("vectorize-width", WARN,
               "innermost vectorized loop wastes SIMD lanes"),
    "CPU002": ("parallel-starvation", WARN,
               "parallel chunks leave physical cores idle"),
    "FPGA001": ("pe-budget", ERROR,
                "PE array exceeds the DSP budget"),
    "FPGA002": ("bram-footprint", ERROR,
                "line buffers exceed the BRAM budget"),
    "FPGA003": ("partition-clamped", WARN,
                "memory partition factor exceeds the device banks"),
    "TEN001": ("no-intrinsic-match", ERROR,
               "the op/target does not statically instantiate the named "
               "intrinsic (pattern, dtype, stride or extent mismatch)"),
    "TEN002": ("tile-misaligned", ERROR,
               "a covered loop's inner split factor is not a multiple of "
               "the intrinsic tile extent"),
    "TEN003": ("not-innermost", ERROR,
               "the reorder choice does not keep the intrinsic's covered "
               "loops contiguous and innermost"),
    "TEN004": ("dead-vectorize-under-tensorize", WARN,
               "vectorize has no effect when the intrinsic subsumes the "
               "innermost lanes"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding against a schedule configuration."""

    rule: str           # stable ID, e.g. "GPU001"
    severity: str       # "error" | "warn"
    message: str        # what is wrong, with the offending numbers
    hint: str = ""      # how to fix it

    @property
    def name(self) -> str:
        """The rule's short name (``threads-per-block``)."""
        return RULES[self.rule][0]

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
        }

    def __str__(self):
        return f"{self.rule} {self.name} [{self.severity}]: {self.message}"


def _diag(rule: str, message: str, hint: str = "") -> Diagnostic:
    return Diagnostic(rule=rule, severity=RULES[rule][1], message=message, hint=hint)


# -- footprint arithmetic shared with the models ------------------------
#
# repro.model.gpu / repro.model.fpga gate on these same helpers, so a
# linter verdict and a model rejection can never disagree.

def gpu_register_estimate(config: NodeConfig) -> int:
    """Per-thread register estimate of the GPU model (uncapped).

    A fixed overhead plus the accumulator tile (vthread x inner parts)
    plus one address register per spatial inner part.
    """
    acc_tile = 1
    for factors in config.spatial_factors:
        acc_tile *= factors[1] * factors[3]
    return 24 + acc_tile + sum(f[3] for f in config.spatial_factors)


def gpu_block_tile(op, config: NodeConfig) -> Dict:
    """Per-axis extent of one block's tile for one reduce-outer step."""
    tile: Dict = {}
    for axis, factors in zip(op.axes, config.spatial_factors):
        tile[axis] = factors[1] * factors[2] * factors[3]
    for axis, factors in zip(op.reduce_axes, config.reduce_factors):
        tile[axis] = factors[1]
    return tile


def gpu_smem_bytes(op, config: NodeConfig, tensors: Optional[Sequence] = None) -> int:
    """Shared-memory footprint of the cached input tiles (0 if uncached)."""
    from ..codegen import tile_footprint

    if tensors is None:
        tensors = op.input_tensors if config.use_shared else ()
    if not tensors:
        return 0
    tile = gpu_block_tile(op, config)
    return sum(tile_footprint(op, t, tile) * _DTYPE_BYTES for t in tensors)


def gpu_active_blocks(spec, threads_per_block: int, smem_bytes: int,
                      registers: int) -> int:
    """Blocks resident per SM under thread/smem/register occupancy limits.

    ``registers`` is the raw estimate; the hardware cap (beyond which the
    compiler spills instead of allocating) is applied here, exactly as the
    GPU model does before its occupancy computation.
    """
    registers = min(registers, spec.max_registers_per_thread)
    blocks_by_threads = spec.max_threads_per_sm // max(threads_per_block, 1)
    blocks_by_smem = (
        spec.shared_mem_per_sm // smem_bytes if smem_bytes else spec.max_blocks_per_sm
    )
    blocks_by_regs = spec.registers_per_sm // max(registers * threads_per_block, 1)
    return min(blocks_by_threads, blocks_by_smem, blocks_by_regs, spec.max_blocks_per_sm)


def fpga_bram_bytes(op, config: NodeConfig) -> int:
    """BRAM footprint of the input line buffers for one pipeline round."""
    from ..codegen import tile_footprint

    pe_tile: Dict = {}
    for axis, factors in zip(op.axes, config.spatial_factors):
        pe_tile[axis] = factors[1]
    for axis in op.reduce_axes:
        pe_tile[axis] = axis.extent
    buffer_lines = max(config.fpga_buffer_lines, 1)
    total = 0
    for tensor in op.input_tensors:
        total += tile_footprint(op, tensor, pe_tile) * _DTYPE_BYTES * buffer_lines
    return total


# -- the linter -----------------------------------------------------------

class ScheduleLinter:
    """Rule-based static analyzer for one ``(op, target, spec)``.

    ``ignore`` suppresses rules by ID (warnings in practice; suppressing
    an *error* rule breaks the soundness contract and is refused).
    """

    def __init__(self, op, target: str, spec, ignore: Iterable[str] = ()):
        if target not in SPLIT_PARTS:
            raise ValueError(f"unknown target {target!r}")
        self.op = op
        self.target = target
        self.spec = spec
        self.ignore = frozenset(ignore)
        for rule in self.ignore:
            if rule not in RULES:
                raise ValueError(f"unknown lint rule {rule!r}")
            if RULES[rule][1] == ERROR:
                raise ValueError(
                    f"rule {rule} is error-severity and cannot be suppressed "
                    "(errors mirror hard hardware limits)"
                )

    # -- public API -------------------------------------------------------

    def lint(self, config: NodeConfig) -> List[Diagnostic]:
        """All diagnostics for ``config``, errors first."""
        diagnostics = self._structure(config)
        if not any(d.rule == "GEN003" for d in diagnostics):
            diagnostics.extend(self._divisibility(config))
            if self.target == "gpu":
                diagnostics.extend(self._gpu_rules(config))
            elif self.target == "cpu":
                diagnostics.extend(self._cpu_rules(config))
            else:
                diagnostics.extend(self._fpga_rules(config))
            diagnostics.extend(self._tensorize_rules(config))
            diagnostics.extend(self._dead_knobs(config))
        diagnostics = [d for d in diagnostics if d.rule not in self.ignore]
        diagnostics.sort(key=lambda d: (d.severity != ERROR, d.rule))
        return diagnostics

    def errors(self, config: NodeConfig) -> List[Diagnostic]:
        """Error-severity diagnostics only (the legality verdict)."""
        return [d for d in self.lint(config) if d.severity == ERROR]

    # -- rule groups ------------------------------------------------------

    def _structure(self, config: NodeConfig) -> List[Diagnostic]:
        """GEN003: shape mismatches that would make lowering raise."""
        op = self.op
        spatial_parts, reduce_parts = SPLIT_PARTS[self.target]
        found: List[Diagnostic] = []
        if len(config.spatial_factors) != len(op.axes):
            found.append(_diag(
                "GEN003",
                f"config has {len(config.spatial_factors)} spatial splits, "
                f"op {op.name} has {len(op.axes)} spatial axes",
                "regenerate the config from this operator's schedule space",
            ))
        if len(config.reduce_factors) != len(op.reduce_axes):
            found.append(_diag(
                "GEN003",
                f"config has {len(config.reduce_factors)} reduce splits, "
                f"op {op.name} has {len(op.reduce_axes)} reduce axes",
                "regenerate the config from this operator's schedule space",
            ))
        for factors in config.spatial_factors:
            if len(factors) != spatial_parts:
                found.append(_diag(
                    "GEN003",
                    f"{self.target} lowering expects {spatial_parts}-part "
                    f"spatial splits, got {tuple(factors)}",
                    f"use {spatial_parts} factors per spatial axis",
                ))
        for factors in config.reduce_factors:
            if len(factors) != reduce_parts:
                found.append(_diag(
                    "GEN003",
                    f"{self.target} lowering expects {reduce_parts}-part "
                    f"reduce splits, got {tuple(factors)}",
                    f"use {reduce_parts} factors per reduce axis",
                ))
        if self.target == "cpu" and config.fuse_levels > len(op.axes):
            found.append(_diag(
                "GEN003",
                f"fuse_levels {config.fuse_levels} exceeds the "
                f"{len(op.axes)} spatial axes",
                f"clamp fuse_levels to {len(op.axes)}",
            ))
        return found

    def _divisibility(self, config: NodeConfig) -> List[Diagnostic]:
        """GEN001: splits must multiply back to their axis extent."""
        found: List[Diagnostic] = []
        pairs = list(zip(self.op.axes, config.spatial_factors))
        pairs += list(zip(self.op.reduce_axes, config.reduce_factors))
        for axis, factors in pairs:
            product = 1
            for f in factors:
                product *= f
            if product != axis.extent:
                found.append(_diag(
                    "GEN001",
                    f"split {tuple(factors)} of axis {axis.name} multiplies "
                    f"to {product}, extent is {axis.extent}",
                    "pick an ordered factorization of the extent "
                    "(divisible splits only, §4.2)",
                ))
        return found

    def _gpu_rules(self, config: NodeConfig) -> List[Diagnostic]:
        spec = self.spec
        found: List[Diagnostic] = []
        _grid, threads, _parallel, _innermost = loop_extents(self.op, config, "gpu")
        if threads > spec.max_threads_per_block:
            found.append(_diag(
                "GPU001",
                f"{threads} threads per block exceed the "
                f"{spec.max_threads_per_block} limit of {spec.name}",
                "shrink the thread split parts (their product is the "
                "fused threadIdx extent)",
            ))
        smem = gpu_smem_bytes(self.op, config)
        if smem > spec.shared_mem_per_block:
            found.append(_diag(
                "GPU002",
                f"shared-memory tile of {smem} B exceeds the "
                f"{spec.shared_mem_per_block} B per-block budget",
                "shrink the block tile (vthread/thread/inner parts and "
                "reduce-inner chunk) or disable shared-memory caching",
            ))
        registers = gpu_register_estimate(config)
        if registers > spec.max_registers_per_thread:
            found.append(_diag(
                "GPU003",
                f"~{registers} registers per thread exceed the "
                f"{spec.max_registers_per_thread} budget (modeled as "
                f"{registers / spec.max_registers_per_thread:.1f}x spill "
                "slowdown)",
                "shrink the vthread and inner split parts (the register "
                "tile is their product)",
            ))
        if gpu_active_blocks(spec, threads, smem, registers) == 0:
            found.append(_diag(
                "GPU004",
                f"no block fits on an SM: {threads} threads x "
                f"~{min(registers, spec.max_registers_per_thread)} registers "
                f"(+{smem} B smem) exceed every per-SM budget",
                "reduce threads per block or the register/shared tile",
            ))
        return found

    def _cpu_rules(self, config: NodeConfig) -> List[Diagnostic]:
        spec = self.spec
        found: List[Diagnostic] = []
        _grid, _threads, chunks, innermost = loop_extents(self.op, config, "cpu")
        if config.vectorize and innermost is not None:
            length, (kind, *_) = innermost
            lanes = spec.vector_lanes
            if length % lanes:
                padded = -(-length // lanes) * lanes
                found.append(_diag(
                    "CPU001",
                    f"innermost {kind} loop of {length} iterations fills "
                    f"{length}/{padded} SIMD lanes ({spec.name} has "
                    f"{lanes} fp32 lanes)",
                    f"make the innermost split factor a multiple of {lanes}",
                ))
        if chunks < spec.num_cores:
            found.append(_diag(
                "CPU002",
                f"{chunks} parallel chunks starve {spec.num_cores} cores",
                "raise fuse_levels or the outer split factors so the fused "
                "parallel loop exposes at least one chunk per core",
            ))
        return found

    def _fpga_rules(self, config: NodeConfig) -> List[Diagnostic]:
        spec = self.spec
        found: List[Diagnostic] = []
        _grid, _threads, pes, _innermost = loop_extents(self.op, config, "fpga")
        if pes > spec.max_pes:
            found.append(_diag(
                "FPGA001",
                f"{pes} PEs exceed the {spec.max_pes} the DSP budget of "
                f"{spec.name} allows",
                "shrink the PE split parts (their product is the PE array)",
            ))
        bram = fpga_bram_bytes(self.op, config)
        if bram > spec.bram_kb * 1024:
            found.append(_diag(
                "FPGA002",
                f"line buffers of {bram} B exceed the "
                f"{spec.bram_kb * 1024} B BRAM budget",
                "buffer fewer input lines or shrink the PE tile",
            ))
        if config.fpga_partition > spec.max_partitions:
            found.append(_diag(
                "FPGA003",
                f"partition factor {config.fpga_partition} exceeds the "
                f"{spec.max_partitions} banks of {spec.name} (clamped)",
                f"use a partition factor <= {spec.max_partitions}",
            ))
        return found

    def _tensorize_rules(self, config: NodeConfig) -> List[Diagnostic]:
        """TEN001-TEN004: intrinsic tensorization legality.

        The error rules delegate verbatim to
        :func:`repro.analysis.match.tensorize_rejections` — the same
        oracle ``schedule.lower`` raises on — so every TEN error is a
        proof the point cannot lower (the PR 3 soundness contract).
        """
        if not getattr(config, "tensorize", ""):
            return []
        from .match import tensorize_rejections

        found = [
            Diagnostic(rule=rule, severity=RULES[rule][1], message=message,
                       hint=hint)
            for rule, message, hint in
            tensorize_rejections(self.op, config, self.target)
        ]
        if not found and config.vectorize:
            found.append(_diag(
                "TEN004",
                f"vectorize is dead: {config.tensorize} replaces the "
                "innermost loops with one intrinsic call",
                "disable vectorize when tensorizing",
            ))
        return found

    def _dead_knobs(self, config: NodeConfig) -> List[Diagnostic]:
        """GEN002: knob settings with no effect on the lowered schedule.

        Mirrors the measurement-equivalence rules of
        :meth:`repro.space.ScheduleSpace.canonical_point`.
        """
        found: List[Diagnostic] = []
        if (
            self.target == "gpu"
            and config.vectorize
            and config.reorder == REORDER_REDUCE_INNER
            and self.op.reduce_axes
        ):
            found.append(_diag(
                "GEN002",
                "vectorize is dead: the reduce-inner reorder keeps a "
                "reduce loop innermost and only spatial loops vectorize",
                "disable vectorize or pick a reorder with a spatial "
                "innermost loop",
            ))
        if config.unroll_depth > 16:
            found.append(_diag(
                "GEN002",
                f"unroll depth {config.unroll_depth} is modeled identically "
                "to the smallest nonzero depth",
                "use unroll depth 16 (or 0 to disable)",
            ))
        if self.target in ("gpu", "fpga") and config.fuse_levels != 1:
            found.append(_diag(
                "GEN002",
                f"fuse_levels={config.fuse_levels} is a CPU-only knob and "
                f"is ignored by {self.target} lowering",
                "leave fuse_levels at 1 off-CPU",
            ))
        return found


def lint_config(op, config: NodeConfig, target: str, spec,
                ignore: Iterable[str] = ()) -> List[Diagnostic]:
    """One-shot convenience wrapper around :class:`ScheduleLinter`."""
    return ScheduleLinter(op, target, spec, ignore=ignore).lint(config)


def lint_point(space, point, spec, ignore: Iterable[str] = ()) -> List[Diagnostic]:
    """Lint a schedule-space point (decode + lint)."""
    linter = ScheduleLinter(space.op, space.target, spec, ignore=ignore)
    return linter.lint(space.decode(point))
