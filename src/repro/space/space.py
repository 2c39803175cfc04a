"""Schedule-space construction, pruning and rearrangement (§4.2).

``build_space`` turns the static analysis of a computation into a
hardware-specific :class:`ScheduleSpace`.  Pruning per the paper:

1. **Depth limits** — the number of split parts per loop is fixed per
   target (4 on GPU, 3 on CPU, 2 on FPGA), bounding recursive
   split/fuse chains.
2. **Divisible splits only** — split-factor choices are the ordered
   factorizations of each extent.
3. **Pre-determined hardware decisions** — binding, parallelization and
   pipeline structure are fixed per target (encoded in the lowering), so
   the space only contains the knobs worth exploring.

Rearrangement: rather than a flat 1-D list, the space is the product of
per-knob neighborhoods; moving along a direction changes one position of
the configuration vector, so neighboring points share structure and tend
to perform similarly (§4.2's high-dimensional rearrangement).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import MiniGraph, get_graph
from ..ir import ComputeOp
from ..schedule import (
    CPU_REDUCE_PARTS,
    CPU_SPATIAL_PARTS,
    FPGA_SPATIAL_PARTS,
    GPU_REDUCE_PARTS,
    GPU_SPATIAL_PARTS,
    NodeConfig,
    REORDER_CHOICES,
    REORDER_REDUCE_INNER,
    UNROLL_CHOICES,
    check_choice,
)
from .factorization import closest_factorization
from .knobs import ChoiceKnob, Knob, SplitKnob

#: Annotation knob name -> the :class:`NodeConfig` field it sets.
_CONFIG_FIELDS = {
    "reorder": "reorder",
    "fuse": "fuse_levels",
    "unroll": "unroll_depth",
    "vectorize": "vectorize",
    "shared": "use_shared",
    "tensorize": "tensorize",
    "partition": "fpga_partition",
    "pipeline": "fpga_pipeline",
    "buffer": "fpga_buffer_lines",
}


class Point(tuple):
    """A schedule-space point: one choice index per knob.

    ``Point`` subclasses :class:`tuple`, so instances hash and compare
    equal to the plain tuples used throughout the codebase — every API
    that accepts a tuple accepts a ``Point`` and vice versa.  The only
    addition is :meth:`canonical`, which maps the point onto the
    canonical representative of its measurement-equivalence class (see
    :meth:`ScheduleSpace.canonical_point`).
    """

    __slots__ = ()

    def canonical(self, space: "ScheduleSpace") -> "Point":
        """Canonical representative of this point's equivalence class."""
        return space.canonical_point(self)


class ScheduleSpace:
    """The rearranged schedule space of one compute node on one target."""

    def __init__(self, op: ComputeOp, target: str, knobs: Sequence[Knob]):
        self.op = op
        self.target = target
        self.knobs: Tuple[Knob, ...] = tuple(knobs)
        self._knob_by_name = {k.name: k for k in self.knobs}
        # decode(): each knob's choices, the knob positions of the split
        # factors, and the NodeConfig field each annotation knob sets
        # (absent knobs keep the default).
        self._choices = [knob.choices for knob in self.knobs]
        positions = {k.name: ki for ki, k in enumerate(self.knobs)}
        self._split_positions = (
            [positions[f"sp{i}"] for i in range(len(op.axes))],
            [positions[f"re{i}"] for i in range(len(op.reduce_axes))],
        )
        self._field_positions = [
            (field, positions[name]) for name, field in _CONFIG_FIELDS.items() if name in positions
        ]
        # Every choice is checked here, once, so decode() skips the check.
        splits = self._split_positions[0] + self._split_positions[1]
        for field, ki in [("spatial_factors", ki) for ki in splits] + self._field_positions:
            for choice in self._choices[ki]:
                check_choice(field, choice)
        # Global direction table: (knob index, local direction).
        self.directions: List[Tuple[int, int]] = [
            (ki, d)
            for ki, knob in enumerate(self.knobs)
            for d in range(knob.num_directions)
        ]
        self._feature_size = sum(k.feature_size for k in self.knobs)
        self._canonical_rules = self._build_canonical_rules()
        # Hot-path tables (ISSUE #7): every per-point query the explorers
        # issue — neighbor moves, feature encodings, decoded configs — is a
        # pure function of the point, so precompute the per-knob answers
        # once and memoize the per-point ones.  The caches are capped and
        # cleared wholesale so multi-workload sessions stay bounded.
        self._direction_moves: List[List[Optional[int]]] = [
            [knob.neighbor(c, local) for c in range(len(knob))]
            for ki, local in self.directions
            for knob in (self.knobs[ki],)
        ]
        self._knob_features: List[List[Tuple[float, ...]]] = [
            [tuple(knob.features(c)) for c in range(len(knob))]
            for knob in self.knobs
        ]
        self._neighbors_cache: dict = {}
        self._features_cache: dict = {}

    _CACHE_CAP = 8192

    def _build_canonical_rules(self):
        """Precompute the knob positions used by :meth:`canonical_point`.

        Two measurement-equivalences hold for the performance models in
        this repo (verified by ``tests/test_parallel_engine.py``):

        * All nonzero unroll depths are equivalent — every model only
          tests ``config.unroll_depth`` for truthiness, and the lowering
          annotation carries no depth the models read.
        * On GPU, ``vectorize`` is dead when the reorder choice keeps the
          reduction innermost (``REORDER_REDUCE_INNER``) and the op has
          reduce axes: lowering only vectorizes an innermost *spatial*
          loop, so both settings lower (and cost) identically.
        """
        rules = {}
        unroll = self._knob_by_name.get("unroll")
        if unroll is not None:
            nonzero = [i for i, v in enumerate(unroll.choices) if v]
            if nonzero:
                rules["unroll"] = (
                    [k.name for k in self.knobs].index("unroll"),
                    min(nonzero),
                )
        if (
            self.target == "gpu"
            and "vectorize" in self._knob_by_name
            and "reorder" in self._knob_by_name
            and self.op.reduce_axes
        ):
            names = [k.name for k in self.knobs]
            reorder = self._knob_by_name["reorder"]
            dead_reorders = {
                i for i, v in enumerate(reorder.choices) if v == REORDER_REDUCE_INNER
            }
            rules["vectorize"] = (
                names.index("vectorize"),
                names.index("reorder"),
                dead_reorders,
                self._knob_by_name["vectorize"].index_of(False),
            )
        return rules

    def canonical_point(self, point: Point) -> Point:
        """Map ``point`` onto the canonical representative of its
        measurement-equivalence class.

        Equivalent points lower to schedules with identical modeled cost,
        so evaluating one representative suffices; the evaluator uses this
        to avoid re-measuring permuted-but-equivalent configurations.
        Points that are already canonical are returned unchanged (as the
        same tuple value), so canonicalization is idempotent.
        """
        rules = self._canonical_rules
        if not rules:
            return Point(point)
        values = list(point)
        unroll_rule = rules.get("unroll")
        if unroll_rule is not None:
            position, smallest_nonzero = unroll_rule
            if self._choices[position][values[position]]:
                values[position] = smallest_nonzero
        vector_rule = rules.get("vectorize")
        if vector_rule is not None:
            vec_pos, reorder_pos, dead_reorders, off_index = vector_rule
            if values[reorder_pos] in dead_reorders:
                values[vec_pos] = off_index
        return Point(values)

    # -- basic geometry ---------------------------------------------------

    @property
    def size(self) -> int:
        """Number of points (the paper reports 3.9e9 .. 2.4e12 for GPU)."""
        total = 1
        for knob in self.knobs:
            total *= len(knob)
        return total

    @property
    def num_directions(self) -> int:
        return len(self.directions)

    @property
    def feature_size(self) -> int:
        return self._feature_size

    def knob(self, name: str) -> Knob:
        return self._knob_by_name[name]

    def random_point(self, rng: np.random.Generator) -> Point:
        return tuple(int(rng.integers(len(knob))) for knob in self.knobs)

    def neighbor(self, point: Point, direction: int) -> Optional[Point]:
        """The adjacent point along a global direction, or None."""
        ki, _ = self.directions[direction]
        moved = self._direction_moves[direction][point[ki]]
        if moved is None:
            return None
        replaced = list(point)
        replaced[ki] = moved
        return tuple(replaced)

    def neighbors(self, point: Point) -> List[Tuple[int, Point]]:
        """All (direction, neighbor) pairs reachable from ``point``.

        Memoized per point (callers only iterate the result).
        """
        key = tuple(point)
        cached = self._neighbors_cache.get(key)
        if cached is not None:
            return cached
        result = []
        for d, (ki, _) in enumerate(self.directions):
            moved = self._direction_moves[d][point[ki]]
            if moved is None:
                continue
            replaced = list(point)
            replaced[ki] = moved
            result.append((d, tuple(replaced)))
        if len(self._neighbors_cache) >= self._CACHE_CAP:
            self._neighbors_cache.clear()
        self._neighbors_cache[key] = result
        return result

    def features(self, point: Point) -> np.ndarray:
        """Numeric encoding of a point (Q-network / cost-model input).

        Memoized per point (callers stack/read, never write; the cached
        array is marked read-only to keep it that way).
        """
        key = tuple(point)
        cached = self._features_cache.get(key)
        if cached is not None:
            return cached
        values: List[float] = []
        for table, choice in zip(self._knob_features, point):
            values.extend(table[choice])
        encoded = np.asarray(values, dtype=np.float64)
        encoded.flags.writeable = False
        if len(self._features_cache) >= self._CACHE_CAP:
            self._features_cache.clear()
        self._features_cache[key] = encoded
        return encoded

    # -- decoding ----------------------------------------------------------

    def decode(self, point: Point) -> NodeConfig:
        """Turn a space point into a schedule configuration.

        Not memoized: nearly every decoded point is a new one (the
        evaluator caches performance per point), and a config is cheap
        to build because the choices were checked when the space was.
        """
        choices = self._choices
        spatial, reduce_ = self._split_positions
        values = {
            "spatial_factors": tuple([choices[ki][point[ki]] for ki in spatial]),
            "reduce_factors": tuple([choices[ki][point[ki]] for ki in reduce_]),
        }
        for field, ki in self._field_positions:
            values[field] = choices[ki][point[ki]]
        return NodeConfig.unchecked(values)

    def encode(self, config: NodeConfig) -> Point:
        """Inverse of :meth:`decode` (raises if a value is pruned away)."""
        point = []
        for knob in self.knobs:
            if knob.name.startswith("sp"):
                value = config.spatial_factors[int(knob.name[2:])]
            elif knob.name.startswith("re") and knob.name != "reorder":
                value = config.reduce_factors[int(knob.name[2:])]
            else:
                value = getattr(config, _CONFIG_FIELDS[knob.name])
            point.append(knob.index_of(value))
        return tuple(point)

    def __repr__(self):
        return (
            f"ScheduleSpace({self.op.name}, {self.target}, "
            f"{len(self.knobs)} knobs, size={self.size:.3g})"
        )


def build_space(output, target: str, spec=None, tensorize: bool = False) -> ScheduleSpace:
    """Generate the pruned schedule space for the main node of ``output``.

    With a device ``spec``, split-knob choices that are *unconditionally*
    illegal on that device are dropped up front: a choice is pruned only
    when one axis alone busts a hard budget (its thread part exceeding
    ``max_threads_per_block`` on GPU, its PE part exceeding ``max_pes``
    on FPGA), so every pruned point is one the error-severity lint rules
    (``repro.analysis.lint``) would reject regardless of the other knobs.
    Joint violations — several axes legal alone but illegal multiplied
    together — stay in the space and are caught by the per-point linter.

    With ``tensorize=True`` (ISSUE #8, default off so existing
    trajectories are untouched), a ``tensorize`` choice knob is added when
    the static matcher (:func:`repro.analysis.matching_intrinsics`) finds
    intrinsics whose pattern the op instantiates; choice ``""`` keeps the
    untensorized schedules in the space.
    """
    graph = output if isinstance(output, MiniGraph) else get_graph(output)
    op = graph.main_op
    if target == "gpu":
        return _gpu_space(op, spec, tensorize=tensorize)
    if target == "cpu":
        return _cpu_space(op, tensorize=tensorize)
    if target == "fpga":
        return _fpga_space(op, spec)
    raise ValueError(f"unknown target {target!r}")


def _tensorize_knob(op: ComputeOp, target: str) -> Optional[ChoiceKnob]:
    """The tensorize choice knob, or None when no intrinsic matches."""
    from ..analysis import matching_intrinsics

    matched = matching_intrinsics(op, target)
    if not matched:
        return None
    return ChoiceKnob("tensorize", [""] + list(matched))


def _pruned_split(name: str, extent: int, parts: int, keep) -> SplitKnob:
    """A SplitKnob restricted to choices passing ``keep`` (never empty)."""
    knob = SplitKnob(name, extent, parts)
    allowed = [c for c in knob.choices if keep(c)]
    if not allowed or len(allowed) == len(knob.choices):
        return knob
    return SplitKnob(name, extent, parts, allowed=allowed)


def _gpu_space(op: ComputeOp, spec=None, tensorize: bool = False) -> ScheduleSpace:
    knobs: List[Knob] = []
    thread_cap = getattr(spec, "max_threads_per_block", None)
    for i, axis in enumerate(op.axes):
        if thread_cap:
            knobs.append(_pruned_split(
                f"sp{i}", axis.extent, GPU_SPATIAL_PARTS,
                lambda c: c[2] <= thread_cap,
            ))
        else:
            knobs.append(SplitKnob(f"sp{i}", axis.extent, GPU_SPATIAL_PARTS))
    for i, axis in enumerate(op.reduce_axes):
        knobs.append(SplitKnob(f"re{i}", axis.extent, GPU_REDUCE_PARTS))
    knobs.append(ChoiceKnob("reorder", list(REORDER_CHOICES)))
    knobs.append(ChoiceKnob("unroll", list(UNROLL_CHOICES)))
    knobs.append(ChoiceKnob("vectorize", [False, True]))
    knobs.append(ChoiceKnob("shared", [False, True]))
    if tensorize:
        knob = _tensorize_knob(op, "gpu")
        if knob is not None:
            knobs.append(knob)
    return ScheduleSpace(op, "gpu", knobs)


def _cpu_space(op: ComputeOp, tensorize: bool = False) -> ScheduleSpace:
    knobs: List[Knob] = []
    for i, axis in enumerate(op.axes):
        knobs.append(SplitKnob(f"sp{i}", axis.extent, CPU_SPATIAL_PARTS))
    for i, axis in enumerate(op.reduce_axes):
        knobs.append(SplitKnob(f"re{i}", axis.extent, CPU_REDUCE_PARTS))
    knobs.append(ChoiceKnob("reorder", list(REORDER_CHOICES)))
    knobs.append(ChoiceKnob("unroll", list(UNROLL_CHOICES)))
    knobs.append(ChoiceKnob("vectorize", [False, True]))
    knobs.append(ChoiceKnob("fuse", list(range(1, len(op.axes) + 1))))
    if tensorize:
        knob = _tensorize_knob(op, "cpu")
        if knob is not None:
            knobs.append(knob)
    return ScheduleSpace(op, "cpu", knobs)


def _fpga_space(op: ComputeOp, spec=None) -> ScheduleSpace:
    knobs: List[Knob] = []
    pe_cap = getattr(spec, "max_pes", None)
    for i, axis in enumerate(op.axes):
        if pe_cap:
            knobs.append(_pruned_split(
                f"sp{i}", axis.extent, FPGA_SPATIAL_PARTS,
                lambda c: c[1] <= pe_cap,
            ))
        else:
            knobs.append(SplitKnob(f"sp{i}", axis.extent, FPGA_SPATIAL_PARTS))
    for i, axis in enumerate(op.reduce_axes):
        knobs.append(SplitKnob(f"re{i}", axis.extent, 1))
    knobs.append(ChoiceKnob("partition", [1, 2, 4, 8, 16]))
    knobs.append(ChoiceKnob("pipeline", [1, 2, 3]))
    knobs.append(ChoiceKnob("buffer", [1, 2, 4, 8, 16]))
    return ScheduleSpace(op, "fpga", knobs)


def heuristic_seed_points(space: ScheduleSpace, count: int, rng: np.random.Generator) -> List[Point]:
    """Seed points for the exploration: a few rule-of-thumb tilings plus
    random points.  The rules mirror common expert starting schedules:
    a bounded thread/worker budget distributed innermost-first across the
    spatial axes, modest register tiles, small reduce-inner chunks."""
    seeds: List[Point] = []
    for desired in _seed_plans(space):
        point = []
        for knob in space.knobs:
            if isinstance(knob, SplitKnob):
                point.append(knob.index_of(
                    closest_factorization(knob.extent, knob.parts, desired[knob.name])
                ))
            else:
                point.append(_default_choice(knob))
        seeds.append(tuple(point))
    # Variants without shared-memory caching: operators with non-affine
    # access patterns (grouped conv, BCM, shift) often cannot stage tiles,
    # so at least one uncached seed must be valid from the start.
    knob_names = [knob.name for knob in space.knobs]
    if "shared" in knob_names:
        position = knob_names.index("shared")
        off = space.knob("shared").index_of(False)
        interleaved: List[Point] = []
        for seed in seeds:
            variant = list(seed)
            variant[position] = off
            interleaved.append(seed)
            interleaved.append(tuple(variant))
        seeds = interleaved
    unique: List[Point] = []
    for seed in seeds:
        if seed not in unique:
            unique.append(seed)
    seeds = unique
    while len(seeds) < count:
        seeds.append(space.random_point(rng))
    return seeds[:count]


def _div_cap(extent: int, cap: int) -> int:
    """Largest divisor of ``extent`` that is <= cap (at least 1)."""
    from .factorization import divisors

    best = 1
    for d in divisors(extent):
        if d <= cap:
            best = d
    return best


def _seed_plans(space: ScheduleSpace):
    """Desired split shapes per knob for each seed (snapped to valid
    factorizations later).  All picks are divisors of their extent, so the
    snap cannot inflate them past hardware budgets (e.g. an extent of 111
    must tile as 3 x 37, never a rounded 32).  Budgets are global: threads
    multiply across axes, so the budget is spent innermost-axis-first."""
    op = space.op
    extents = [a.extent for a in op.axes]
    plans = []
    if space.target == "gpu":
        # Spatial-first plans (direct-convolution flavour) and
        # channel-first plans (GEMM flavour, axis 1 gets threads first).
        for budget, inner_cap, r_inner, channel_first in (
            (256, 2, 4, False), (64, 4, 8, False), (512, 1, 2, False),
            (256, 1, 8, True), (128, 2, 8, True),
        ):
            plan = {}
            remaining = budget
            threads = [1] * len(extents)
            order = list(range(len(extents) - 1, -1, -1))
            if channel_first and len(extents) > 1:
                order = [1] + [i for i in order if i != 1]
            for i in order:
                cap = 64 if channel_first else 32
                t = _div_cap(extents[i], min(remaining, cap))
                threads[i] = t
                remaining = max(remaining // max(t, 1), 1)
            for i, extent in enumerate(extents):
                inner = _div_cap(extent // threads[i], inner_cap)
                block = max(extent // (threads[i] * inner), 1)
                plan[f"sp{i}"] = (block, 1, threads[i], inner)
            for i, axis in enumerate(op.reduce_axes):
                ri = _div_cap(axis.extent, r_inner)
                plan[f"re{i}"] = (axis.extent // ri, ri)
            plans.append(plan)
    elif space.target == "cpu":
        for inner_cap, middle_cap in ((8, 4), (8, 1), (16, 2)):
            plan = {}
            for i, extent in enumerate(extents):
                if i == len(extents) - 1:
                    inner = _div_cap(extent, inner_cap)
                else:
                    inner = 1
                middle = _div_cap(extent // inner, middle_cap)
                plan[f"sp{i}"] = (extent // (middle * inner), middle, inner)
            for i, axis in enumerate(op.reduce_axes):
                ri = _div_cap(axis.extent, 4)
                plan[f"re{i}"] = (axis.extent // ri, ri)
            plans.append(plan)
    else:  # fpga
        for budget in (64, 256, 16):
            plan = {}
            remaining = budget
            for i in range(len(extents) - 1, -1, -1):
                pe = _div_cap(extents[i], min(remaining, 32))
                remaining = max(remaining // max(pe, 1), 1)
                plan[f"sp{i}"] = (extents[i] // pe, pe)
            for i, axis in enumerate(op.reduce_axes):
                plan[f"re{i}"] = (axis.extent,)
            plans.append(plan)
    return plans


def _default_choice(knob: ChoiceKnob) -> int:
    defaults = {
        "reorder": 0,
        "unroll": 0,
        "vectorize": True,
        "shared": True,
        "tensorize": "",
        "fuse": max(v for v in knob.choices if isinstance(v, int)) if knob.name == "fuse" else None,
        "partition": 4,
        "pipeline": 3,
        "buffer": 2,
    }
    value = defaults.get(knob.name)
    if value is None or value not in list(knob.choices):
        return 0
    return knob.index_of(value)
