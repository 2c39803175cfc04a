"""Golden pins on what lowering builds and what the linter reports.

Lowering and linting both derive a config's hardware loops (block,
thread, vthread, PE, parallel-outer, the innermost vectorized loop) from
its split parts.  These digests pin their full output over seeded
points, so a change to how either one derives that mapping must leave
every index map, loop, primitive and diagnostic exactly as it was:

* lowering: ``str(index_map[axis])`` per axis, the loops as ``(name,
  extent, annotation, role)`` and the ``primitives`` trace, over seeded
  points of the 12 Table-3 families on gpu, cpu and fpga;
* linting: ``ScheduleLinter.lint()`` as ``(rule, message, severity,
  hint)`` over seeded points on V100, P100, XeonE5-2699v4 and VU9P, plus
  configs built by hand to be non-divisible (GEN001) or malformed
  (GEN003), on which the hardware rules still run or must stay silent.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis import ScheduleLinter
from repro.model import P100, V100, VU9P, XEON_E5_2699V4, target_of
from repro.ops import gemm_compute, gemm_int8_compute
from repro.ops.workloads import OPERATOR_NAMES, SUITES
from repro.schedule import NodeConfig, lower
from repro.space import build_space

LOWER_POINTS = 8
LINT_POINTS = 24


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def seeded_configs(space, seed, count):
    rng = np.random.default_rng(seed)
    return [space.decode(space.random_point(rng)) for _ in range(count)]


def hand_built_configs(op, target):
    """Configs no space generates: each split part in turn holds the
    whole extent, each with a non-divisible (GEN001) twin, plus
    malformed ones (GEN003)."""
    spatial_parts, reduce_parts = {"gpu": (4, 2), "cpu": (3, 2), "fpga": (2, 1)}[target]

    def whole(extent, parts, at):
        return tuple(extent if part == at else 1 for part in range(parts))

    configs = []
    for reorder in (0, 1, 2):
        for vectorize in (False, True):
            knobs = dict(reorder=reorder, vectorize=vectorize)
            for at in range(spatial_parts):
                spatial = tuple(whole(a.extent, spatial_parts, at) for a in op.axes)
                reduce_ = tuple(
                    whole(a.extent, reduce_parts, at % reduce_parts)
                    for a in op.reduce_axes
                )
                for fuse_levels in sorted({1, len(op.axes)}):
                    configs.append(NodeConfig(
                        spatial, reduce_, fuse_levels=fuse_levels, **knobs))
                doubled = tuple(tuple(2 * f for f in s) for s in spatial)
                configs.append(NodeConfig(doubled, reduce_, **knobs))
            # one part too few, one axis missing, fuse_levels too deep
            configs.append(NodeConfig(
                tuple(s[1:] for s in spatial), reduce_, **knobs))
            configs.append(NodeConfig(spatial[1:], reduce_[1:], **knobs))
            configs.append(NodeConfig(
                spatial, reduce_, fuse_levels=len(op.axes) + 1, **knobs))
    return configs


def lowering_lines(output, target, configs):
    for config in configs:
        try:
            scheduled = lower(output, config, target)
        except ValueError as exc:
            yield f"error {type(exc).__name__}: {exc}"
            continue
        for axis in scheduled.op.all_axes:
            yield f"{axis.name} = {scheduled.index_map[axis]}"
        for loop in scheduled.loops:
            yield repr((loop.var.name, loop.extent, loop.annotation, loop.role))
        yield from scheduled.primitives


#: (family, target) -> digest of ``lowering_lines`` over seeded points
#: (seed = family index) and the hand-built configs.
LOWERING_DIGESTS = {
    ("GMV", "cpu"): "cb07421b74a3db93", ("GMV", "fpga"): "48df9b2708d30fb0", ("GMV", "gpu"): "ece8dc9402e43c9a",
    ("GMM", "cpu"): "66d7a59acc377121", ("GMM", "fpga"): "b5f081076a4ec282", ("GMM", "gpu"): "8ba78f3859fcb066",
    ("BIL", "cpu"): "b5c2b552986f349c", ("BIL", "fpga"): "9f3c0bc27bd96c7e", ("BIL", "gpu"): "41f8043c09a7c6dd",
    ("C1D", "cpu"): "cdcd8ce1e5506273", ("C1D", "fpga"): "39305f1c2ac8bfe1", ("C1D", "gpu"): "3f847bfa93a3b103",
    ("T1D", "cpu"): "0bf1a7e2beb90717", ("T1D", "fpga"): "d1bc44bb95353f67", ("T1D", "gpu"): "850353bc891d8596",
    ("C2D", "cpu"): "d6fdc3fdaf155f30", ("C2D", "fpga"): "590e4422d35a79b5", ("C2D", "gpu"): "ef0947be78217664",
    ("T2D", "cpu"): "a3ccfd52b283d6d5", ("T2D", "fpga"): "3fd0416922c858af", ("T2D", "gpu"): "4a170793f99874df",
    ("C3D", "cpu"): "750cd9406f1a7d8c", ("C3D", "fpga"): "150f600e4a9d7cea", ("C3D", "gpu"): "19fbbfbddee78a20",
    ("T3D", "cpu"): "cf12ad71397e570e", ("T3D", "fpga"): "297b2cf416b02620", ("T3D", "gpu"): "117f78247c0d6a42",
    ("GRP", "cpu"): "81d953db64e45172", ("GRP", "fpga"): "d5e686295882dfc4", ("GRP", "gpu"): "a5f61f96bbac05b2",
    ("DEP", "cpu"): "5432c590caa06562", ("DEP", "fpga"): "a08eab725c9b68e7", ("DEP", "gpu"): "428ca4d47cfc325e",
    ("DIL", "cpu"): "23e3ad81a7a1b416", ("DIL", "fpga"): "9ba735b54550dadc", ("DIL", "gpu"): "b29669f9fe8a9159",
}


@pytest.mark.parametrize("target", ["cpu", "fpga", "gpu"])
@pytest.mark.parametrize("family", OPERATOR_NAMES)
def test_lowering_is_pinned(family, target):
    output = SUITES[family][0].build()
    space = build_space(output, target)
    configs = seeded_configs(space, OPERATOR_NAMES.index(family), LOWER_POINTS)
    configs += hand_built_configs(space.op, target)
    assert digest(lowering_lines(output, target, configs)) == LOWERING_DIGESTS[family, target]


def lint_lines(linter, configs):
    for config in configs:
        yield "config"
        for d in linter.lint(config):
            yield repr((d.rule, d.message, d.severity, d.hint))


LINT_DEVICES = [V100, P100, XEON_E5_2699V4, VU9P]

#: device name -> digest of ``lint_lines`` over the 12 families' seeded
#: points, a tensorized GEMM's and the hand-built configs.
LINT_DIGESTS = {
    "V100": "4588d7593da7dbf6",
    "P100": "e0b59f828986aae2",
    "XeonE5-2699v4": "f0d47a40146428fd",
    "VU9P": "ee2cd72ee0705266",
}


@pytest.mark.parametrize("device", LINT_DEVICES, ids=lambda d: d.name)
def test_lint_output_is_pinned(device):
    target = target_of(device)
    lines = []
    for seed, family in enumerate(OPERATOR_NAMES):
        output = SUITES[family][0].build()
        space = build_space(output, target)
        linter = ScheduleLinter(space.op, target, device)
        lines.extend(lint_lines(linter, seeded_configs(space, seed, LINT_POINTS)))
        lines.extend(lint_lines(linter, hand_built_configs(space.op, target)))
    if target != "fpga":
        output = (gemm_int8_compute if target == "cpu" else gemm_compute)(64, 64, 64)
        space = build_space(output, target, tensorize=True)
        linter = ScheduleLinter(space.op, target, device)
        lines.extend(lint_lines(linter, seeded_configs(space, 99, LINT_POINTS)))
    assert digest(lines) == LINT_DIGESTS[device.name]
