"""Full-network case study (§6.6): YOLO-v1 and OverFeat.

A :class:`Network` is a sequence of convolution layers (with
multiplicities for repeated shapes).  Following the paper, the network is
partitioned into sub-graphs, elementwise epilogues (bias/ReLU) are fused
into their producing operator, and each fused operator is handed to
FlexTensor (or the AutoTVM baseline) for schedule optimization; end-to-end
time is the sum over layers of optimized kernel time plus, for unfused
epilogues, an extra elementwise memory pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..ops.workloads import Workload, overfeat_layers, yolo_v1_layers


@dataclass(frozen=True)
class LayerSpec:
    """One distinct layer: a workload, how many times it repeats in the
    network, and its elementwise epilogue."""

    workload: Workload
    multiplicity: int = 1
    activation: str = "relu"


@dataclass
class Network:
    """An inference network as a list of distinct layers."""

    name: str
    layers: List[LayerSpec]

    @property
    def num_layers(self) -> int:
        """Total layer count including multiplicities."""
        return sum(layer.multiplicity for layer in self.layers)

    def total_flops(self) -> int:
        """FLOPs of one full inference pass."""
        return sum(l.workload.flops() * l.multiplicity for l in self.layers)


def yolo_v1(batch: int = 1) -> Network:
    """YOLO-v1: 24 convolution layers, 15 distinct shapes (Table 4)."""
    layers = [
        LayerSpec(workload, multiplicity)
        for workload, multiplicity in yolo_v1_layers(batch)
    ]
    return Network("YOLO-v1", layers)


def overfeat(batch: int = 1) -> Network:
    """OverFeat (fast): 5 convolution layers."""
    layers = [
        LayerSpec(workload, multiplicity)
        for workload, multiplicity in overfeat_layers(batch)
    ]
    return Network("OverFeat", layers)


@dataclass
class SubGraph:
    """A fusion group: one anchor operator plus fused elementwise tail."""

    anchor: LayerSpec
    fused_elementwise: Tuple[str, ...] = ()


def partition_network(network: Network, fuse: bool = True) -> List[SubGraph]:
    """Partition into sub-graphs and fuse elementwise epilogues (§6.6).

    With ``fuse=False`` every activation stays a separate elementwise
    kernel (charged a full memory round-trip at evaluation time).
    """
    groups = []
    for layer in network.layers:
        if fuse and layer.activation:
            groups.append(SubGraph(layer, (layer.activation,)))
        else:
            groups.append(SubGraph(layer, ()))
    return groups


@dataclass
class LayerResult:
    """Tuned timing of one distinct layer (kernel + epilogue)."""
    layer: LayerSpec
    kernel_seconds: float
    epilogue_seconds: float
    gflops: float

    @property
    def total_seconds(self) -> float:
        """Layer time across all its occurrences in the network."""
        return (self.kernel_seconds + self.epilogue_seconds) * self.layer.multiplicity


@dataclass
class NetworkResult:
    """End-to-end outcome: per-layer results and aggregate time."""
    network: str
    device: str
    method: str
    layers: List[LayerResult] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """End-to-end inference time of the whole network."""
        return sum(l.total_seconds for l in self.layers)

    @property
    def gflops(self) -> float:
        """Aggregate throughput of the optimized network."""
        total_flops = sum(
            l.layer.workload.flops() * l.layer.multiplicity for l in self.layers
        )
        return total_flops / self.total_seconds / 1e9


def _epilogue_seconds(workload: Workload, device_spec, fused: bool) -> float:
    """Cost of the elementwise activation: free when fused into the
    producing kernel, a full read-modify-write pass otherwise."""
    if fused:
        return 0.0
    out = workload.build()
    # Element size follows the output dtype — an int8 workload moves a
    # quarter of the bytes a float32 one does.
    element_bytes = np.dtype(out.dtype).itemsize
    bytes_moved = out.size * element_bytes * 2
    bandwidth = getattr(device_spec, "bandwidth_gbs", None)
    if bandwidth is None:
        bandwidth = getattr(device_spec, "ddr_bandwidth_gbs")
    launch = getattr(device_spec, "kernel_launch_us", 5.0) * 1e-6
    return bytes_moved / (bandwidth * 1e9) + launch


def optimize_network(
    network: Network,
    device_spec,
    trials: int = 25,
    method: str = "q",
    fuse: bool = True,
    seed: int = 0,
    **tuner_kwargs,
) -> NetworkResult:
    """Optimize every distinct layer with an identical, independent
    ``trials`` budget and assemble end-to-end time.

    ``method`` accepts the :func:`repro.optimize.optimize` methods, which
    run the flat baseline of :func:`repro.nn.tuner.tune_network`
    (``allocate=False``; call ``tune_network`` for the gain-driven task
    scheduler), plus ``"autotvm"`` for the template baseline.
    ``tuner_kwargs`` reach ``tune_network`` or, for ``"autotvm"``,
    :func:`repro.baselines.autotvm_optimize`.
    """
    if method != "autotvm":
        from .tuner import tune_network

        return tune_network(
            network, device_spec, trials=trials, method=method, fuse=fuse,
            seed=seed, allocate=False, **tuner_kwargs,
        ).to_network_result()

    from ..baselines import autotvm_optimize

    result = NetworkResult(network.name, device_spec.name, method)
    for group in partition_network(network, fuse=fuse):
        layer = group.anchor
        tuned = autotvm_optimize(
            layer.workload.build(), device_spec, trials=trials, seed=seed,
            **tuner_kwargs,
        )
        epilogue = _epilogue_seconds(
            layer.workload, device_spec, fused=bool(group.fused_elementwise)
        )
        result.layers.append(LayerResult(
            layer, tuned.best_seconds, epilogue, tuned.best_performance,
        ))
    return result
