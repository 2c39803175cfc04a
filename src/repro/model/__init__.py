"""Simulated heterogeneous hardware: device specs and analytical models."""

from .base import INVALID_TIME, PerformanceModel
from .cpu import CpuModel
from .fpga import FpgaModel
from .gpu import GpuModel
from .resources import FpgaResourceReport, fpga_resource_report, tensorize_rate
from .specs import (
    CpuSpec,
    DEVICES,
    FpgaSpec,
    GpuSpec,
    P100,
    TITAN_X,
    V100,
    VU9P,
    XEON_E5_2699V4,
    target_of,
)


def model_for(spec) -> PerformanceModel:
    """Instantiate the right performance model for a device spec."""
    if isinstance(spec, GpuSpec):
        return GpuModel(spec)
    if isinstance(spec, CpuSpec):
        return CpuModel(spec)
    if isinstance(spec, FpgaSpec):
        return FpgaModel(spec)
    raise TypeError(f"unknown device spec {spec!r}")


__all__ = [
    "CpuModel", "CpuSpec", "DEVICES", "FpgaModel", "FpgaSpec", "GpuModel",
    "FpgaResourceReport", "fpga_resource_report", "GpuSpec", "INVALID_TIME", "P100", "PerformanceModel",
    "TITAN_X", "V100", "VU9P", "XEON_E5_2699V4", "model_for", "target_of",
    "tensorize_rate",
]
