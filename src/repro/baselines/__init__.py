"""Baselines: simulated vendor libraries and the AutoTVM comparison."""

from ..learn import GradientBoostedTrees, RegressionTree
from .autotvm import AutoTVMTuner, autotvm_optimize, build_template_space
from .vendor import (
    LibraryResult,
    cublas_time,
    cudnn_time,
    fpga_opencl_time,
    gpu_library_time,
    hand_tuned_gpu_time,
    mkldnn_time,
    pytorch_gpu_time,
)

__all__ = [
    "AutoTVMTuner", "GradientBoostedTrees", "LibraryResult", "RegressionTree",
    "autotvm_optimize", "build_template_space", "cublas_time", "cudnn_time",
    "fpga_opencl_time", "gpu_library_time", "hand_tuned_gpu_time",
    "mkldnn_time", "pytorch_gpu_time",
]
