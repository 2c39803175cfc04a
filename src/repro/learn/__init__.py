"""Shared learned-model components.

Home of the in-repo machine-learning primitives that more than one
subsystem trains: the numpy gradient-boosted trees used both by the
AutoTVM baseline's cost model (``repro.baselines.autotvm``) and by the
online surrogate screen in front of real measurement
(``repro.explore.surrogate``).
"""

from .gbt import GradientBoostedTrees, RegressionTree

__all__ = [
    "GradientBoostedTrees",
    "RegressionTree",
]
