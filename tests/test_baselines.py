"""Tests for vendor-library simulators, GBT, and the AutoTVM baseline."""

import numpy as np
import pytest

from repro.baselines import (
    AutoTVMTuner,
    GradientBoostedTrees,
    RegressionTree,
    autotvm_optimize,
    build_template_space,
    cublas_time,
    cudnn_time,
    fpga_opencl_time,
    gpu_library_time,
    hand_tuned_gpu_time,
    mkldnn_time,
    pytorch_gpu_time,
)
from repro.model import V100, VU9P, XEON_E5_2699V4
from repro.ops import SUITES, Workload, bcm_workloads
from repro.runtime import Evaluator
from repro.space import build_space


class TestVendorLibraries:
    def test_cudnn_valid_and_fast(self):
        result = cudnn_time(SUITES["C2D"][7], V100)
        assert result.valid
        assert 0 < result.seconds < 1.0
        assert result.gflops > 100

    def test_cudnn_picks_winograd_for_3x3_s1(self):
        assert cudnn_time(SUITES["C2D"][7], V100).algorithm == "winograd"

    def test_cudnn_no_winograd_for_strided(self):
        # C14 is 3x3 stride 2
        assert cudnn_time(SUITES["C2D"][13], V100).algorithm != "winograd"

    def test_cudnn_1x1_uses_implicit_gemm(self):
        assert cudnn_time(SUITES["C2D"][2], V100).algorithm == "implicit-gemm"

    def test_transposed_uses_grad_kernels(self):
        assert cudnn_time(SUITES["T2D"][0], V100).algorithm == "implicit-gemm-grad"

    def test_first_layer_kernels_for_shallow_inputs(self):
        # C1: a 3-channel image input gets the dedicated first-layer path
        assert cudnn_time(SUITES["C2D"][0], V100).algorithm == "first-layer"

    def test_winograd_factor_peaks_mid_network(self):
        from repro.baselines.vendor import _winograd_factor

        c4 = _winograd_factor(SUITES["C2D"][3].params)   # 128ch @ 56
        c6 = _winograd_factor(SUITES["C2D"][5].params)   # 256ch @ 56
        c13 = _winograd_factor(SUITES["C2D"][12].params)  # 1024ch @ 14
        c2 = _winograd_factor(SUITES["C2D"][1].params)   # 64ch @ 112
        assert c6 > c4 > c2          # deeper channels amortize transforms
        assert c6 > c13              # tiny spatial extents kill tiling
        assert all(1.0 <= f <= 3.25 for f in (c2, c4, c6, c13))

    def test_transposed_factor_bounded_by_dilation_waste(self):
        from repro.baselines.vendor import _algorithm_factor_gpu

        for opname, dims in (("T1D", 1), ("T2D", 2), ("T3D", 3)):
            wl = SUITES[opname][0]
            factor, _ = _algorithm_factor_gpu(wl)
            stride = wl.params["stride"]
            assert factor <= stride ** dims * 1.3 + 1e-9

    def test_grp_dep_dil_reuse_c2d_kernels(self):
        for suite in ("GRP", "DIL", "DEP"):
            assert cudnn_time(SUITES[suite][0], V100).algorithm == "c2d-kernel-reuse"

    def test_dispatch_matches_paper_setup(self):
        # cuBLAS for linalg, PyTorch-native for DEP, cuDNN otherwise (§6.1/6.2)
        assert gpu_library_time(SUITES["GMM"][0], V100).library == "cuBLAS"
        assert gpu_library_time(SUITES["DEP"][0], V100).library == "PyTorch"
        assert gpu_library_time(SUITES["C2D"][0], V100).library == "cuDNN"

    def test_pytorch_slower_than_cudnn_for_c2d(self):
        wl = SUITES["C2D"][7]
        assert pytorch_gpu_time(wl, V100).seconds > cudnn_time(wl, V100).seconds

    def test_cublas_bil_charges_intermediate(self):
        result = cublas_time(SUITES["BIL"][0], V100)
        assert result.algorithm == "gemm-pair"
        assert result.valid

    def test_mkldnn_penalizes_odd_channels(self):
        aligned = Workload("C2D", "a", dict(
            batch=1, in_channel=64, height=14, width=14, out_channel=64,
            kernel=3, stride=1, padding=1))
        odd = Workload("C2D", "b", dict(
            batch=1, in_channel=63, height=14, width=14, out_channel=64,
            kernel=3, stride=1, padding=1))
        ga = mkldnn_time(aligned, XEON_E5_2699V4).gflops
        go = mkldnn_time(odd, XEON_E5_2699V4).gflops
        assert go < ga

    def test_fpga_opencl_baseline_valid(self):
        result = fpga_opencl_time(SUITES["C2D"][7], VU9P)
        assert result.valid
        assert result.algorithm == "fixed-pe-array"

    def test_hand_tuned_baseline_for_new_operators(self):
        result = hand_tuned_gpu_time(bcm_workloads()[0], V100)
        assert result.valid
        assert result.library == "hand-tuned"


class TestRegressionTree:
    def test_fits_step_function(self):
        x = np.linspace(0, 1, 64).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2).fit(x, y)
        pred = tree.predict(x)
        assert np.mean((pred - y) ** 2) < 0.05

    def test_constant_target(self):
        x = np.random.default_rng(0).random((16, 3))
        y = np.full(16, 2.5)
        tree = RegressionTree().fit(x, y)
        np.testing.assert_allclose(tree.predict(x), 2.5)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))


class TestGradientBoostedTrees:
    def test_learns_nonlinear_function(self):
        rng = np.random.default_rng(0)
        x = rng.random((200, 3))
        y = np.sin(x[:, 0] * 6) + x[:, 1] ** 2
        model = GradientBoostedTrees(num_rounds=40).fit(x, y)
        pred = model.predict(x)
        baseline = np.mean((y - y.mean()) ** 2)
        assert np.mean((pred - y) ** 2) < 0.3 * baseline

    def test_ranking_quality(self):
        # what AutoTVM needs: top predictions should be genuinely good
        rng = np.random.default_rng(1)
        x = rng.random((300, 4))
        y = -((x[:, 0] - 0.7) ** 2) - 0.5 * (x[:, 1] - 0.3) ** 2
        model = GradientBoostedTrees().fit(x[:200], y[:200])
        pred = model.predict(x[200:])
        top = np.argsort(-pred)[:10]
        assert y[200:][top].mean() > y[200:].mean()

    def test_is_fitted_flag(self):
        model = GradientBoostedTrees()
        assert not model.is_fitted
        model.fit(np.zeros((4, 2)), np.arange(4.0))
        assert model.is_fitted


class TestTemplateSpace:
    def test_template_much_smaller_than_flextensor(self):
        # §6.5: FlexTensor's C2D space is ~3 orders of magnitude larger
        out = SUITES["C2D"][7].build()
        full = build_space(out, "gpu")
        template = build_template_space(out, "gpu")
        assert full.size / template.size > 100

    def test_template_configs_lowerable(self):
        from repro.schedule import lower

        out = SUITES["C2D"][7].build()
        template = build_template_space(out, "gpu")
        rng = np.random.default_rng(0)
        for _ in range(5):
            config = template.decode(template.random_point(rng))
            lower(out, config, "gpu")

    def test_template_caps_respected(self):
        out = SUITES["C2D"][7].build()
        template = build_template_space(out, "gpu")
        rng = np.random.default_rng(0)
        for _ in range(20):
            config = template.decode(template.random_point(rng))
            for factors in config.spatial_factors:
                assert factors[1] <= 2   # vthread cap
                assert factors[3] <= 4   # register-tile cap

    def test_cpu_template_supported(self):
        out = SUITES["C2D"][7].build()
        assert build_template_space(out, "cpu").size > 1

    def test_fpga_template_unsupported(self):
        out = SUITES["C2D"][7].build()
        with pytest.raises(ValueError):
            build_template_space(out, "fpga")


class TestAutoTVMTuner:
    def test_end_to_end(self):
        out = SUITES["C2D"][12].build()
        result = autotvm_optimize(out, V100, trials=6, seed=0)
        assert result.found
        assert result.best_performance > 0

    def test_model_training_charged_to_clock(self):
        out = SUITES["C2D"][12].build()
        space = build_template_space(out, "gpu")
        ev = Evaluator(out, V100, space=space)
        tuner = AutoTVMTuner(ev, model_fit_seconds=3.0, seed=0)
        tuner.tune(4)
        measurement_only = sum(
            ev.model.measurement_seconds(min(r.seconds, 1.0)) for r in ev.records
        )
        assert ev.clock > measurement_only  # fits were charged on top

    def test_deterministic(self):
        out = SUITES["C2D"][12].build()
        a = autotvm_optimize(out, V100, trials=5, seed=3)
        b = autotvm_optimize(out, V100, trials=5, seed=3)
        assert a.best_point == b.best_point

    def test_materialized_helpers_slower(self):
        out = SUITES["T1D"][0].build()
        fused = autotvm_optimize(out, V100, trials=5, seed=0, inline_helpers=True)
        naive = autotvm_optimize(out, V100, trials=5, seed=0, inline_helpers=False)
        assert naive.best_performance < fused.best_performance
