"""Intrinsic tensorization (ISSUE #8): static matcher verdicts, bit-exact
interp parity of every accepted tensorization, rejection under dtype /
extent / stride perturbation, and the soundness contract that a TEN error
diagnostic is a proof of model rejection (zero false positives)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    INTRINSICS,
    ScheduleLinter,
    intrinsic_feature,
    match_intrinsic,
    matching_intrinsics,
    tensorize_rejections,
)
from repro.codegen import execute_scheduled, random_inputs, run_generated
from repro.codegen.features import batch_point_features
from repro.ir import compute, placeholder, reduce_axis, sum_reduce
from repro.model import (
    INVALID_TIME,
    V100,
    XEON_E5_2699V4,
    model_for,
    target_of,
    tensorize_rate,
)
from repro.ops import gemm_compute, gemm_int8_compute
from repro.schedule import TENSORIZE, LoweringError, NodeConfig, lower
from repro.space import build_space

from .feature_reference import point_features

pytestmark = pytest.mark.tensorize


def _sampled_config(space, seed):
    rng = np.random.default_rng(seed)
    return space.decode(space.random_point(rng))


def _integer_inputs(output, seed):
    return {
        name: np.round(8 * array)
        for name, array in random_inputs(output, seed=seed).items()
    }


class TestStaticMatch:
    def test_registry_verdicts(self):
        i8 = gemm_int8_compute(16, 16, 16, name="sm_i8")
        f32 = gemm_compute(16, 16, 16, name="sm_f32")
        assert matching_intrinsics(i8.op, "cpu") == ("dot4_vnni",)
        assert matching_intrinsics(i8.op, "gpu") == ()
        assert matching_intrinsics(f32.op, "cpu") == ("fma_w8",)
        assert matching_intrinsics(f32.op, "gpu") == ("mma_16x16",)

    def test_mma_needs_divisible_extents(self):
        ragged = gemm_compute(24, 16, 16, name="sm_rag")
        assert match_intrinsic(ragged.op, INTRINSICS["mma_16x16"]) is None

    def test_match_is_memoized_per_op(self):
        out = gemm_int8_compute(16, 16, 16, name="sm_memo")
        first = match_intrinsic(out.op, INTRINSICS["dot4_vnni"])
        assert first is match_intrinsic(out.op, INTRINSICS["dot4_vnni"])
        assert first.reduce_axes == tuple(out.op.reduce_axes)


def _gemm_like(da, db, dout, n, k, m, transpose_a):
    a = placeholder((k, n) if transpose_a else (n, k), dtype=da, name="pa")
    b = placeholder((k, m), dtype=db, name="pb")
    rk = reduce_axis(k, "rk")
    if transpose_a:
        return compute((n, m), lambda i, j: sum_reduce(a[rk, i] * b[rk, j], rk),
                       dtype=dout, name="pc")
    return compute((n, m), lambda i, j: sum_reduce(a[i, rk] * b[rk, j], rk),
                   dtype=dout, name="pc")


class TestPerturbationNeverAccepted:
    """The matcher accepts exactly the intrinsic's contract — any dtype,
    extent or stride perturbation flips the verdict to rejection."""

    @given(
        da=st.sampled_from(["int8", "float32", "int32"]),
        db=st.sampled_from(["int8", "float32", "int32"]),
        dout=st.sampled_from(["int32", "float32"]),
        k=st.integers(min_value=1, max_value=16),
        transpose_a=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_dot4_exactness(self, da, db, dout, k, transpose_a):
        out = _gemm_like(da, db, dout, 8, k, 8, transpose_a)
        accepted = match_intrinsic(out.op, INTRINSICS["dot4_vnni"]) is not None
        # transposing A strips the reduce axis of unit stride in *both*
        # operands (row-major strides become n and m), killing the match.
        legal = (
            da == "int8" and db == "int8" and dout == "int32"
            and k % 4 == 0 and not transpose_a
        )
        assert accepted == legal

    @given(k=st.integers(min_value=1, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_mma_extent_divisibility(self, k):
        out = _gemm_like("float32", "float32", "float32", 16, k, 16, False)
        accepted = match_intrinsic(out.op, INTRINSICS["mma_16x16"]) is not None
        assert accepted == (k % 16 == 0)


I8_OUT = gemm_int8_compute(8, 8, 8, name="par_i8")
I8_SPACE = build_space(I8_OUT, "cpu", tensorize=True)
F32_OUT = gemm_compute(8, 8, 8, name="par_f32")
F32_SPACE = build_space(F32_OUT, "cpu", tensorize=True)


class TestAcceptedMatchParity:
    """Every accepted tensorization executes bit-identically to the same
    schedule without the intrinsic; every rejection raises at lowering."""

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_dot4_parity_or_proof(self, seed):
        config = _sampled_config(I8_SPACE, seed).with_(tensorize="dot4_vnni")
        if tensorize_rejections(I8_OUT.op, config, "cpu"):
            with pytest.raises(LoweringError):
                lower(I8_OUT, config, "cpu")
            return
        tensorized = lower(I8_OUT, config, "cpu")
        assert any(loop.annotation == TENSORIZE for loop in tensorized.loops)
        plain = lower(I8_OUT, config.with_(tensorize=""), "cpu")
        inputs = _integer_inputs(I8_OUT, seed)
        expected = execute_scheduled(plain, inputs)
        assert np.array_equal(execute_scheduled(tensorized, inputs), expected)
        assert np.array_equal(run_generated(tensorized, inputs), expected)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_fma_parity_or_proof(self, seed):
        config = _sampled_config(F32_SPACE, seed).with_(tensorize="fma_w8")
        if tensorize_rejections(F32_OUT.op, config, "cpu"):
            with pytest.raises(LoweringError):
                lower(F32_OUT, config, "cpu")
            return
        tensorized = lower(F32_OUT, config, "cpu")
        plain = lower(F32_OUT, config.with_(tensorize=""), "cpu")
        inputs = random_inputs(F32_OUT, seed=seed)
        assert np.array_equal(
            execute_scheduled(tensorized, inputs), execute_scheduled(plain, inputs)
        )

    def test_dot4_parity(self):
        config = NodeConfig(
            spatial_factors=((1, 2, 4), (1, 2, 4)),
            reduce_factors=((2, 4),),
            reorder=0,
            vectorize=False,
            tensorize="dot4_vnni",
        )
        assert tensorize_rejections(I8_OUT.op, config, "cpu") == []
        tensorized = lower(I8_OUT, config, "cpu")
        assert any(loop.annotation == TENSORIZE for loop in tensorized.loops)
        plain = lower(I8_OUT, config.with_(tensorize=""), "cpu")
        inputs = _integer_inputs(I8_OUT, 0)
        expected = execute_scheduled(plain, inputs)
        assert np.array_equal(execute_scheduled(tensorized, inputs), expected)
        assert np.array_equal(run_generated(tensorized, inputs), expected)

    def test_mma_parity(self):
        out = gemm_compute(16, 16, 16, name="par_mma")
        config = NodeConfig(
            spatial_factors=((1, 1, 1, 16), (1, 1, 1, 16)),
            reduce_factors=((1, 16),),
            reorder=0,
            vectorize=False,
            tensorize="mma_16x16",
        )
        assert tensorize_rejections(out.op, config, "gpu") == []
        tensorized = lower(out, config, "gpu")
        assert any(loop.annotation == TENSORIZE for loop in tensorized.loops)
        plain = lower(out, config.with_(tensorize=""), "gpu")
        inputs = random_inputs(out, seed=11)
        assert np.array_equal(
            execute_scheduled(tensorized, inputs), execute_scheduled(plain, inputs)
        )


SOUNDNESS_CASES = [
    ("int8-gemm-cpu", lambda: gemm_int8_compute(64, 64, 64), XEON_E5_2699V4),
    ("gemm-cpu", lambda: gemm_compute(64, 64, 64), XEON_E5_2699V4),
    ("gemm-gpu", lambda: gemm_compute(64, 64, 64), V100),
]


def model_rejects(output, config, target, model):
    """Ground truth: does the measurement pipeline reject this config?"""
    try:
        scheduled = lower(output, config, target)
    except Exception:
        return True
    return model.estimate_seconds(scheduled) >= INVALID_TIME


class TestTensorizeSoundness:
    """PR 3's contract extended to TEN rules: an error diagnostic in a
    tensorize-enabled space is a proof of model rejection, with zero
    false positives."""

    @pytest.mark.parametrize("name,make,device", SOUNDNESS_CASES,
                             ids=[c[0] for c in SOUNDNESS_CASES])
    def test_lint_equals_model_verdict(self, name, make, device):
        output = make()
        target = target_of(device)
        model = model_for(device)
        space = build_space(output, target, tensorize=True)
        assert any(knob.name == "tensorize" for knob in space.knobs)
        linter = ScheduleLinter(space.op, target, device)
        false_positives = rejected = invalid = ten_flagged = 0
        for seed in range(150):
            config = _sampled_config(space, seed)
            diagnostics = linter.errors(config)
            flagged = bool(diagnostics)
            ten_flagged += any(d.rule.startswith("TEN") for d in diagnostics)
            truth = model_rejects(output, config, target, model)
            rejected += flagged
            invalid += truth
            if flagged and not truth:
                false_positives += 1
            assert truth <= flagged, "unsound: model rejects a lint-clean point"
        assert false_positives == 0
        assert rejected == invalid
        assert ten_flagged > 0, "sampling never exercised the TEN rules"

    def test_ten_error_iff_lowering_raises(self):
        output = gemm_int8_compute(32, 32, 32, name="snd_iff")
        space = build_space(output, "cpu", tensorize=True)
        linter = ScheduleLinter(space.op, "cpu", XEON_E5_2699V4)
        for seed in range(80):
            config = _sampled_config(space, seed)
            ten_errors = [d for d in linter.errors(config)
                          if d.rule.startswith("TEN")]
            try:
                lower(output, config, "cpu")
                raised = False
            except LoweringError:
                raised = True
            assert bool(ten_errors) == raised


class TestBillingAndFeatures:
    def test_tensorize_rate(self):
        untensorized = NodeConfig(spatial_factors=((1, 1, 1),),
                                  reduce_factors=(), tensorize="")
        assert tensorize_rate(untensorized, XEON_E5_2699V4) == 1.0
        dot4 = untensorized.with_(tensorize="dot4_vnni")
        assert tensorize_rate(dot4, XEON_E5_2699V4) == 4.0
        mma = untensorized.with_(tensorize="mma_16x16")
        assert tensorize_rate(mma, V100) == V100.tensor_core_rate
        unknown = untensorized.with_(tensorize="nope")
        assert tensorize_rate(unknown, V100) == 1.0

    def test_legal_tensorize_bills_strictly_cheaper(self):
        output = gemm_int8_compute(256, 256, 256, name="bill_i8")
        model = model_for(XEON_E5_2699V4)
        config = NodeConfig(
            spatial_factors=((8, 8, 4), (8, 8, 4)),
            reduce_factors=((32, 8),),
            reorder=0,
            vectorize=False,
            fuse_levels=2,
        )
        plain = model.estimate_seconds(lower(output, config, "cpu"))
        tensorized = model.estimate_seconds(
            lower(output, config.with_(tensorize="dot4_vnni"), "cpu")
        )
        assert tensorized < plain

    def test_feature_vectors_gate_on_the_knob(self):
        # Spaces without the knob keep their exact pre-ISSUE-8 feature
        # layout; tensorize-enabled spaces grow the intrinsic feature and
        # stay bit-identical between scalar and batch featurizers.
        plain_space = build_space(gemm_int8_compute(16, 16, 16, name="ft_p"), "cpu")
        assert all(knob.name != "tensorize" for knob in plain_space.knobs)
        rng = np.random.default_rng(0)
        points = [tuple(plain_space.random_point(rng)) for _ in range(8)]
        tz_space = build_space(gemm_int8_compute(16, 16, 16, name="ft_t"),
                               "cpu", tensorize=True)
        tz_points = [tuple(tz_space.random_point(rng)) for _ in range(8)]
        for space, pts in ((plain_space, points), (tz_space, tz_points)):
            batch = batch_point_features(space, pts)
            for i, point in enumerate(pts):
                assert np.array_equal(batch[i], point_features(space, point))
        assert intrinsic_feature("") == 0.0
        assert intrinsic_feature("dot4_vnni") > 0.0

    def test_encode_decode_roundtrip_with_tensorize(self):
        space = build_space(gemm_int8_compute(16, 16, 16, name="rt_i8"),
                            "cpu", tensorize=True)
        rng = np.random.default_rng(5)
        for _ in range(10):
            point = space.random_point(rng)
            config = space.decode(point)
            assert space.decode(space.encode(config)) == config


class TestCli:
    def test_lint_target_reports_ten_rules(self, capsys):
        import repro.__main__ as cli

        code = cli.main([
            "lint", "--target", "cpu", "--sample", "80",
            "--n", "64", "--k", "64", "--m", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gemm-int8:" in out
        assert "TEN" in out
