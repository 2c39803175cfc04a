"""Static schedule linter (ISSUE #3): rule soundness against the device
models, zero-cost rejection in the evaluator and batch engine, space
pruning, tuner counters, and the CLI surface."""

import numpy as np
import pytest

import repro.__main__ as cli
from repro.analysis import RULES, Diagnostic, ScheduleLinter, lint_config, lint_point
from repro.model import DEVICES, INVALID_TIME, V100, VU9P, XEON_E5_2699V4, model_for, target_of
from repro.ops import conv2d_compute, gemm_compute, gemv_compute
from repro.optimize import optimize
from repro.runtime import BatchEngine, Evaluator, MeasureStatus
from repro.schedule import lower
from repro.space import build_space

SOUNDNESS_CASES = [
    ("gemm-gpu", lambda: gemm_compute(256, 256, 256), V100),
    ("conv2d-gpu", lambda: conv2d_compute(1, 32, 16, 16, 64, 3, padding=1), V100),
    ("gemm-cpu", lambda: gemm_compute(256, 256, 256), XEON_E5_2699V4),
    ("gemm-fpga", lambda: gemm_compute(256, 256, 256), VU9P),
]


def sample_configs(space, count, seed=0):
    rng = np.random.default_rng(seed)
    return [space.decode(space.random_point(rng)) for _ in range(count)]


def model_rejects(output, config, target, model):
    """Ground truth: does the measurement pipeline reject this config?"""
    try:
        scheduled = lower(output, config, target)
    except Exception:
        return True
    return model.estimate_seconds(scheduled) >= INVALID_TIME


class TestRuleRegistry:
    def test_rules_have_stable_shape(self):
        for rule, (name, severity, _description) in RULES.items():
            assert rule[:3] in ("GEN", "GPU", "CPU", "FPG", "TEN")
            assert severity in ("error", "warn")
            assert name  # short kebab name present

    def test_diagnostic_roundtrip(self):
        d = Diagnostic("GPU001", "error", "too many threads", "shrink the split")
        payload = d.to_dict()
        assert payload["rule"] == "GPU001"
        assert payload["name"] == "threads-per-block"
        assert payload["severity"] == "error"

    def test_error_rules_cannot_be_suppressed(self):
        out = gemm_compute(64, 64, 64)
        with pytest.raises(ValueError):
            ScheduleLinter(out.op, "gpu", V100, ignore=("GPU001",))

    def test_warn_rules_can_be_suppressed(self):
        out = gemm_compute(256, 256, 256)
        space = build_space(out, "gpu")
        loud = ScheduleLinter(out.op, "gpu", V100)
        quiet = ScheduleLinter(out.op, "gpu", V100, ignore=("GPU003", "GEN002"))
        for config in sample_configs(space, 40):
            silenced = {d.rule for d in loud.lint(config)} - {
                d.rule for d in quiet.lint(config)
            }
            assert silenced <= {"GPU003", "GEN002"}
            assert loud.errors(config) == quiet.errors(config)


class TestSoundness:
    """The contract: an error-severity diagnostic is a *proof* of model
    rejection, and every model rejection is flagged (no false 'legal')."""

    @pytest.mark.parametrize("name,make,device", SOUNDNESS_CASES,
                             ids=[c[0] for c in SOUNDNESS_CASES])
    def test_lint_equals_model_verdict(self, name, make, device):
        output = make()
        target = target_of(device)
        model = model_for(device)
        space = build_space(output, target)
        linter = ScheduleLinter(space.op, target, device)
        false_positives = rejected = invalid = 0
        for config in sample_configs(space, 150, seed=7):
            flagged = bool(linter.errors(config))
            truth = model_rejects(output, config, target, model)
            rejected += flagged
            invalid += truth
            if flagged and not truth:
                false_positives += 1
            # soundness: the model never rejects a lint-clean point
            assert truth <= flagged, f"unsound: model rejects a lint-clean point"
        # false-positive rate: a lint error is never a wasted rejection
        assert false_positives == 0
        assert rejected == invalid

    def test_gpu_spaces_contain_illegal_points(self):
        # the acceptance workloads must exercise the error rules at all
        for name, make, device in SOUNDNESS_CASES[:2]:
            output = make()
            space = build_space(output, target_of(device))
            linter = ScheduleLinter(space.op, target_of(device), device)
            assert any(
                linter.errors(c) for c in sample_configs(space, 150, seed=7)
            ), f"no illegal points sampled in {name}"

    def test_lint_point_and_lint_config_agree(self):
        out = gemm_compute(256, 256, 256)
        space = build_space(out, "gpu")
        rng = np.random.default_rng(3)
        for _ in range(20):
            point = space.random_point(rng)
            via_point = lint_point(space, point, V100)
            via_config = lint_config(space.op, space.decode(point), "gpu", V100)
            assert via_point == via_config


class TestEvaluatorRejection:
    """Illegal points are billed at zero cost and never change results."""

    def build(self, lint):
        out = gemm_compute(256, 256, 256, name="g")
        linter = ScheduleLinter(out.op, "gpu", V100) if lint else None
        return Evaluator(out, V100, linter=linter)

    def points(self, ev, count=120, seed=11):
        rng = np.random.default_rng(seed)
        return [ev.space.random_point(rng) for _ in range(count)]

    def test_identical_results_fewer_measurements(self):
        plain, linted = self.build(lint=False), self.build(lint=True)
        points = self.points(plain)
        baseline = [plain.evaluate(p) for p in points]
        screened = [linted.evaluate(p) for p in points]
        assert screened == baseline
        assert max(screened) == max(baseline)
        assert linted.num_lint_rejects > 0
        assert linted.num_measurements < plain.num_measurements
        assert (
            plain.num_measurements - linted.num_measurements
            == linted.num_lint_rejects
        )
        assert linted.clock < plain.clock  # zero cost: clock never advanced
        assert sum(linted.lint_rule_counts.values()) >= linted.num_lint_rejects

    def test_illegal_status_recorded(self):
        linted = self.build(lint=True)
        for p in self.points(linted):
            linted.evaluate(p)
        illegal = [r for r in linted.records if r.status == MeasureStatus.ILLEGAL]
        assert len(illegal) == linted.num_lint_rejects
        assert all(r.performance == 0.0 for r in illegal)
        assert all(r.attempts == 0 for r in illegal)
        assert MeasureStatus.ILLEGAL.permanent and not MeasureStatus.ILLEGAL.ok

    def test_state_roundtrip_preserves_counters(self):
        linted = self.build(lint=True)
        for p in self.points(linted, count=60):
            linted.evaluate(p)
        clone = self.build(lint=True)
        clone.set_state(linted.get_state())
        assert clone.num_lint_rejects == linted.num_lint_rejects
        assert clone.lint_rule_counts == linted.lint_rule_counts

    def test_batch_engine_parallel_path_rejects_before_pool(self):
        linted = self.build(lint=True)
        points = self.points(linted)
        engine = BatchEngine(linted, workers=4)
        results = engine.evaluate_batch(points)
        plain = self.build(lint=False)
        baseline = BatchEngine(plain, workers=4).evaluate_batch(points)
        assert results == baseline
        assert linted.num_lint_rejects > 0
        assert linted.num_measurements < plain.num_measurements
        stats = engine.stats()
        assert stats["points_lint_rejected"] == linted.num_lint_rejects
        assert stats["lint_rules"] == linted.lint_rule_counts
        assert stats["lint_rules"]


class TestSpacePruning:
    def test_pruned_space_is_smaller_on_large_extents(self):
        out = gemv_compute(4096, 4096)
        full = build_space(out, "gpu")
        pruned = build_space(out, "gpu", spec=V100)
        assert pruned.size < full.size

    def test_pruning_is_sound(self):
        # every pruned point was unconditionally illegal: the surviving
        # space contains every lint-clean point's best value
        out = gemv_compute(4096, 4096)
        pruned = build_space(out, "gpu", spec=V100)
        rng = np.random.default_rng(5)
        for _ in range(50):
            config = pruned.decode(pruned.random_point(rng))
            for factors in config.spatial_factors:
                assert factors[2] <= V100.max_threads_per_block

    def test_pruning_noop_without_spec(self):
        out = gemm_compute(64, 64, 64)
        assert build_space(out, "gpu").size == build_space(out, "gpu", spec=None).size


class TestOptimizeIntegration:
    def test_lint_matches_baseline_and_counts_rejects(self):
        out = gemm_compute(256, 256, 256)
        base = optimize(out, DEVICES["V100"], trials=10, seed=0)
        screened = optimize(out, DEVICES["V100"], trials=10, seed=0,
                            lint=True, prune_space=True)
        assert screened.gflops == pytest.approx(base.gflops)
        assert screened.tuning.lint_rejects > 0
        assert screened.tuning.lint_rules
        assert "lint:" in screened.summary()
        # illegal rejections are not failures
        assert screened.tuning.num_failures <= base.tuning.num_failures

    def test_lint_off_by_default_keeps_trajectory(self):
        out = gemm_compute(64, 64, 64)
        a = optimize(out, DEVICES["V100"], trials=5, seed=3)
        b = optimize(out, DEVICES["V100"], trials=5, seed=3)
        assert a.gflops == b.gflops
        assert a.tuning.lint_rejects == 0


class TestCli:
    def test_lint_command_reports_illegal_points(self, capsys):
        assert cli.main(["lint", "--device", "V100", "--sample", "120"]) == 0
        out = capsys.readouterr().out
        assert "gemm:" in out and "conv2d:" in out
        illegal = [
            int(part.split("=")[1])
            for line in out.splitlines()
            for part in line.split()
            if part.startswith("illegal=")
        ]
        assert len(illegal) == 2 and all(n > 0 for n in illegal)
