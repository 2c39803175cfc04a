"""Surrogate-guided batch screening (ISSUE #4): GBT state roundtrips,
deterministic screening, bit-identical kill+resume with the surrogate
attached, surrogate-off trajectory preservation, featurization
properties, and the lifetime of per-op access facts."""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.codegen import point_features
from repro.codegen.features import access_coefficients, op_facts, read_tensors, tile_footprint
from repro.explore import FlexTensorTuner, SurrogateScreen, spearman
from repro.learn import GradientBoostedTrees
from repro.model import V100
from repro.ops import conv2d_compute, gemm_compute
from repro.optimize import optimize
from repro.runtime import BatchEngine, Evaluator


def smoke_output():
    return conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")


def smoke_evaluator(**kwargs):
    return Evaluator(smoke_output(), V100, **kwargs)


def distinct_points(ev, count, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        p = ev.space.random_point(rng)
        if p not in points:
            points.append(p)
    return points


def trained_screen(ev, count=20, **kwargs):
    """A SurrogateScreen fitted on ``count`` real measurements."""
    kwargs.setdefault("min_train", 8)
    screen = SurrogateScreen(ev.space, **kwargs)
    for p in distinct_points(ev, count):
        screen.observe(p, ev.evaluate(p))
    return screen


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)

    def test_constant_side_is_zero(self):
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0
        assert spearman([1, 2], [5, 5]) == 0.0

    def test_short_input_is_zero(self):
        assert spearman([1], [2]) == 0.0


class TestGBTState:
    def test_roundtrip_predictions_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 7))
        y = x[:, 0] * 2 + np.sin(x[:, 1]) + rng.normal(scale=0.1, size=60)
        model = GradientBoostedTrees()
        model.fit(x, y)
        state = json.loads(json.dumps(model.get_state()))
        clone = GradientBoostedTrees()
        clone.set_state(state)
        x_test = rng.normal(size=(25, 7))
        assert np.array_equal(model.predict(x_test), clone.predict(x_test))

    def test_unfitted_roundtrip(self):
        model = GradientBoostedTrees()
        clone = GradientBoostedTrees()
        clone.set_state(json.loads(json.dumps(model.get_state())))
        assert not clone.is_fitted


class TestPointFeatures:
    def test_deterministic_fixed_length_finite(self):
        ev = smoke_evaluator()
        points = distinct_points(ev, 5)
        vectors = [point_features(ev.space, p) for p in points]
        assert len({len(v) for v in vectors}) == 1
        for p, v in zip(points, vectors):
            assert np.all(np.isfinite(v))
            assert np.array_equal(v, point_features(ev.space, p))

    def test_distinct_points_can_differ(self):
        ev = smoke_evaluator()
        a, b = distinct_points(ev, 2)
        assert not np.array_equal(
            point_features(ev.space, a), point_features(ev.space, b)
        )


class TestOpFactsLifetime:
    def test_facts_are_derived_once_per_op(self):
        op = gemm_compute(4, 4, 4, name="ghit").op
        facts = op_facts(op)
        tensor = read_tensors(op)[0]
        tile_footprint(op, tensor, {axis: 2 for axis in op.all_axes})
        assert op_facts(op) is facts
        assert access_coefficients(op, tensor) is facts.coefficients[tensor]
        # A structurally identical op gets its own facts.
        assert op_facts(gemm_compute(4, 4, 4, name="ghit").op) is not facts

    def test_facts_are_released_with_the_op(self):
        out = gemm_compute(4, 4, 4, name="gfree")
        op = out.op
        facts = weakref.ref(op_facts(op))
        dead_op = weakref.ref(op)
        del out, op
        gc.collect()
        assert dead_op() is None
        assert facts() is None


class TestScreening:
    def test_not_ready_forwards_everything(self):
        ev = smoke_evaluator()
        screen = SurrogateScreen(ev.space)
        points = distinct_points(ev, 6)
        decision = screen.screen(points)
        assert decision.forward == list(range(6))
        assert not decision.screened
        assert not decision.ranked

    def test_ranked_batch_forwards_top_fraction(self):
        ev = smoke_evaluator()
        screen = trained_screen(ev, epsilon=0.0, screen_ratio=0.25)
        assert screen.ready
        points = distinct_points(ev, 8, seed=99)
        decision = screen.screen(points)
        assert decision.ranked
        assert len(decision.forward) == 2  # ceil(0.25 * 8)
        assert len(decision.screened) == 6
        assert decision.cost_seconds > 0
        # The forwarded positions carry the highest scores.
        floor = min(decision.scores[i] for i in decision.forward)
        assert all(decision.scores[i] <= floor for i, _ in decision.screened)

    def test_single_candidates_screen_against_window(self):
        ev = smoke_evaluator()
        screen = trained_screen(ev, epsilon=0.0, screen_ratio=0.25)
        outcomes = set()
        for p in distinct_points(ev, 40, seed=7):
            decision = screen.screen([p])
            outcomes.add(bool(decision.forward))
        # With a 25% pass quantile both verdicts must occur.
        assert outcomes == {True, False}

    def test_epsilon_one_forwards_everything(self):
        ev = smoke_evaluator()
        screen = trained_screen(ev, epsilon=1.0, screen_ratio=0.25)
        points = distinct_points(ev, 8, seed=3)
        decision = screen.screen(points)
        assert decision.forward == list(range(8))

    def test_observe_dedups_and_refit_cadence_is_deterministic(self):
        ev = smoke_evaluator()
        screen = SurrogateScreen(ev.space, min_train=4, refit_every=4)
        points = distinct_points(ev, 8)
        for p in points:
            screen.observe(p, ev.evaluate(p))
        refits = screen.num_refits
        screen.observe(points[0], 123.0)  # re-measurement: label overwrite
        assert screen.num_observations == 8
        assert screen.num_refits == refits

    def test_held_out_rank_correlation_positive(self):
        ev = smoke_evaluator()
        labelled = [(p, ev.evaluate(p)) for p in distinct_points(ev, 80)]
        train, held_out = labelled[:60], labelled[60:]
        screen = SurrogateScreen(ev.space, min_train=len(train))
        for p, perf in train:
            screen.observe(p, perf)
        assert screen.ready
        predicted = [float(s) for s in screen.predict([p for p, _ in held_out])]
        actual = [perf for _, perf in held_out]
        assert spearman(predicted, actual) > 0


class TestScreenState:
    def test_roundtrip_reproduces_decisions(self):
        ev = smoke_evaluator()
        screen = trained_screen(ev, epsilon=0.3)
        state = json.loads(json.dumps(screen.get_state()))
        clone = SurrogateScreen(ev.space)
        clone.set_state(state)
        # Snapshots written before the training-window option was removed
        # carry ``"train_window": 0`` (full history); they still restore.
        legacy = SurrogateScreen(ev.space)
        legacy.set_state({**state, "train_window": 0})
        for seed in (11, 12, 13):
            batch = distinct_points(ev, 6, seed=seed)
            a = screen.screen(batch)
            b = clone.screen(batch)
            c = legacy.screen(batch)
            assert a.forward == b.forward == c.forward
            assert a.screened == b.screened == c.screened
            assert a.scores == b.scores == c.scores
        assert screen.stats() == clone.stats() == legacy.stats()

    def test_roundtrip_preserves_counters_and_training(self):
        ev = smoke_evaluator()
        screen = trained_screen(ev)
        screen.screen(distinct_points(ev, 6, seed=5))
        state = json.loads(json.dumps(screen.get_state()))
        clone = SurrogateScreen(ev.space)
        clone.set_state(state)
        assert clone.num_observations == screen.num_observations
        assert clone.num_refits == screen.num_refits
        assert clone.stats() == screen.stats()
        more = distinct_points(ev, 4, seed=21)
        for p in more:
            screen.observe(p, ev.evaluate(p))
            clone.observe(p, ev.evaluate(p))
        batch = distinct_points(ev, 6, seed=22)
        assert screen.screen(batch).forward == clone.screen(batch).forward


class TestEnginePipeline:
    def test_screened_points_bill_near_zero(self):
        ev = smoke_evaluator()
        screen = trained_screen(ev, epsilon=0.0, screen_ratio=0.25)
        engine = BatchEngine(ev, workers=1, surrogate=screen)
        clock_before = ev.clock
        measured_before = ev.num_measurements
        points = distinct_points(ev, 8, seed=50)
        results = engine.evaluate_batch(points)
        assert len(results) == len(points)
        assert engine.num_screened == 6
        assert ev.num_measurements - measured_before == 2
        # Screened points cost one inference each, not a measurement:
        # the same batch without a screen bills strictly more clock.
        spent = ev.clock - clock_before
        ev_full = smoke_evaluator()
        BatchEngine(ev_full, workers=1).evaluate_batch(points)
        assert spent < ev_full.clock
        stats = engine.stats()
        assert stats["points_screened"] == 6
        assert stats["surrogate"]["screened"] == 6

    def test_fresh_measurements_feed_training(self):
        ev = smoke_evaluator()
        screen = trained_screen(ev, epsilon=0.0, screen_ratio=0.5)
        engine = BatchEngine(ev, workers=1, surrogate=screen)
        before = screen.num_observations
        engine.evaluate_batch(distinct_points(ev, 8, seed=60))
        assert screen.num_observations > before


class TestTrajectories:
    def test_surrogate_off_matches_engineless_serial_run(self):
        off = optimize(smoke_output(), V100, trials=3, seed=0, workers=1)
        tuner = FlexTensorTuner(smoke_evaluator(), seed=0)
        serial = tuner.tune(3, num_seeds=4)
        assert off.tuning.best_point == serial.best_point
        assert off.tuning.best_performance == serial.best_performance
        assert off.tuning.num_measurements == serial.num_measurements
        assert off.tuning.curve == serial.curve
        assert off.tuning.num_screened == 0
        assert off.tuning.surrogate is None

    def test_surrogate_run_is_seed_deterministic(self):
        a = optimize(smoke_output(), V100, trials=4, seed=0, surrogate=True,
                     screen_ratio=0.25)
        b = optimize(smoke_output(), V100, trials=4, seed=0, surrogate=True,
                     screen_ratio=0.25)
        assert a.tuning.best_point == b.tuning.best_point
        assert a.tuning.best_performance == b.tuning.best_performance
        assert a.tuning.curve == b.tuning.curve
        assert a.tuning.surrogate == b.tuning.surrogate

    def test_screening_cuts_measurements(self):
        off = optimize(smoke_output(), V100, trials=6, seed=0)
        on = optimize(smoke_output(), V100, trials=6, seed=0, surrogate=True,
                      screen_ratio=0.25)
        assert on.tuning.num_screened > 0
        assert on.tuning.num_measurements < off.tuning.num_measurements
        assert on.tuning.surrogate["screened"] == on.tuning.num_screened

    def test_kill_resume_bit_identical_with_surrogate(self, tmp_path):
        def make_tuner():
            ev = smoke_evaluator()
            screen = SurrogateScreen(ev.space, screen_ratio=0.25, seed=7,
                                     min_train=8)
            engine = BatchEngine(ev, workers=1, surrogate=screen)
            return FlexTensorTuner(ev, seed=7, engine=engine)

        path = tmp_path / "run.ckpt"
        full = make_tuner().tune(8, num_seeds=3, checkpoint=path)
        killed_path = tmp_path / "killed.ckpt"
        make_tuner().tune(5, num_seeds=3, checkpoint=killed_path)
        resumed = make_tuner().tune(
            8, num_seeds=3, checkpoint=killed_path, resume=True
        )
        assert resumed.best_point == full.best_point
        assert resumed.best_performance == full.best_performance
        assert resumed.exploration_seconds == full.exploration_seconds
        assert resumed.num_measurements == full.num_measurements
        assert resumed.num_screened == full.num_screened
        assert resumed.curve == full.curve
        assert resumed.surrogate == full.surrogate

    def test_optimize_checkpoint_resume_with_surrogate(self, tmp_path):
        path = tmp_path / "opt.ckpt"
        full = optimize(smoke_output(), V100, trials=6, seed=1, surrogate=True,
                        checkpoint=tmp_path / "full.ckpt")
        optimize(smoke_output(), V100, trials=3, seed=1, surrogate=True,
                 checkpoint=path)
        resumed = optimize(smoke_output(), V100, trials=6, seed=1,
                           surrogate=True, checkpoint=path, resume=True)
        assert resumed.tuning.best_point == full.tuning.best_point
        assert resumed.tuning.best_performance == full.tuning.best_performance
        assert resumed.tuning.num_measurements == full.tuning.num_measurements
        assert resumed.tuning.curve == full.tuning.curve
        assert resumed.tuning.surrogate == full.tuning.surrogate


class TestCLI:
    def test_tune_with_surrogate_prints_counters(self, capsys):
        from repro.__main__ import main

        code = main([
            "gemm", "--n", "16", "--k", "16", "--m", "16",
            "--trials", "4", "--surrogate", "--screen-ratio", "0.25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "screening:" in out
