"""Tests for the measurement harness and the exploration engines."""

import numpy as np
import pytest

from repro.explore import (
    FlexTensorTuner,
    PMethodTuner,
    QAgent,
    RandomSampleTuner,
    RandomWalkTuner,
    normalized_reward,
    select_starting_points,
    selection_probabilities,
)
from repro.model import V100, VU9P, XEON_E5_2699V4
from repro.ops import conv2d_compute, gemm_compute
from repro.runtime import Evaluator
from repro.schedule import GraphConfig
from repro.space import build_space


def small_evaluator(device=V100):
    out = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")
    return Evaluator(out, device)


class TestEvaluator:
    def test_caching_avoids_reclock(self):
        ev = small_evaluator()
        rng = np.random.default_rng(0)
        point = ev.space.random_point(rng)
        ev.evaluate(point)
        clock = ev.clock
        ev.evaluate(point)  # cached
        assert ev.clock == clock
        assert ev.num_measurements == 1

    def test_clock_advances_per_measurement(self):
        ev = small_evaluator()
        rng = np.random.default_rng(0)
        clocks = []
        for _ in range(4):
            ev.evaluate(ev.space.random_point(rng))
            clocks.append(ev.clock)
        assert all(b > a for a, b in zip(clocks, clocks[1:]))

    def test_fpga_measurements_cheap(self):
        # model queries, not synthesis: far cheaper than GPU measurement
        gpu = small_evaluator(V100)
        fpga = small_evaluator(VU9P)
        rng = np.random.default_rng(0)
        gpu.evaluate(gpu.space.random_point(rng))
        fpga.evaluate(fpga.space.random_point(rng))
        assert fpga.clock < gpu.clock / 10

    def test_best_tracks_maximum(self):
        ev = small_evaluator()
        rng = np.random.default_rng(1)
        best = 0.0
        for _ in range(10):
            best = max(best, ev.evaluate(ev.space.random_point(rng)))
        point, performance = ev.best()
        assert performance == best
        assert ev.cache[point] == best

    def test_convergence_curve_monotone(self):
        ev = small_evaluator()
        rng = np.random.default_rng(2)
        for _ in range(10):
            ev.evaluate(ev.space.random_point(rng))
        curve = ev.convergence_curve()
        perfs = [p for _, p in curve]
        assert perfs == sorted(perfs)

    def test_time_to_reach(self):
        ev = small_evaluator()
        rng = np.random.default_rng(3)
        for _ in range(10):
            ev.evaluate(ev.space.random_point(rng))
        _, best = ev.best()
        assert ev.time_to_reach(best) is not None
        assert ev.time_to_reach(best * 100) is None

    def test_materialization_overhead_charged(self):
        out = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")
        inline = Evaluator(out, V100)
        materialize = Evaluator(
            out, V100, graph_config=GraphConfig(inline={"c_pad": False})
        )
        rng = np.random.default_rng(0)
        point = inline.space.random_point(rng)
        perf_inline = inline.evaluate(point)
        perf_mat = materialize.evaluate(point)
        if perf_inline > 0:
            assert perf_mat < perf_inline


class TestSelectionHeuristic:
    def test_probability_shape(self):
        probs = selection_probabilities([1.0, 2.0, 4.0], gamma=2.0)
        assert probs.argmax() == 2

    def test_all_zero_performances_uniform(self):
        probs = selection_probabilities([0.0, 0.0], gamma=2.0)
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_select_starting_points_draws_from_h(self):
        evaluated = {(0,): 1.0, (1,): 10.0, (2,): 5.0}
        rng = np.random.default_rng(0)
        picks = select_starting_points(evaluated, 50, gamma=2.0, rng=rng)
        assert all(p in evaluated for p in picks)
        # the best point should be picked most often
        counts = {p: picks.count(p) for p in evaluated}
        assert counts[(1,)] >= counts[(0,)]

    def test_empty_h_rejected(self):
        with pytest.raises(ValueError):
            select_starting_points({}, 1, 2.0, np.random.default_rng(0))


class TestNormalizedReward:
    def test_improvement_positive(self):
        assert normalized_reward(10.0, 15.0) == pytest.approx(0.5)

    def test_regression_negative(self):
        assert normalized_reward(10.0, 5.0) == pytest.approx(-0.5)

    def test_zero_base_guarded(self):
        assert normalized_reward(0.0, 5.0) == 1.0
        assert normalized_reward(0.0, 0.0) == 0.0


class TestQAgent:
    def test_choose_direction_avoids_visited(self):
        out = gemm_compute(8, 8, 8)
        space = build_space(out, "gpu")
        agent = QAgent(space, seed=0)
        rng = np.random.default_rng(0)
        point = space.random_point(rng)
        visited = {nb for _, nb in space.neighbors(point)}
        assert agent.choose_direction(point, visited, rng) is None
        some = next(iter(visited))
        visited.discard(some)
        choice = agent.choose_direction(point, visited, rng)
        assert choice is not None and choice[1] == some

    def test_training_runs_every_period(self):
        out = gemm_compute(8, 8, 8)
        space = build_space(out, "gpu")
        agent = QAgent(space, train_period=2, seed=0)
        rng = np.random.default_rng(0)
        p = space.random_point(rng)
        d, e = space.neighbors(p)[0]
        agent.record(p, d, e, 0.5)
        agent.end_trial()
        assert not agent.losses
        agent.end_trial()
        assert len(agent.losses) == 1

    def test_epsilon_anneals(self):
        out = gemm_compute(8, 8, 8)
        space = build_space(out, "gpu")
        agent = QAgent(space, epsilon=0.5, seed=0)
        # 0.5 x 0.96^57 < 0.05: the rate reaches its floor and stays there.
        for _ in range(60):
            agent.end_trial()
        assert agent.epsilon == pytest.approx(0.05)

    def test_fixed_settings_are_not_options(self):
        # §5.1's settings are module constants; the old keywords are errors.
        from repro.baselines.autotvm import AutoTVMTuner
        from repro.explore.network import MLP, AdaDelta

        ev = small_evaluator()
        calls = [
            lambda: QAgent(ev.space, alpha=0.5),
            lambda: QAgent(ev.space, epsilon_decay=0.5),
            lambda: QAgent(ev.space, epsilon_min=0.1),
            lambda: QAgent(ev.space, hidden=8),
            lambda: QAgent(ev.space).train(batch_size=8),
            lambda: MLP(4, 3, hidden=8),
            lambda: AdaDelta([(2,)], rho=0.9),
            lambda: AdaDelta([(2,)], eps=1e-3),
            lambda: FlexTensorTuner(ev, degrade_threshold=0.9),
            lambda: RandomWalkTuner(ev, degrade_threshold=0.9),
            lambda: AutoTVMTuner(ev, batch_size=4),
            lambda: AutoTVMTuner(ev, pool_size=64),
            lambda: AutoTVMTuner(ev, warmup_batches=1),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()


class TestTuners:
    @pytest.mark.parametrize("tuner_cls", [
        FlexTensorTuner, PMethodTuner, RandomWalkTuner, RandomSampleTuner,
    ])
    def test_tuner_finds_valid_schedule(self, tuner_cls):
        ev = small_evaluator()
        result = tuner_cls(ev, seed=0).tune(5, num_seeds=3)
        assert result.found
        assert result.best_performance > 0
        assert result.num_measurements >= 3
        assert result.exploration_seconds > 0

    def test_tuning_improves_over_seeds(self):
        ev = small_evaluator()
        tuner = FlexTensorTuner(ev, seed=0)
        tuner._seed(4)
        seeded_best = max(tuner.evaluated.values())
        result = tuner.tune(25, num_seeds=0)
        assert result.best_performance >= seeded_best

    def test_deterministic_given_seed(self):
        r1 = FlexTensorTuner(small_evaluator(), seed=13).tune(8, num_seeds=3)
        r2 = FlexTensorTuner(small_evaluator(), seed=13).tune(8, num_seeds=3)
        assert r1.best_point == r2.best_point
        assert r1.best_performance == r2.best_performance

    def test_pmethod_measures_more_per_trial(self):
        q = FlexTensorTuner(small_evaluator(), seed=0).tune(5, num_seeds=3)
        p = PMethodTuner(small_evaluator(), seed=0).tune(5, num_seeds=3)
        assert p.num_measurements > q.num_measurements

    def test_curve_matches_measurements(self):
        result = FlexTensorTuner(small_evaluator(), seed=0).tune(5, num_seeds=3)
        assert len(result.curve) == result.num_measurements
