"""Golden parity suite for the vectorized hot path (ISSUE #7).

Every fast path introduced by the per-point hot-path work must be
*bit-identical* to the scalar code it replaces:

* the array-compiled GBT (``repro.learn.gbt``) against the retained
  scalar implementation in ``tests/gbt_reference.py``;
* ``batch_point_features`` against the retained per-point featurizer
  in ``tests/feature_reference.py``;
* memoized schedule facts against fresh lowering (the facts its loops
  give, and the numerics of interpretation and codegen);
* the four tuners' trajectories with the fast paths on versus off.

Equality discipline: predictions and features are compared with
``np.array_equal`` (exact), fitted states with recursive ``==`` — which
is exact for every float except that it identifies ``-0.0`` with
``0.0``.  That one identification is deliberate: with mixed-sign zero
*ties* in a feature column, ``np.quantile``'s internal partition may
place ``-0.0``/``0.0`` in either order, so a threshold can differ in
zero sign only.  A zero-sign flip never changes a comparison
(``x <= -0.0`` iff ``x <= 0.0``), so splits, masks and predictions stay
bit-identical either way.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import batch_point_features
from repro.codegen.interp import execute_reference, execute_scheduled, random_inputs
from repro.codegen.pycodegen import run_generated
from repro.explore import (
    FlexTensorTuner,
    PMethodTuner,
    RandomSampleTuner,
    RandomWalkTuner,
    SurrogateScreen,
)
from repro.learn import GradientBoostedTrees
from repro.model import V100
from repro.ops import conv2d_compute, gemm_compute
from repro.runtime import Evaluator
from repro.schedule import LoweringMemo, lower, schedule_facts, structural_key
from repro.space import build_space

from .feature_reference import point_features
from .gbt_reference import ReferenceGradientBoostedTrees
from .test_schedule_facts import lowered_facts

GBT_KWARGS = dict(num_rounds=8, max_depth=3, learning_rate=0.3)


def states_equal(a, b):
    """Recursive equality; float compares use ``==`` (see module doc)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(states_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(states_equal(p, q) for p, q in zip(a, b))
    return a == b


def training_matrix(seed, ties, discrete):
    """A small regression problem; optionally with tied / discrete
    columns (the regimes where shortlist-vs-exact split scoring and
    quantile interpolation have to agree on exact ties)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    f = int(rng.integers(1, 40))
    x = rng.normal(size=(n, f))
    if ties:
        x = np.round(x * 2) / 2  # coarse grid: many ties, mixed-sign zeros
    if discrete and f > 2:
        x[:, 0] = rng.integers(0, 3, size=n)
        x[:, 1] = 1.0  # constant column: never splittable
    y = rng.normal(size=n)
    if ties:
        y = np.round(y)
    return x, y, rng.normal(size=(16, f))


class TestGBTParity:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.booleans(), st.booleans())
    def test_fit_and_predict_match_reference(self, seed, ties, discrete):
        x, y, queries = training_matrix(seed, ties, discrete)
        fast = GradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        slow = ReferenceGradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        assert states_equal(fast.get_state(), slow.get_state())
        assert np.array_equal(fast.predict(queries), slow.predict(queries))
        assert np.array_equal(fast.predict(x), slow.predict(x))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.booleans())
    def test_state_roundtrip_is_byte_exact(self, seed, ties):
        x, y, queries = training_matrix(seed, ties, False)
        fast = GradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        clone = GradientBoostedTrees(**GBT_KWARGS)
        clone.set_state(json.loads(json.dumps(fast.get_state())))
        assert json.dumps(clone.get_state(), sort_keys=True) == json.dumps(
            fast.get_state(), sort_keys=True
        )
        # The restored ensemble walks the same compiled forest.
        assert np.array_equal(clone.predict(queries), fast.predict(queries))

    def test_mixed_sign_zero_ties_still_predict_identically(self):
        # Regression: columns holding both -0.0 and 0.0 are the one case
        # where fitted thresholds may differ from the reference in zero
        # sign; predictions must not.
        rng = np.random.default_rng(7)
        x = np.round(rng.normal(size=(60, 6)) * 2) / 2
        x[x == 0] = np.where(rng.random(np.count_nonzero(x == 0)) < 0.5, -0.0, 0.0)
        y = rng.normal(size=60)
        fast = GradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        slow = ReferenceGradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        assert states_equal(fast.get_state(), slow.get_state())
        assert np.array_equal(fast.predict(x), slow.predict(x))

    def test_unfitted_and_tiny_inputs(self):
        fast = GradientBoostedTrees(**GBT_KWARGS)
        slow = ReferenceGradientBoostedTrees(**GBT_KWARGS)
        for x, y in (([[1.0]], [2.0]), ([[1.0], [1.0]], [2.0, 2.0])):
            fast.fit(x, y)
            slow.fit(x, y)
            assert states_equal(fast.get_state(), slow.get_state())
            assert np.array_equal(fast.predict(x), slow.predict(x))


WORKLOADS = {
    "gemm": lambda: gemm_compute(16, 16, 16, name="g"),
    "conv2d": lambda: conv2d_compute(1, 8, 8, 8, 8, 3, padding=1, name="c"),
}


def redundant_columns_matrix(seed):
    """Columns the default fit skips or scores once: constants, exact
    duplicates, and ``log1p`` duplicates (same partitions, different
    thresholds)."""
    rng = np.random.default_rng(seed)
    base = rng.exponential(size=(90, 6))
    x = np.column_stack([
        base, np.full(90, 3.0), base[:, 0], np.zeros(90), np.log1p(base[:, 1]),
        base[:, 2], np.full(90, -1.5), np.log1p(base[:, 3]),
    ])
    y = np.sin(base[:, 0] * 2) + base[:, 1] * base[:, 2] + rng.normal(scale=0.1, size=90)
    return x, y


def coarse_ties_matrix(seed):
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(90, 12)))
    x[:, 5] = 0.0
    return x, np.round(rng.normal(size=90) * 2) / 2


def mirrored_partitions_matrix(seed):
    """A palindromic target over an ordered column: mirrored thresholds
    give mathematically equal SSEs that round apart, so the shortlist
    band holds several distinct partitions of one column."""
    rng = np.random.default_rng(seed)
    half = np.round(rng.normal(size=11), 1)
    return np.arange(22.0)[:, None], np.concatenate([half, half[::-1]])


def surrogate_rows_matrix(workload):
    """What the surrogate fits on: ``batch_point_features`` rows of real
    space points against log1p of their V100 GFLOPS."""
    ev = Evaluator(WORKLOADS[workload](), V100)
    rng = np.random.default_rng(4)
    points = [ev.space.random_point(rng) for _ in range(90)]
    x = batch_point_features(ev.space, points)
    return x, np.log1p([ev.evaluate(p) for p in points])


def retained_arrays(model):
    """Every array reachable from the fitted model's attributes."""
    for obj in [model, *model._trees]:
        for value in vars(obj).values():
            if hasattr(value, "__dataclass_fields__"):
                yield from vars(value).values()
            elif isinstance(value, (tuple, list)):
                yield from value
            else:
                yield value


class TestDefaultShapeGBTParity:
    """The surrogate's real configuration (30 rounds, depth 3) on the
    inputs where the fit skips work: constant columns, duplicate
    partitions, ties, and real feature matrices."""

    CASES = {
        "redundant_columns": lambda: redundant_columns_matrix(1),
        "coarse_ties": lambda: coarse_ties_matrix(2),
        "mirrored_partitions": lambda: mirrored_partitions_matrix(12),
        "gemm_features": lambda: surrogate_rows_matrix("gemm"),
        "conv2d_features": lambda: surrogate_rows_matrix("conv2d"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, case):
        x, y = self.CASES[case]()
        fast = GradientBoostedTrees().fit(x, y)
        slow = ReferenceGradientBoostedTrees().fit(x, y)
        assert len(fast._trees) > 1
        assert states_equal(fast.get_state(), slow.get_state())
        assert np.array_equal(fast.predict(x), slow.predict(x))
        queries = np.random.default_rng(0).permuted(x, axis=0)
        assert np.array_equal(fast.predict(queries), slow.predict(queries))

    def test_no_fit_cache_retained(self):
        # Live-column copies, sorted orders and per-node split stats are
        # per-fit working data: none may outlive ``fit``.
        x, y = surrogate_rows_matrix("conv2d")
        model = GradientBoostedTrees().fit(x, y)
        for value in retained_arrays(model):
            assert not isinstance(value, dict)
            if isinstance(value, np.ndarray):
                assert value.ndim == 1 and len(value) != len(x)


class TestBatchFeatureParity:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("target", ["gpu", "cpu", "fpga"])
    def test_rows_match_point_features(self, workload, target):
        space = build_space(WORKLOADS[workload](), target)
        rng = np.random.default_rng(3)
        points = [space.random_point(rng) for _ in range(12)]
        batch = batch_point_features(space, points)
        assert batch.shape[0] == len(points)
        for row, point in zip(batch, points):
            assert np.array_equal(row, point_features(space, point))


class TestMemoizedLoweringParity:
    """The evaluator's memoized schedule facts against fresh lowering."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("target", ["gpu", "cpu", "fpga"])
    def test_memoized_equals_fresh(self, workload, target):
        out = WORKLOADS[workload]()
        space = build_space(out, target)
        rng = np.random.default_rng(5)
        memo = LoweringMemo()
        for _ in range(10):
            config = space.decode(space.random_point(rng))
            memoized = schedule_facts(out.op, config, target, memo)
            assert memoized == schedule_facts(out.op, config, target)
            assert memoized == lowered_facts(lower(out, config, target))
        assert memo.hits + memo.misses == 10

    @pytest.mark.parametrize("target", ["gpu", "cpu", "fpga"])
    def test_shared_axis_split_across_structures(self, target):
        # Two configs that split axis 0 the same way but differ elsewhere
        # (another axis's split, and reorder off FPGA): two structural
        # misses, each pricing like its own fresh lowering, which still
        # computes the op.
        out = WORKLOADS["conv2d"]()
        space = build_space(out, target)
        first = space.decode(space.random_point(np.random.default_rng(19)))
        knob = space.knob("sp1")
        other = next(f for f in knob.choices if f != first.spatial_factors[1])
        changes = {"spatial_factors": (first.spatial_factors[0], other)
                   + first.spatial_factors[2:]}
        if target != "fpga":
            changes["reorder"] = (first.reorder + 1) % 3
        second = first.with_(**changes)
        assert structural_key(first, target) != structural_key(second, target)

        memo = LoweringMemo()
        facts = [schedule_facts(out.op, config, target, memo) for config in (first, second)]
        assert memo.misses == 2 and memo.hits == 0
        inputs = random_inputs(out, seed=0)
        expected = execute_reference(out, inputs)
        for config, memoized in zip((first, second), facts):
            fresh = lower(out, config, target)
            assert memoized == lowered_facts(fresh)
            np.testing.assert_allclose(execute_scheduled(fresh, inputs), expected)

    def test_interp_and_codegen_numerics_through_memo(self):
        out = WORKLOADS["gemm"]()
        space = build_space(out, "gpu")
        rng = np.random.default_rng(11)
        memo = LoweringMemo()
        inputs = random_inputs(out, seed=0)
        expected = execute_reference(out, inputs)
        for _ in range(3):
            config = space.decode(space.random_point(rng))
            scheduled = lower(out, config, "gpu")
            assert schedule_facts(out.op, config, "gpu", memo) == lowered_facts(scheduled)
            np.testing.assert_allclose(execute_scheduled(scheduled, inputs), expected)
            np.testing.assert_allclose(run_generated(scheduled, inputs), expected)

    def test_index_map_writes_do_not_leak_across_schedules(self):
        # The lazy index map is read-only: a write raises instead of
        # patching a schedule in place.
        out = WORKLOADS["gemm"]()
        space = build_space(out, "gpu")
        rng = np.random.default_rng(13)
        from repro.ir import IntImm

        config = space.decode(space.random_point(rng))
        first = lower(out, config, "gpu")
        second = lower(out, config, "gpu")
        axis = first.op.axes[0]
        before = str(second.index_map[axis])
        with pytest.raises(TypeError):
            first.index_map[axis] = IntImm(0)
        assert str(first.index_map[axis]) == before
        assert str(second.index_map[axis]) == before


TUNERS = {
    "q": FlexTensorTuner,
    "p": PMethodTuner,
    "random-walk": RandomWalkTuner,
    "random-sample": RandomSampleTuner,
}


def run_tuner(tuner_cls, fast):
    ev = Evaluator(WORKLOADS["gemm"](), V100)
    if not fast:
        # Lower every point from scratch, bypassing the lowering memo.
        ev.lower_point = lambda point: lower(
            ev.graph, ev.space.decode(point), ev.target, ev.graph_config
        )
    result = tuner_cls(ev, seed=0).tune(trials=3, num_seeds=3)
    return (
        result.best_performance,
        result.num_measurements,
        tuple(result.best_point) if result.best_point else None,
    )


class TestTunerTrajectoryParity:
    @pytest.mark.parametrize("method", sorted(TUNERS))
    def test_trajectory_unchanged_by_fast_path(self, method):
        assert run_tuner(TUNERS[method], fast=True) == run_tuner(
            TUNERS[method], fast=False
        )

    def test_surrogate_decisions_unchanged_by_batch_features(self):
        ev = Evaluator(WORKLOADS["conv2d"](), V100)
        rng = np.random.default_rng(17)
        points = []
        while len(points) < 28:
            p = ev.space.random_point(rng)
            if p not in points:
                points.append(p)
        arms = []
        for batch_features in (True, False):
            screen = SurrogateScreen(ev.space, min_train=8, seed=0)
            if not batch_features:
                screen.features_matrix = lambda points, screen=screen: np.stack(
                    [screen.features(p) for p in points]
                )
            for p in points[:20]:
                screen.observe(p, ev.evaluate(p))
            decision = screen.screen(points[20:])
            arms.append(
                (decision.forward, decision.screened, decision.scores,
                 json.dumps(screen.model.get_state(), sort_keys=True))
            )
        assert arms[0] == arms[1]
