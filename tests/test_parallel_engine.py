"""Batched parallel evaluation engine and point canonicalization
(ISSUE #2): canonical-equivalence soundness, workers=1 bit-identity with
the serial path, simulated-clock overlap, dedup, quarantine interaction,
resume, and exact pins of seeded (and fault-injected) trajectories."""

import hashlib
import json

import numpy as np
import pytest

from repro.analysis import ScheduleLinter
from repro.explore import (
    FlexTensorTuner,
    PMethodTuner,
    RandomSampleTuner,
    RandomWalkTuner,
    SurrogateScreen,
)
from repro.model import DEVICES, V100, XEON_E5_2699V4
from repro.ops import conv2d_compute, gemm_compute
from repro.optimize import optimize
from repro.runtime import (
    BatchEngine,
    EvalCache,
    Evaluator,
    FaultInjector,
    MeasureConfig,
)
from repro.schedule import REORDER_REDUCE_INNER, REORDER_SPATIAL_INNER
from repro.space import Point, build_space, heuristic_seed_points

ALL_TUNERS = [FlexTensorTuner, PMethodTuner, RandomWalkTuner, RandomSampleTuner]


def gemm_evaluator(device=V100, **kwargs):
    return Evaluator(gemm_compute(8, 8, 8, name="g"), device, **kwargs)


def smoke_evaluator(**kwargs):
    out = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")
    return Evaluator(out, V100, **kwargs)


def distinct_points(ev, count, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        p = ev.space.random_point(rng)
        if p not in points:
            points.append(p)
    return points


def knob_index(space, name):
    return [k.name for k in space.knobs].index(name)


class TestCanonicalPoint:
    def test_point_helper_delegates_to_space(self):
        ev = gemm_evaluator()
        point = Point(distinct_points(ev, 1)[0])
        assert point.canonical(ev.space) == ev.space.canonical_point(point)

    def test_point_is_a_tuple(self):
        p = Point((1, 2, 3))
        assert p == (1, 2, 3)
        assert hash(p) == hash((1, 2, 3))
        assert isinstance(p, tuple)

    def test_nonzero_unroll_depths_collapse(self):
        space = gemm_evaluator().space
        ui = knob_index(space, "unroll")
        base = list(heuristic_seed_points(space, 1, np.random.default_rng(0))[0])
        variants = set()
        for choice in range(1, len(space.knob("unroll").choices)):
            base[ui] = choice
            variants.add(space.canonical_point(tuple(base)))
        assert len(variants) == 1
        base[ui] = 0  # unroll off is its own class
        assert space.canonical_point(tuple(base)) not in variants

    def test_unroll_equivalence_is_sound_under_the_model(self):
        # The rule exists because every model reads unroll_depth only for
        # truthiness; this guard fails if a model ever starts reading the
        # depth itself.
        for device in (V100, XEON_E5_2699V4):
            ev = gemm_evaluator(device=device)
            ui = knob_index(ev.space, "unroll")
            point = list(heuristic_seed_points(ev.space, 1, np.random.default_rng(0))[0])
            estimates = set()
            for choice in range(1, len(ev.space.knob("unroll").choices)):
                point[ui] = choice
                estimates.add(ev.model.estimate_seconds(ev.lower_point(tuple(point))))
            assert len(estimates) == 1

    def test_gpu_vectorize_dead_when_reduce_innermost(self):
        space = gemm_evaluator().space
        vi = knob_index(space, "vectorize")
        ri = knob_index(space, "reorder")
        point = list(heuristic_seed_points(space, 1, np.random.default_rng(0))[0])
        point[ri] = space.knob("reorder").index_of(REORDER_REDUCE_INNER)
        on, off = list(point), list(point)
        on[vi] = space.knob("vectorize").index_of(True)
        off[vi] = space.knob("vectorize").index_of(False)
        assert space.canonical_point(tuple(on)) == space.canonical_point(tuple(off))
        # ... and sound: both lower to identically-costed schedules.
        ev = gemm_evaluator()
        assert ev.model.estimate_seconds(ev.lower_point(tuple(on))) == \
            ev.model.estimate_seconds(ev.lower_point(tuple(off)))

    def test_gpu_vectorize_live_when_spatial_innermost(self):
        space = gemm_evaluator().space
        vi = knob_index(space, "vectorize")
        ri = knob_index(space, "reorder")
        point = list(heuristic_seed_points(space, 1, np.random.default_rng(0))[0])
        point[ri] = space.knob("reorder").index_of(REORDER_SPATIAL_INNER)
        on, off = list(point), list(point)
        on[vi] = space.knob("vectorize").index_of(True)
        off[vi] = space.knob("vectorize").index_of(False)
        assert space.canonical_point(tuple(on)) != space.canonical_point(tuple(off))

    def test_canonicalization_is_idempotent(self):
        space = smoke_evaluator().space
        rng = np.random.default_rng(3)
        for _ in range(50):
            canon = space.canonical_point(space.random_point(rng))
            assert space.canonical_point(canon) == canon

    def test_fpga_space_is_identity(self):
        ev = Evaluator(gemm_compute(8, 8, 8, name="g"), DEVICES["VU9P"])
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = ev.space.random_point(rng)
            assert ev.space.canonical_point(p) == p

    def test_engine_serves_equivalent_point_without_remeasuring(self):
        ev = gemm_evaluator()
        engine = BatchEngine(ev, workers=2)
        space = ev.space
        ui = knob_index(space, "unroll")
        a = list(heuristic_seed_points(space, 1, np.random.default_rng(0))[0])
        a[ui] = 1
        b = list(a)
        b[ui] = 2  # different unroll depth, same equivalence class
        engine.evaluate_batch([tuple(a)])
        before = ev.num_measurements
        (perf,) = engine.evaluate_batch([tuple(b)])
        assert ev.num_measurements == before  # served from the canon index
        assert perf == ev.cache[tuple(a)]
        assert ev.num_canon_hits == 1


@pytest.mark.faults
class TestWorkersOneBitIdentity:
    """workers=1 must be byte-for-byte the serial path, faults included."""

    def faulty_evaluator(self):
        return Evaluator(
            gemm_compute(4, 4, 4, name="g"), V100,
            fault_injector=FaultInjector(
                transient_error_rate=0.3, hang_rate=0.05, seed=1
            ),
            measure_config=MeasureConfig(timeout_seconds=0.5),
        )

    @pytest.mark.parametrize("tuner_cls", ALL_TUNERS)
    def test_tune_results_identical(self, tuner_cls):
        plain = tuner_cls(self.faulty_evaluator(), seed=0).tune(4, num_seeds=3)
        ev = self.faulty_evaluator()
        engine = BatchEngine(ev, workers=1)
        engined = tuner_cls(ev, seed=0, engine=engine).tune(4, num_seeds=3)
        assert engined.best_point == plain.best_point
        assert engined.best_performance == plain.best_performance
        assert engined.curve == plain.curve
        assert engined.status_counts == plain.status_counts
        assert engined.exploration_seconds == plain.exploration_seconds
        assert engined.throughput is not None

    def test_workers1_resume_bit_identical(self, tmp_path):
        def run(checkpoint=None, resume=False, trials=8):
            ev = self.faulty_evaluator()
            tuner = FlexTensorTuner(ev, seed=7, engine=BatchEngine(ev, workers=1))
            return tuner.tune(
                trials, num_seeds=3, checkpoint=checkpoint, resume=resume
            )

        full = run()
        path = tmp_path / "run.ckpt"
        run(checkpoint=path, trials=6)           # killed after 6 trials
        resumed = run(checkpoint=path, resume=True)
        assert resumed.best_point == full.best_point
        assert resumed.curve == full.curve
        assert resumed.status_counts == full.status_counts
        assert resumed.exploration_seconds == full.exploration_seconds


class TestBatchEngine:
    def test_parallel_matches_serial_values(self):
        points = distinct_points(gemm_evaluator(), 8)
        ev_s = gemm_evaluator()
        serial = BatchEngine(ev_s, workers=1).evaluate_batch(points)
        ev_p = gemm_evaluator()
        parallel = BatchEngine(ev_p, workers=4).evaluate_batch(points)
        assert serial == parallel
        assert ev_s.num_measurements == ev_p.num_measurements

    def test_simulated_clock_overlaps(self):
        points = distinct_points(gemm_evaluator(), 8)
        ev_s = gemm_evaluator()
        BatchEngine(ev_s, workers=1).evaluate_batch(points)
        ev_p = gemm_evaluator()
        BatchEngine(ev_p, workers=4).evaluate_batch(points)
        # 8 equal-cost jobs on 4 virtual workers: half the span of 2-deep
        # chains vs. an 8-deep serial chain.
        assert ev_p.clock < ev_s.clock / 2
        assert ev_p.clock > 0

    @pytest.mark.faults
    def test_billing_is_greedy_list_scheduling(self):
        # In submission order, each job's cost goes to the least-loaded
        # of W virtual workers; the batch bills its makespan and every
        # record is stamped with its own completion time.  Transient
        # faults make retried jobs cost more than clean ones.
        def make():
            return gemm_evaluator(
                fault_injector=FaultInjector(transient_error_rate=0.5, seed=9)
            )

        probe = make()
        points = []
        for p in distinct_points(probe, 20, seed=3):
            if all(probe.canonical_key(p) != probe.canonical_key(q) for q in points):
                points.append(p)
        points = points[:7]
        costs = [probe.outcome_cost(probe.outcome(p, 0)) for p in points]
        assert len(set(costs)) > 1
        loads = [0.0] * 3
        completions = {}
        for point, cost in zip(points, costs):
            worker = loads.index(min(loads))
            loads[worker] += cost
            completions[point] = loads[worker]
        ev = make()
        BatchEngine(ev, workers=3).evaluate_batch(points)
        assert ev.clock == max(loads)
        assert {r.point: r.clock for r in ev.records} == completions

    @pytest.mark.faults
    def test_parallel_is_deterministic(self):
        points = distinct_points(gemm_evaluator(), 10, seed=5)

        def run():
            ev = gemm_evaluator(
                fault_injector=FaultInjector(transient_error_rate=0.3, seed=2)
            )
            engine = BatchEngine(ev, workers=4)
            values = engine.evaluate_batch(points)
            return values, ev.clock, [r.to_dict() for r in ev.records]

        assert run() == run()

    def test_records_have_monotone_clocks(self):
        ev = gemm_evaluator()
        BatchEngine(ev, workers=4).evaluate_batch(
            distinct_points(ev, 9)
        )
        clocks = [r.clock for r in ev.records]
        assert clocks == sorted(clocks)
        assert ev.clock >= clocks[-1]

    def test_duplicate_points_measured_once(self):
        ev = gemm_evaluator()
        engine = BatchEngine(ev, workers=4)
        point = distinct_points(ev, 1)[0]
        values = engine.evaluate_batch([point, point, point])
        assert ev.num_measurements == 1
        assert len(set(values)) == 1
        assert engine.num_deduped == 2

    @pytest.mark.faults
    def test_quarantined_point_served_free_in_batch(self):
        ev = gemm_evaluator(
            fault_injector=FaultInjector(transient_error_rate=1.0),
            measure_config=MeasureConfig(max_retries=0, quarantine_threshold=1),
        )
        point = distinct_points(ev, 1)[0]
        ev.evaluate(point)                    # fails once -> quarantined
        assert point in ev.quarantine
        engine = BatchEngine(ev, workers=4)
        clock = ev.clock
        values = engine.evaluate_batch([point])
        assert values == [0.0]
        assert ev.clock == clock              # no charge, no measurement
        assert ev.num_quarantine_hits == 1

    @pytest.mark.faults
    def test_retry_billing_matches_serial_accounting(self):
        # One all-transient point: the parallel path must charge exactly
        # the serial retry arithmetic (compile cost + exponential backoff
        # per retry, charge-capped final attempt).
        def make():
            return gemm_evaluator(
                fault_injector=FaultInjector(transient_error_rate=1.0),
                measure_config=MeasureConfig(
                    max_retries=2, backoff_seconds=0.1, quarantine_threshold=99
                ),
            )

        point = distinct_points(make(), 1)[0]
        ev_serial = make()
        ev_serial.measure(point)
        ev_parallel = make()
        BatchEngine(ev_parallel, workers=4).evaluate_batch([point])
        assert ev_parallel.clock == pytest.approx(ev_serial.clock)
        assert ev_parallel.records[-1].attempts == ev_serial.records[-1].attempts

    @pytest.mark.parametrize("tuner_cls", ALL_TUNERS)
    def test_parallel_tuners_complete_and_find(self, tuner_cls):
        ev = smoke_evaluator()
        engine = BatchEngine(ev, workers=4)
        result = tuner_cls(ev, seed=0, engine=engine).tune(6, num_seeds=3)
        assert result.found
        assert result.num_measurements == sum(result.status_counts.values())
        assert len(result.curve) == result.num_measurements
        assert result.throughput["workers"] == 4
        assert result.throughput["points_submitted"] > 0

    @pytest.mark.faults
    def test_parallel_resume_is_cache_consistent(self, tmp_path):
        def run(checkpoint=None, resume=False, trials=6):
            ev = smoke_evaluator(
                fault_injector=FaultInjector(transient_error_rate=0.2, seed=3)
            )
            engine = BatchEngine(ev, workers=4)
            tuner = FlexTensorTuner(ev, seed=1, engine=engine)
            return tuner.tune(
                trials, num_seeds=3, checkpoint=checkpoint, resume=resume
            )

        full = run()
        path = tmp_path / "par.ckpt"
        run(checkpoint=path, trials=3)
        resumed = run(checkpoint=path, resume=True)
        # Parallel resume restores the exact mid-run state, so the
        # completed run is identical to the uninterrupted one — in
        # particular no measurement is billed twice.
        assert resumed.curve == full.curve
        assert resumed.status_counts == full.status_counts
        assert resumed.exploration_seconds == full.exploration_seconds


class TestBatchedTrajectoryPins:
    """Seeded ``optimize(workers=4)`` tunes of the conv2d smoke shape,
    pinned to the values recorded before the tuners' batched-shape check
    and the engine's billing branch were simplified.  The curve is pinned
    by the SHA-256 of its JSON form (every float in full repr)."""

    @pytest.mark.parametrize(
        "method,best_point,best_performance,measurements,seconds,curve_digest",
        [
            ("q", (0, 32, 12, 12, 1, 1, 0, 1, 0, 1, 0), 23.533777809401855,
             131, 33.00210190002415, "f17e11359e07bbe6"),
            ("p", (0, 34, 12, 3, 0, 0, 0, 0, 0, 1, 1), 24.11842811396101,
             489, 125.00678004845904, "caae262ecb1880b2"),
            ("random-walk", (0, 3, 12, 3, 1, 0, 0, 0, 1, 1, 1), 18.268427211942583,
             35, 9.000598853677726, "f58b0d342cb9bb2e"),
            ("random-sample", (0, 17, 3, 3, 1, 0, 0, 0, 0, 1, 1), 17.860619444447877,
             36, 9.099956028576491, "23445d0ab350476a"),
        ],
    )
    def test_workers4_trajectory_is_pinned(
        self, method, best_point, best_performance, measurements, seconds,
        curve_digest,
    ):
        out = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")
        tuning = optimize(
            out, V100, trials=8, method=method, workers=4, seed=0
        ).tuning
        assert tuning.best_point == best_point
        assert tuning.best_performance == best_performance
        assert tuning.num_measurements == measurements
        assert tuning.exploration_seconds == seconds
        assert len(tuning.curve) == measurements
        assert tuning.curve[-1][0] == seconds
        curve = json.dumps([list(entry) for entry in tuning.curve])
        assert hashlib.sha256(curve.encode()).hexdigest()[:16] == curve_digest



@pytest.mark.faults
class TestFaultedTrajectoryPins:
    """Seeded fault-injected ``optimize`` tunes of the conv2d smoke shape
    at ``workers=1`` (serial retries) and ``workers=4`` (greedy list
    scheduling of retried outcomes).  Compile errors, hangs, transient
    retries and jitter all occur, so the exact ``exploration_seconds``
    and curve pin the retry billing's float arithmetic, not just its
    approximate total."""

    @pytest.mark.parametrize(
        "workers,method,best_point,measurements,seconds,status_counts,curve_digest",
        [
            (1, "q", (0, 27, 12, 17, 1, 1, 1, 2, 0, 1, 1), 125, 230.8079728670145,
             {"compile_error": 10, "flaky_retried": 26, "ok": 76,
              "run_timeout": 11, "runtime_error": 2}, "707b49d542eb2481"),
            (1, "p", (0, 27, 3, 3, 1, 1, 0, 0, 0, 1, 1), 549, 1028.0376561731373,
             {"compile_error": 37, "flaky_retried": 136, "ok": 323,
              "run_timeout": 34, "runtime_error": 19}, "9569a1c14a3ca0f4"),
            (1, "random-walk", (0, 29, 3, 3, 1, 0, 0, 0, 0, 1, 1), 37, 78.00234897320061,
             {"compile_error": 6, "flaky_retried": 7, "ok": 19,
              "run_timeout": 3, "runtime_error": 2}, "308eb7f7cae24e4a"),
            (1, "random-sample", (0, 25, 3, 3, 0, 0, 0, 0, 0, 1, 1), 36, 74.07351290791279,
             {"compile_error": 4, "flaky_retried": 10, "ok": 18,
              "run_timeout": 3, "runtime_error": 1}, "12e185ea29787e13"),
            (4, "q", (0, 27, 3, 3, 0, 1, 0, 0, 1, 1, 1), 122, 102.50293591963087,
             {"compile_error": 11, "flaky_retried": 32, "ok": 70,
              "run_timeout": 7, "runtime_error": 2}, "3a6a89552d34c628"),
            (4, "p", (0, 32, 3, 3, 0, 0, 0, 0, 0, 1, 0), 496, 239.40805243917038,
             {"compile_error": 34, "flaky_retried": 127, "ok": 295,
              "run_timeout": 25, "runtime_error": 15}, "c6724ce3f1788cd4"),
            (4, "random-walk", (0, 29, 3, 3, 1, 0, 0, 0, 0, 1, 1), 37, 35.70048534571819,
             {"compile_error": 6, "flaky_retried": 7, "ok": 19,
              "run_timeout": 3, "runtime_error": 2}, "90806283457e130e"),
            (4, "random-sample", (0, 25, 3, 3, 0, 0, 0, 0, 0, 1, 1), 36, 28.303308696016536,
             {"compile_error": 4, "flaky_retried": 10, "ok": 18,
              "run_timeout": 3, "runtime_error": 1}, "433f611f577d3a89"),
        ],
    )
    def test_faulted_trajectory_is_pinned(
        self, workers, method, best_point, measurements, seconds, status_counts,
        curve_digest,
    ):
        out = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")
        tuning = optimize(
            out, V100, trials=8, method=method, workers=workers, seed=0,
            fault_injector=FaultInjector(
                compile_error_rate=0.05, hang_rate=0.05,
                transient_error_rate=0.3, jitter=0.05, seed=0,
            ),
            measure_config=MeasureConfig(timeout_seconds=0.5),
        ).tuning
        assert tuning.best_point == best_point
        assert tuning.num_measurements == measurements
        assert tuning.exploration_seconds == seconds
        assert tuning.status_counts == status_counts
        assert tuning.curve[-1][0] == seconds
        curve = json.dumps([list(entry) for entry in tuning.curve])
        assert hashlib.sha256(curve.encode()).hexdigest()[:16] == curve_digest


def accounting(stats):
    """``engine.stats()`` without its wall-clock fields, as (per-point
    counters, exact simulated seconds, exact utilization, SHA-256 of the
    whole remaining payload).  Of the eval cache's own counters only
    hits, misses, stores and entries are kept."""
    stats = {k: v for k, v in stats.items()
             if k not in ("wall_seconds", "points_per_wall_second")}
    if "eval_cache" in stats:
        stats["eval_cache"] = {k: stats["eval_cache"][k]
                               for k in ("hits", "misses", "stores", "entries")}
    counts = tuple(stats[k] for k in (
        "batches", "points_submitted", "points_measured", "points_cached",
        "points_deduped", "points_lint_rejected", "points_screened",
    ))
    # Every submitted point is counted exactly once.
    assert sum(counts[2:]) == counts[1]
    payload = json.dumps(stats, sort_keys=True)
    return (counts, stats["simulated_seconds"], stats["utilization"],
            hashlib.sha256(payload.encode()).hexdigest()[:16])


def mixed_batches(ev):
    """Two batches that reach every engine counter: fresh points (some
    statically illegal), exact repeats, unroll variants of earlier points
    (canonical duplicates), then a batch re-submitting half the first."""
    ui = knob_index(ev.space, "unroll")
    fresh = distinct_points(ev, 20, seed=5)
    variants = []
    for point in fresh[3:6]:
        for depth in (1, 2):
            variant = list(point)
            variant[ui] = depth
            variants.append(tuple(variant))
    return [fresh + fresh[:3] + variants,
            fresh[::2] + distinct_points(ev, 24, seed=6)[20:]]


class TestEngineAccountingPins:
    """``engine.stats()`` pinned exactly, wall time aside, on every engine
    path: serial and ``workers=4`` Q, P and random-walk tunes, surrogate
    screening, static linting, fault injection with transient retries, a
    cold then a warm persistent cache, and mixed batches with repeats,
    canonical duplicates and lint rejects.  Recorded before the
    engine's counters moved into ``evaluate_batch``."""

    @staticmethod
    def tune(workers, method="q", gemm=False, faults=False, **kwargs):
        out = (gemm_compute(256, 256, 256, name="g") if gemm
               else conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c"))
        if faults:
            kwargs.update(
                fault_injector=FaultInjector(
                    compile_error_rate=0.05, hang_rate=0.05,
                    transient_error_rate=0.3, jitter=0.05, seed=0,
                ),
                measure_config=MeasureConfig(timeout_seconds=0.5),
            )
        return optimize(out, V100, trials=8, method=method, workers=workers,
                        seed=0, **kwargs).tuning.throughput

    @pytest.mark.parametrize("workers,options,expected", [
        (1, {"method": "q"},
         ((129, 132, 132, 0, 0, 0, 0), 132.00755351211458, 1.0, "97c4d7934f8d071f")),
        (4, {"method": "q"},
         ((33, 132, 131, 1, 0, 0, 0), 33.00210190002415, 0.9924145326734664,
          "8d7cd9402578af67")),
        (1, {"method": "p"},
         ((9, 533, 533, 0, 0, 0, 0), 533.0289629194746, 1.0, "22b4d43e8d333055")),
        (4, {"method": "p"},
         ((9, 533, 489, 44, 0, 0, 0), 125.00678004845904, 0.9780003972302134,
          "980419cfa4e9d961")),
        (1, {"method": "random-walk"},
         ((9, 36, 36, 0, 0, 0, 0), 36.00198000859756, 1.0, "22160e627de8f6a8")),
        (4, {"method": "random-walk"},
         ((9, 36, 35, 1, 0, 0, 0), 9.000598853677726, 0.9722111433256311,
          "9258f250444c5654")),
        (1, {"surrogate": True},
         ((129, 132, 71, 0, 0, 0, 61), 71.01578165983518, 1.0, "7b3fa39046d5e3e6")),
        (4, {"surrogate": True},
         ((33, 132, 55, 0, 0, 0, 77), 33.013780081407745, 0.41660553049982574,
          "17980a9cd12a2f05")),
        (1, {"gemm": True, "lint": True},
         ((129, 132, 130, 0, 0, 2, 0), 130.0246853979301, 1.0, "d79bbd4cf6687b74")),
        (4, {"gemm": True, "lint": True},
         ((33, 132, 120, 11, 0, 1, 0), 32.00927246090718, 0.9374257652199623,
          "d0c23dbab9d8f8e0")),
        (4, {"gemm": True, "lint": True, "method": "random-sample"},
         ((9, 36, 33, 0, 0, 3, 0), 12.384164717446513, 0.7367972614185636,
          "312f3ea507f98d97")),
        (1, {"faults": True},
         ((122, 125, 125, 0, 0, 0, 0), 230.8079728670145, 1.0, "b68a55fc40175c45")),
        (4, {"faults": True},
         ((32, 125, 122, 3, 0, 0, 0), 102.50293591963087, 0.5509885709247937,
          "7d4d59f2b819ff3a")),
    ])
    def test_tune_accounting_is_pinned(self, workers, options, expected):
        assert accounting(self.tune(workers, **options)) == expected

    @pytest.mark.parametrize("workers,cold,warm", [
        (1,
         ((129, 132, 132, 0, 0, 0, 0), 132.00755351211458, 1.0, "9b153344aa9d45c3"),
         ((129, 132, 0, 132, 0, 0, 0), 0.0, 0.0, "41038927ece3632b")),
        (4,
         ((33, 132, 131, 1, 0, 0, 0), 33.00210190002415, 0.9924145326734664,
          "548e19c166932ebc"),
         ((33, 132, 0, 132, 0, 0, 0), 0.0, 0.0, "7d09e6c04c6ee508")),
    ])
    def test_cache_accounting_is_pinned(self, tmp_path, workers, cold, warm):
        assert accounting(self.tune(workers, eval_cache=EvalCache(tmp_path))) == cold
        assert accounting(self.tune(workers, eval_cache=EvalCache(tmp_path))) == warm

    @pytest.mark.parametrize("workers,screened,expected", [
        (1, False, ((2, 43, 27, 14, 0, 2, 0), 44.560132365342376, 1.0, "6e37d915c157fc6b")),
        (1, True, ((2, 43, 25, 14, 0, 2, 2), 36.82268093145373, 1.0, "f28b1bbe4a5bc434")),
        (4, False, ((2, 43, 24, 11, 6, 2, 0), 15.010029626721037, 0.6668712699275516,
                    "73d69cca92640d18")),
        (4, True, ((2, 43, 22, 11, 6, 2, 2), 10.012362870931378, 0.8065423481398727,
                   "f58c485ef7b30573")),
    ])
    def test_mixed_batch_accounting_is_pinned(self, workers, screened, expected):
        out = gemm_compute(256, 256, 256, name="g")
        ev = Evaluator(out, V100, linter=ScheduleLinter(out.op, "gpu", V100))
        screen = SurrogateScreen(ev.space, screen_ratio=0.5, seed=0) if screened else None
        engine = BatchEngine(ev, workers=workers, surrogate=screen)
        for batch in mixed_batches(ev):
            engine.evaluate_batch(batch)
        assert accounting(engine.stats()) == expected
