"""Persistent evaluation cache: hit/miss
accounting, on-disk round-trip, corruption tolerance, cross-run warm
starts, and key isolation between workloads/devices/fault setups."""

import multiprocessing
import time
import warnings

import numpy as np
import pytest

import repro.explore.tuner as tuner_module
from repro.explore import FlexTensorTuner
from repro.model import DEVICES, V100
from repro.ops import conv2d_compute, gemm_compute
from repro.runtime import (
    BatchEngine,
    EvalCache,
    Evaluator,
    FaultInjector,
    MeasureConfig,
)

from .kills import MeasureKilled, patch_measure_kill


def gemm_evaluator(**kwargs):
    return Evaluator(gemm_compute(8, 8, 8, name="g"), V100, **kwargs)


def distinct_points(ev, count, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        p = ev.space.random_point(rng)
        if p not in points:
            points.append(p)
    return points


class TestAccounting:
    def test_hit_miss_counters(self, tmp_path):
        cache = EvalCache(tmp_path)
        assert cache.get("sig", (1, 2)) is None
        cache.put("sig", (1, 2), 5.0, "ok")
        assert cache.get("sig", (1, 2)) == (5.0, "ok")
        assert cache.get("sig", (9, 9)) is None
        assert (cache.hits, cache.misses, cache.stores) == (1, 2, 1)
        assert cache.hit_rate == pytest.approx(1 / 3)
        assert cache.stats()["entries"] == 1


class TestDiskRoundTrip:
    def test_entries_survive_process_restart(self, tmp_path):
        first = EvalCache(tmp_path)
        first.put("sig", (3, 1, 4), 2.5, "ok")
        first.put("sig", (2, 7), 0.0, "compile_error")
        second = EvalCache(tmp_path)
        assert second.get("sig", (3, 1, 4)) == (2.5, "ok")
        assert second.get("sig", (2, 7)) == (0.0, "compile_error")
        assert len(second) == 2

    def test_warm_run_serves_measured_points_for_free(self, tmp_path):
        points = distinct_points(gemm_evaluator(), 10)
        cold = gemm_evaluator(eval_cache=EvalCache(tmp_path))
        cold_values = [cold.evaluate(p) for p in points]
        assert cold.num_measurements == len(points)
        warm = gemm_evaluator(eval_cache=EvalCache(tmp_path))
        clock = warm.clock
        warm_values = [warm.evaluate(p) for p in points]
        assert warm_values == cold_values
        assert warm.num_measurements == 0      # everything from disk
        assert warm.clock == clock             # disk hits are free
        assert warm.num_disk_hits == len(points)

    def test_warm_tune_hit_rate_at_least_half(self, tmp_path):
        def run():
            ev = gemm_evaluator(eval_cache=EvalCache(tmp_path))
            engine = BatchEngine(ev, workers=1)
            result = FlexTensorTuner(ev, seed=0, engine=engine).tune(5, num_seeds=3)
            return result
        run()
        warm = run()
        # Same seed, same trajectory: the warm run re-requests the same
        # points and the persistent cache serves them.
        assert warm.throughput["cache_hit_rate"] >= 0.5
        assert warm.num_measurements == 0

    def test_permanent_failures_cached_across_runs(self, tmp_path):
        def make():
            return gemm_evaluator(
                eval_cache=EvalCache(tmp_path),
                fault_injector=FaultInjector(compile_error_rate=1.0),
            )
        point = distinct_points(gemm_evaluator(), 1)[0]
        cold = make()
        assert cold.evaluate(point) == 0.0
        assert cold.num_measurements == 1
        warm = make()
        assert warm.evaluate(point) == 0.0
        assert warm.num_measurements == 0     # failure came from disk

    def test_transient_failures_not_cached(self, tmp_path):
        ev = gemm_evaluator(
            eval_cache=EvalCache(tmp_path),
            fault_injector=FaultInjector(transient_error_rate=1.0),
            measure_config=MeasureConfig(max_retries=0, quarantine_threshold=99),
        )
        point = distinct_points(gemm_evaluator(), 1)[0]
        ev.evaluate(point)
        assert len(EvalCache(tmp_path)) == 0


class TestKeyIsolation:
    def test_different_shapes_do_not_collide(self, tmp_path):
        a = Evaluator(gemm_compute(8, 8, 8, name="g"), V100,
                      eval_cache=EvalCache(tmp_path))
        b = Evaluator(gemm_compute(16, 16, 16, name="g"), V100,
                      eval_cache=EvalCache(tmp_path))
        assert a.op_signature() != b.op_signature()

    def test_different_devices_do_not_collide(self, tmp_path):
        a = gemm_evaluator(eval_cache=EvalCache(tmp_path))
        b = Evaluator(gemm_compute(8, 8, 8, name="g"), DEVICES["TitanX"],
                      eval_cache=EvalCache(tmp_path))
        assert a.op_signature() != b.op_signature()

    def test_fault_configuration_is_part_of_the_key(self):
        plain = gemm_evaluator()
        faulty = gemm_evaluator(fault_injector=FaultInjector(jitter=0.2, seed=4))
        assert plain.op_signature() != faulty.op_signature()

    def test_cache_key_is_canonical(self, tmp_path):
        # An equivalent point written under its canonical key is served
        # to every member of the class on the next run.
        ev = gemm_evaluator(eval_cache=EvalCache(tmp_path))
        names = [k.name for k in ev.space.knobs]
        ui = names.index("unroll")
        point = list(distinct_points(ev, 1)[0])
        point[ui] = 1
        ev.evaluate(tuple(point))
        sibling = list(point)
        sibling[ui] = 3
        warm = gemm_evaluator(eval_cache=EvalCache(tmp_path))
        warm.evaluate(tuple(sibling))
        assert warm.num_measurements == 0
        assert warm.num_disk_hits == 1


class TestCorruptionTolerance:
    def test_truncated_line_skipped_not_fatal(self, tmp_path):
        cache = EvalCache(tmp_path)
        cache.put("sig", (1, 2), 5.0, "ok")
        cache.put("sig", (3, 4), 7.0, "ok")
        path = cache.path
        text = path.read_text()
        lines = text.splitlines()
        path.write_text(
            lines[0] + "\n"
            + "{not json at all\n"
            + '{"v": 1, "sig": "missing-fields"}\n'
            + lines[1][: len(lines[1]) // 2]      # truncated by a kill
        )
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            reloaded = EvalCache(tmp_path)
        assert reloaded.get("sig", (1, 2)) == (5.0, "ok")
        assert reloaded.get("sig", (3, 4)) is None
        assert len(reloaded) == 1

    def test_unknown_version_skipped(self, tmp_path):
        cache = EvalCache(tmp_path)
        cache.path.write_text(
            '{"v": 99, "sig": "s", "point": [1], "perf": 1.0, "status": "ok"}\n'
        )
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            reloaded = EvalCache(tmp_path)
        assert len(reloaded) == 0

    def test_empty_directory_is_fine(self, tmp_path):
        assert len(EvalCache(tmp_path / "fresh")) == 0
        assert (tmp_path / "fresh").is_dir()


def lines_on_disk(cache):
    return cache.path.read_text().splitlines() if cache.path.exists() else []


class TestDeferredSpan:
    def test_buffered_lines_are_not_on_disk_before_flush(self, tmp_path):
        cache = EvalCache(tmp_path)
        with cache.deferred():
            for i in range(3):
                cache.put("sig", (i,), float(i), "ok")
            # Reads in this process hit at once ...
            assert cache.get("sig", (2,)) == (2.0, "ok")
            assert len(cache) == 3
            # ... but nothing is durable yet.
            assert lines_on_disk(cache) == []
            assert len(EvalCache(tmp_path)) == 0
            cache.flush()
            assert len(lines_on_disk(cache)) == 3
            cache.put("sig", (3,), 3.0, "ok")
            assert len(lines_on_disk(cache)) == 3
        # Leaving the span normally flushes the rest.
        assert len(lines_on_disk(cache)) == 4

    def test_raising_span_rolls_back_to_the_last_flush(self, tmp_path):
        cache = EvalCache(tmp_path)
        cache.put("sig", (0,), 0.0, "ok")
        with pytest.raises(MeasureKilled):
            with cache.deferred():
                cache.put("sig", (1,), 1.0, "ok")
                cache.flush()
                committed = lines_on_disk(cache)
                cache.put("sig", (2,), 2.0, "ok")
                cache.put("sig", (3,), 0.0, "compile_error")
                raise MeasureKilled
        assert lines_on_disk(cache) == committed
        assert len(cache) == 2
        assert cache.stores == 2
        assert cache.get("sig", (2,)) is None
        assert cache.get("sig", (1,)) == (1.0, "ok")
        # The rolled-back keys are stored again on the next put.
        cache.put("sig", (2,), 2.0, "ok")
        assert len(lines_on_disk(cache)) == 3

    def test_flushed_lines_survive_a_process_restart(self, tmp_path):
        cache = EvalCache(tmp_path)
        with cache.deferred():
            cache.put("sig", (3, 1, 4), 2.5, "ok")
            cache.put("sig", (2, 7), 0.0, "compile_error")
            cache.flush()
            cache.put("sig", (9,), 1.0, "ok")
            # What a kill at this instant leaves behind:
            restarted = EvalCache(tmp_path)
        assert restarted.get("sig", (3, 1, 4)) == (2.5, "ok")
        assert restarted.get("sig", (2, 7)) == (0.0, "compile_error")
        assert restarted.get("sig", (9,)) is None
        assert len(restarted) == 2


class TestTunerCommitPoints:
    def tune(self, cache, trials, checkpoint, resume=False):
        tuner = FlexTensorTuner(
            Evaluator(conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c"),
                      V100, eval_cache=cache),
            seed=5,
        )
        return tuner.tune(trials, checkpoint=checkpoint, checkpoint_every=2,
                          resume=resume)

    def test_cache_is_durable_at_every_snapshot(self, tmp_path, monkeypatch):
        cache = EvalCache(tmp_path / "cache")
        on_disk = []
        real_save = tuner_module.save_checkpoint

        def save(path, snapshot, *args, **kwargs):
            # Every entry the snapshot's evaluator measured is on disk.
            on_disk.append((len(lines_on_disk(cache)), len(cache)))
            return real_save(path, snapshot, *args, **kwargs)

        monkeypatch.setattr(tuner_module, "save_checkpoint", save)
        self.tune(cache, 5, tmp_path / "t.ckpt")
        assert len(on_disk) == 3                      # trials 2, 4 and 5
        assert all(lines == entries for lines, entries in on_disk)
        assert on_disk[0][0] < on_disk[-1][0]

    @pytest.mark.parametrize("measurements", [1, 9])
    def test_kill_between_snapshots_resumes_with_exact_billing(
        self, tmp_path, monkeypatch, measurements
    ):
        reference = self.tune(EvalCache(tmp_path / "ref"), 5, tmp_path / "ref.ckpt")

        cache_dir, checkpoint = tmp_path / "cache", tmp_path / "t.ckpt"
        self.tune(EvalCache(cache_dir), 2, checkpoint)
        committed = len(EvalCache(cache_dir))
        patch_measure_kill(monkeypatch)(measurements)
        cache = EvalCache(cache_dir)
        with pytest.raises(MeasureKilled):
            self.tune(cache, 5, checkpoint, resume=True)
        assert len(EvalCache(cache_dir)) == committed
        assert len(cache) == committed

        resumed = self.tune(EvalCache(cache_dir), 5, checkpoint, resume=True)
        assert resumed.num_measurements == reference.num_measurements
        assert resumed.exploration_seconds == reference.exploration_seconds
        assert resumed.curve == reference.curve
        assert resumed.best_point == reference.best_point


class TestWorkersOneDeterminismWithCache:
    def test_cold_cache_runs_are_deterministic(self, tmp_path):
        # Attaching a cold persistent cache changes *accounting*
        # (equivalent points are served, not re-measured — the deliberate
        # ISSUE #2 change) but the run stays fully deterministic.
        def run(directory):
            ev = gemm_evaluator(eval_cache=EvalCache(directory))
            result = FlexTensorTuner(
                ev, seed=0, engine=BatchEngine(ev, workers=1)
            ).tune(4, num_seeds=3)
            return (
                result.best_point, result.best_performance, result.curve,
                result.status_counts, result.exploration_seconds,
            )

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_cold_cache_values_match_serial_per_point(self, tmp_path):
        # Random sampling submits the same points regardless of what the
        # evaluator answers, so every served value can be compared 1:1
        # with the measured serial value: canonical serving must never
        # change a performance number, only skip redundant measurements.
        from repro.explore import RandomSampleTuner

        plain_tuner = RandomSampleTuner(gemm_evaluator(), seed=0)
        plain_tuner.tune(6, num_seeds=3)
        ev = gemm_evaluator(eval_cache=EvalCache(tmp_path))
        cached_tuner = RandomSampleTuner(
            ev, seed=0, engine=BatchEngine(ev, workers=1)
        )
        cached_tuner.tune(6, num_seeds=3)
        assert cached_tuner.evaluated == plain_tuner.evaluated
        assert ev.num_measurements <= plain_tuner.evaluator.num_measurements


# -- multi-process append safety (ISSUE #5 satellite) ----------------------

def _append_cache_entries(directory, process_tag, count):
    cache = EvalCache(directory)
    for i in range(count):
        cache.put(f"sig-{process_tag}", (process_tag, i), float(i), "ok")


def _append_deferred_entries(directory, process_tag, count):
    cache = EvalCache(directory)
    with cache.deferred():
        for i in range(count):
            cache.put(f"sig-{process_tag}", (process_tag, i), float(i), "ok")
            if i % 7 == 6:
                cache.flush()


def _append_locked_pairs(path, process_tag, count):
    # Two separate write() calls inside one lock hold: without the
    # advisory flock these could interleave with another process's pair.
    from repro.runtime.locking import locked

    for i in range(count):
        with open(path, "a") as f, locked(f):
            f.write(f"begin {process_tag} {i}\n")
            f.flush()
            time.sleep(0.001)
            f.write(f"end {process_tag} {i}\n")
            f.flush()


def _append_metrics(path, process_tag, count):
    from repro.runtime import RecordBook

    book = RecordBook(path)
    for i in range(count):
        book.add_metrics({"tag": process_tag, "i": i})


@pytest.mark.slow
class TestConcurrentWriters:
    def spawn(self, target, args_list):
        procs = [
            multiprocessing.Process(target=target, args=args) for args in args_list
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)

    def test_two_processes_interleave_cache_appends_cleanly(self, tmp_path):
        self.spawn(
            _append_cache_entries, [(tmp_path, 1, 100), (tmp_path, 2, 100)]
        )
        # Every line parses and every entry from both writers survived.
        merged = EvalCache(tmp_path)
        assert len(merged) == 200
        for tag in (1, 2):
            for i in range(100):
                assert merged.get(f"sig-{tag}", (tag, i)) == (float(i), "ok")

    def test_two_processes_flush_deferred_spans_cleanly(self, tmp_path):
        self.spawn(
            _append_deferred_entries, [(tmp_path, 1, 100), (tmp_path, 2, 100)]
        )
        # One flush writes several lines at once; the lock keeps each
        # batch whole, so every line parses and every entry survived.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = EvalCache(tmp_path)
        assert len(merged.path.read_text().splitlines()) == 200
        assert len(merged) == 200
        for tag in (1, 2):
            for i in range(100):
                assert merged.get(f"sig-{tag}", (tag, i)) == (float(i), "ok")

    def test_lock_holds_across_multiple_writes(self, tmp_path):
        path = tmp_path / "pairs.log"
        self.spawn(
            _append_locked_pairs, [(path, 1, 30), (path, 2, 30)]
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 120
        # Each begin must be immediately followed by its matching end:
        # the lock was held across both writes, so pairs never interleave.
        for begin, end in zip(lines[0::2], lines[1::2]):
            assert begin.split() == ["begin", *end.split()[1:]]
            assert end.startswith("end")

    def test_two_processes_interleave_record_metrics_cleanly(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self.spawn(_append_metrics, [(path, 1, 100), (path, 2, 100)])
        from repro.runtime import RecordBook

        book = RecordBook(path)
        metrics = book.metrics()
        assert len(metrics) == 200
        for tag in (1, 2):
            seen = [m["i"] for m in metrics if m["tag"] == tag]
            assert sorted(seen) == list(range(100))
