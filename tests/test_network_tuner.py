"""Network-level task scheduler: dedup, determinism, crash parity,
ε-floor fairness, shared-cache accounting, and the serve read path."""

import json
import math
from pathlib import Path

import pytest

import repro.explore.tuner as explore_tuner
import repro.nn.tuner as nn_tuner
from repro.__main__ import main
from repro.graph import get_graph
from repro.model import XEON_E5_2699V4, target_of
from repro.nn import (
    LayerSpec,
    Network,
    NetworkChaos,
    NetworkKilled,
    NetworkTaskScheduler,
    optimize_network,
    tune_network,
)
from repro.nn.network import _epilogue_seconds
from repro.nn.tuner import SCHEDULER_KNOBS, TuneTask
from repro.ops.workloads import Workload
from repro.runtime import RecordBook, load_checkpoint
from repro.space import build_space

from .kills import MeasureKilled, patch_measure_kill

DEVICE = XEON_E5_2699V4

#: Former scheduler options, now constants of ``repro.nn.tuner``.
REMOVED_KNOBS = ("cap_boost", "min_trials", "patience", "round_slots", "starve_rounds")


def conv(name, c_in, c_out, hw, kernel=3):
    return Workload("C2D", name, dict(
        batch=1, in_channel=c_in, height=hw, width=hw,
        out_channel=c_out, kernel=kernel, stride=1, padding=kernel // 2,
    ))


def tiny_network():
    """Three distinct shapes; the first two layers share one."""
    return Network("tiny", [
        LayerSpec(conv("a", 8, 16, 16), 2),
        LayerSpec(conv("a_again", 8, 16, 16), 1),   # same shape as "a"
        LayerSpec(conv("b", 16, 32, 8), 1),
        LayerSpec(conv("c", 4, 8, 8, kernel=1), 1),
    ])


def run(base, network=None, chaos=None, resume=False, constants=None, **kwargs):
    """One ``tune_network`` call over a store under ``base``, with the
    scheduler's module ``constants`` (names of ``repro.nn.tuner``) set
    for the call.  By default a round has one slot per two tasks: the
    tiny network's three tasks get two, so a kill can land inside a plan."""
    options = dict(trials=8, seed=3)
    if kwargs.get("allocate", True):
        # Scheduler knobs and checkpointing: the uniform baseline rejects both.
        options.update(slice_trials=3, checkpoint_dir=base / "ckpt",
                       resume=resume, chaos=chaos)
    options.update(kwargs)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in {"TASKS_PER_SLOT": 2, **(constants or {})}.items():
            patch.setattr(nn_tuner, name, value)
        return tune_network(
            network if network is not None else tiny_network(), DEVICE,
            records=base / "records.jsonl",
            eval_cache=base / "cache",
            **options,
        )


class TestSignatureDedup:
    def test_identical_layers_become_one_task(self, tmp_path):
        result = run(tmp_path)
        assert len(result.tasks) == 3          # 4 specs, one duplicate shape
        assert result.dedup_layers_covered == 1
        merged = result.tasks[0]
        assert merged.layer_indices == [0, 1]
        assert merged.multiplicity == 3        # x2 + x1 occurrences

    def test_covered_layers_share_the_tuned_schedule(self, tmp_path):
        result = run(tmp_path)
        first, second = result.layers[0], result.layers[1]
        assert first.kernel_seconds == second.kernel_seconds
        assert first.gflops == second.gflops

    def test_duplicate_layer_costs_no_extra_measurements(self, tmp_path):
        """Cache-hit accounting: with dedup, the second occurrence of a
        signature is served for free — the deduped network spends exactly
        what the single-layer network spends at the same per-task cap."""
        single = Network("one", [LayerSpec(conv("a", 8, 16, 16), 1)])
        double = Network("two", [
            LayerSpec(conv("a", 8, 16, 16), 1),
            LayerSpec(conv("a_again", 8, 16, 16), 1),
        ])
        kwargs = dict(trials=6, constants=dict(CAP_BOOST=1.0, PATIENCE=10_000))
        lone = run(tmp_path / "single", network=single, **kwargs)
        deduped = run(tmp_path / "double", network=double, **kwargs)
        assert len(deduped.tasks) == 1
        assert deduped.total_measurements == lone.total_measurements
        assert deduped.trials_spent == lone.trials_spent


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, tmp_path):
        first = run(tmp_path / "one")
        second = run(tmp_path / "two")
        assert first.state_digest() == second.state_digest()

    def test_different_seed_changes_the_run(self, tmp_path):
        first = run(tmp_path / "one")
        second = run(tmp_path / "two", seed=4)
        assert first.state_digest() != second.state_digest()


class TestKillResumeParity:
    @pytest.mark.parametrize("kill_after", [1, 3, 5])
    def test_kill_and_resume_is_bit_identical(self, tmp_path, kill_after):
        reference = run(tmp_path / "ref")
        with pytest.raises(NetworkKilled):
            run(tmp_path / "chaos", chaos=NetworkChaos(kill_after_slices=kill_after))
        resumed = run(tmp_path / "chaos", resume=True)
        assert resumed.state_digest() == reference.state_digest()

    def test_fresh_run_ignores_stale_checkpoints(self, tmp_path):
        """resume=False must wipe leftover slice checkpoints: a rerun in
        a used directory behaves exactly like one in a clean directory
        (same records and cache state in both)."""
        import shutil

        first_dir = tmp_path / "a"
        run(first_dir)
        clone_dir = tmp_path / "b"
        shutil.copytree(first_dir, clone_dir)
        shutil.rmtree(clone_dir / "ckpt")
        stale = run(first_dir)     # checkpoint files from the first run present
        clean = run(clone_dir)     # none
        assert stale.state_digest() == clean.state_digest()

    def test_killed_exception_escapes_except_exception(self, tmp_path):
        with pytest.raises(NetworkKilled):
            try:
                run(tmp_path, chaos=NetworkChaos(kill_after_slices=1))
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("NetworkKilled must not be an Exception")


class TestKillInsideSlice:
    @pytest.mark.parametrize("tune_call, measurements", [
        (2, 1), (2, 40), (3, 5), (5, 20),
    ])
    def test_resume_bills_exactly_what_an_uninterrupted_run_bills(
        self, tmp_path, monkeypatch, tune_call, measurements
    ):
        """The ``tune_call``-th slice dies after ``measurements`` fresh
        measurements.  The eval-cache entries it measured die with its
        tuner state, so the re-run slice measures and bills them again."""
        reference = run(tmp_path / "ref")
        arm = patch_measure_kill(monkeypatch)
        calls = [0]
        real_tune = explore_tuner.BaseTuner.tune

        def tune(self, *args, **kwargs):
            calls[0] += 1
            if calls[0] == tune_call:
                arm(measurements)
            try:
                return real_tune(self, *args, **kwargs)
            finally:
                arm(None)

        monkeypatch.setattr(explore_tuner.BaseTuner, "tune", tune)
        with pytest.raises(MeasureKilled):
            run(tmp_path / "chaos")
        resumed = run(tmp_path / "chaos", resume=True)
        assert resumed.total_measurements == reference.total_measurements
        assert resumed.exploration_seconds == reference.exploration_seconds
        assert resumed.state_digest() == reference.state_digest()


class TestSliceCommitCadence:
    def test_one_tuner_snapshot_per_slice(self, tmp_path, monkeypatch):
        """A slice writes exactly one tuner snapshot, at its end trial:
        the scheduler commits at slice boundaries only, so per-trial
        snapshots inside a slice would be written and never used."""
        saves = []
        real_save = explore_tuner.save_checkpoint

        def spy(path, snapshot, *args, **kwargs):
            saves.append((Path(path), snapshot["trial"]))
            return real_save(path, snapshot, *args, **kwargs)

        monkeypatch.setattr(explore_tuner, "save_checkpoint", spy)
        slices = []
        real_run_slice = NetworkTaskScheduler._run_slice

        def run_slice(scheduler, task, reason):
            start = task.run_trials
            del saves[:]
            real_run_slice(scheduler, task, reason)
            end = task.run_trials
            if end == start:          # no trials left to grant: no slice
                assert saves == []
                return
            path = scheduler._task_checkpoint(task)
            assert saves == [(path, end)]
            trials = [json.loads(line)["trial"] for line in path.read_text().splitlines()]
            assert trials[-1] == end
            assert not any(start < trial < end for trial in trials)
            slices.append((reason, end - start))

        monkeypatch.setattr(NetworkTaskScheduler, "_run_slice", run_slice)
        run(
            tmp_path, trials=6, slice_trials=3, restart_trials=4,
            constants=dict(PATIENCE=1, MIN_TRIAL_SLICES=1, CAP_BOOST=3.0),
        )
        # The run covers the two slice sizes other than ``slice_trials``:
        # a restart's full runway and a slice capped by the budget left.
        assert ("restart", 4) in slices
        assert any(size < 3 for _reason, size in slices)


class TestEpsilonFloor:
    def synthetic_tasks(self):
        """One flat (zero-gain) task among steadily improving ones."""
        tasks = []
        for index in range(3):
            task = TuneTask(
                index=index, signature=f"sig-{index}", workload=None,
                layer_indices=[index], multiplicity=1, weight_flops=100,
                max_trials=1000, trials_done=6,
            )
            if index == 0:
                task.curve = [(3, 1.0), (6, 1.0)]       # converged: gain 0
            else:
                task.curve = [(3, 1.0), (6, 0.5)]       # still improving
            task.kernel_seconds = task.curve[-1][1]
            tasks.append(task)
        return tasks

    def test_zero_gain_task_is_forced_after_starve_rounds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nn_tuner, "STARVE_ROUNDS", 2)
        scheduler = NetworkTaskScheduler(
            Network("one", [LayerSpec(conv("a", 4, 8, 8, kernel=1), 1)]),
            DEVICE, checkpoint_dir=tmp_path,
        )
        assert scheduler.round_slots == 1
        tasks = self.synthetic_tasks()
        for task in tasks:
            task.last_served_round = 0
        # Round 1: gain ranking alone would pick an improving task...
        plan = scheduler.plan_round(1, tasks)
        assert plan == [(1, "gain")]
        # ...but once the flat task has waited STARVE_ROUNDS rounds, the
        # floor forces it to the front despite its zero gain.
        plan = scheduler.plan_round(2, tasks)
        assert plan[0] == (0, "floor")

    def test_no_runnable_task_starves_in_a_real_run(self, tmp_path):
        starve_rounds = 2
        result = run(
            tmp_path, trials=10, constants=dict(
                TASKS_PER_SLOT=3,        # one slot a round
                STARVE_ROUNDS=starve_rounds,
                PATIENCE=10_000,         # keep every task runnable throughout
            ),
        )
        served = {}
        for event in result.trace:
            served.setdefault(event["task"], []).append(event["round"])
        # Every task is served at least once per starve_rounds + n_tasks
        # window while runnable (the floor may queue several starved
        # tasks behind one slot, hence the + n_tasks slack).
        bound = starve_rounds + len(result.tasks)
        for rounds in served.values():
            gaps = [b - a for a, b in zip(rounds, rounds[1:])]
            assert max(gaps, default=0) <= bound


class TestSharedRecords:
    def test_records_are_stamped_with_serve_keys(self, tmp_path):
        result = run(tmp_path)
        book = RecordBook(tmp_path / "records.jsonl")
        assert result.found
        for task in result.tasks:
            record = book.best_for_signature(task.signature)
            assert record is not None
            assert record.key.startswith("conv2d[")
            assert record.key.endswith(f"@{DEVICE.name}")
            assert record.gflops == task.best_gflops

    def test_lookup_cli_answers_network_layer_queries(self, tmp_path):
        """The round trip of satellite (b): tune a network into a store,
        then resolve one of its layers through ``python -m repro lookup``."""
        store = tmp_path / "store"
        store.mkdir()
        network = Network("lookup-net", [LayerSpec(conv("a", 8, 16, 8), 1)])
        result = tune_network(
            network, DEVICE, trials=4, seed=0, slice_trials=2,
            records=store / "records.jsonl",
            eval_cache=store / "evalcache",
        )
        assert result.found
        rc = main([
            "lookup", "--store", str(store), "--op", "conv2d",
            "--device", DEVICE.name, "--batch", "1", "--in-channel", "8",
            "--out-channel", "16", "--size", "8", "--kernel", "3",
            "--stride", "1", "--padding", "1",
        ])
        assert rc == 0
        rc = main([
            "lookup", "--store", str(store), "--op", "conv2d",
            "--device", DEVICE.name, "--batch", "1", "--in-channel", "999",
            "--out-channel", "16", "--size", "8", "--kernel", "3",
        ])
        assert rc == 1

    def test_warm_start_from_prior_run(self, tmp_path):
        """A second network run over the same store warm-starts every
        task from the record book (exact signature hits), and a task
        labeled warm really began its search at the stored schedule."""
        def run_and_check():
            before = RecordBook(tmp_path / "records.jsonl")
            result = run(tmp_path)
            for task in result.tasks:
                if not task.warm_source:
                    continue
                record = before.best_for_signature(task.signature)
                assert record is not None, task.warm_source
                space = build_space(get_graph(task.workload.build()), target_of(DEVICE))
                snapshot = load_checkpoint(
                    tmp_path / "ckpt" / f"task-{task.index:03d}-r0.ckpt"
                )
                first_point = tuple(snapshot["state"]["evaluated"][0][0])
                assert first_point == space.encode(record.config)
            return result

        first = run_and_check()
        # No record exists before the first run, so nothing warm-starts.
        assert all(t.warm_source == "" for t in first.tasks)
        second = run_and_check()  # same store: records now pre-populated
        assert all(t.warm_source == "signature" for t in second.tasks)


class TestBudget:
    def test_global_budget_is_never_exceeded(self, tmp_path):
        result = run(tmp_path)
        assert result.trials_spent <= result.trials_budget
        assert result.trials_budget == 8 * 4   # trials x len(network.layers)

    def test_uniform_mode_spends_the_flat_budget(self, tmp_path):
        result = run(tmp_path, allocate=False)
        assert result.mode == "uniform"
        assert len(result.tasks) == 4          # no dedup on the flat path
        assert result.trials_spent == result.trials_budget

    @pytest.mark.parametrize("knob", sorted(SCHEDULER_KNOBS | set(REMOVED_KNOBS)))
    def test_uniform_mode_rejects_scheduler_knobs(self, tmp_path, knob):
        with pytest.raises(TypeError, match=knob):
            run(tmp_path, allocate=False, **{knob: 2})
        with pytest.raises(TypeError, match=knob):
            optimize_network(tiny_network(), DEVICE, trials=2, **{knob: 2})

    @pytest.mark.parametrize("knob", REMOVED_KNOBS)
    def test_removed_knobs_fail_before_any_slice(self, tmp_path, knob, monkeypatch):
        def no_slice(*args):
            pytest.fail("a slice ran")

        monkeypatch.setattr(NetworkTaskScheduler, "_run_slice", no_slice)
        with pytest.raises(TypeError, match=knob):
            run(tmp_path, **{knob: 2})
        with pytest.raises(TypeError, match=knob):
            NetworkTaskScheduler(tiny_network(), DEVICE, **{knob: 2})
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("name,value", [
        ("checkpoint_dir", "ckpt"),
        ("resume", True),
        ("chaos", NetworkChaos(kill_after_slices=0)),
    ])
    def test_uniform_mode_rejects_checkpointing(self, tmp_path, name, value):
        if name == "checkpoint_dir":
            value = tmp_path / value
        with pytest.raises(TypeError, match=name):
            tune_network(tiny_network(), DEVICE, trials=2, allocate=False,
                         **{name: value})
        with pytest.raises(TypeError, match=name):
            optimize_network(tiny_network(), DEVICE, trials=2, **{name: value})
        assert not (tmp_path / "ckpt").exists()

    def test_uniform_mode_names_every_checkpointing_argument(self, tmp_path):
        with pytest.raises(TypeError, match="checkpoint_dir, resume, chaos"):
            tune_network(tiny_network(), DEVICE, trials=2, allocate=False,
                         checkpoint_dir=tmp_path, resume=True,
                         chaos=NetworkChaos(kill_after_slices=0))

    @pytest.mark.parametrize("flag", [["--resume"], ["--slice-trials", "3"]])
    def test_uniform_scheduler_flags_are_usage_errors(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["tune-network", "--uniform", *flag, "--store", str(tmp_path)])
        assert exc.value.code == 2
        assert f"{flag[0]} has no effect with --uniform" in capsys.readouterr().err

    def test_optimize_network_is_the_uniform_tune(self):
        network = Network("one", [LayerSpec(conv("a", 4, 8, 8, kernel=1), 1)])
        classic = optimize_network(network, DEVICE, trials=4, seed=1, num_seeds=2)
        uniform = tune_network(
            network, DEVICE, trials=4, seed=1, allocate=False, num_seeds=2,
        ).to_network_result()
        assert classic == uniform
        assert classic.layers and math.isfinite(classic.total_seconds)

    def test_optimize_network_passes_options_to_autotvm(self):
        # A padded layer: ``inline_helpers=False`` materializes its
        # padding stage as a separate kernel.
        network = Network("one", [LayerSpec(conv("a", 4, 8, 8), 1)])
        with pytest.raises(TypeError, match="bogus_option"):
            optimize_network(network, DEVICE, trials=2, method="autotvm",
                             bogus_option=1)
        inlined = optimize_network(network, DEVICE, trials=2, method="autotvm")
        naive = optimize_network(network, DEVICE, trials=2, method="autotvm",
                                 inline_helpers=False)
        assert naive.total_seconds > inlined.total_seconds


class TestEpilogueDtype:
    class _Stub:
        def __init__(self, dtype):
            self.dtype = dtype

        def build(self):
            import types
            return types.SimpleNamespace(size=4096, dtype=self.dtype)

    def test_element_size_follows_output_dtype(self):
        launch = getattr(DEVICE, "kernel_launch_us", 5.0) * 1e-6
        f32 = _epilogue_seconds(self._Stub("float32"), DEVICE, fused=False)
        i8 = _epilogue_seconds(self._Stub("int8"), DEVICE, fused=False)
        assert (f32 - launch) == pytest.approx(4 * (i8 - launch))

    def test_fused_epilogue_is_free(self):
        assert _epilogue_seconds(self._Stub("int8"), DEVICE, fused=True) == 0.0
