"""Checkpoint/resume: atomic JSONL snapshots, corrupt-file tolerance, and
bit-identical resume of killed tuning runs (ISSUE #1)."""

import copy
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro.explore.network as network_module
import repro.explore.tuner as tuner_module
from repro import optimize
from repro.__main__ import main as cli_main
from repro.explore import FlexTensorTuner, RandomSampleTuner
from repro.explore.qlearning import ALPHA, TRAIN_BATCH, QAgent
from repro.model import V100
from repro.ops import conv2d_compute, gemm_compute
from repro.runtime import (
    Evaluator,
    FaultInjector,
    MeasureConfig,
    load_checkpoint,
    save_checkpoint,
)


def smoke_output():
    return conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")


def smoke_evaluator(**kwargs):
    return Evaluator(smoke_output(), V100, **kwargs)


class TestCheckpointFile:
    def test_roundtrip_and_keep_limit(self, tmp_path):
        path = tmp_path / "run.ckpt"
        for i in range(5):
            save_checkpoint(path, {"trial": i}, keep=3)
        assert load_checkpoint(path)["trial"] == 4
        assert len(path.read_text().splitlines()) == 3
        assert load_checkpoint(path)["version"] == 1

    def test_missing_file_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.ckpt") is None

    def test_corrupt_tail_falls_back_to_previous_snapshot(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"trial": 7})
        with open(path, "a") as f:
            f.write('{"trial": 8, "truncated-by-a-kill')
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            snapshot = load_checkpoint(path)
        assert snapshot["trial"] == 7

    def test_all_corrupt_is_none(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text("garbage\n[1, 2]\n")
        with pytest.warns(UserWarning):
            assert load_checkpoint(path) is None

    def test_leftover_partial_tmp_file_is_ignored_and_overwritten(self, tmp_path):
        # A kill mid-write leaves a partial sibling ``.tmp`` file; the
        # real checkpoint must stay authoritative and the next save must
        # clobber the leftover, not append to it.
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"trial": 1})
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text('{"trial": 99, "killed-mid-wr')
        assert load_checkpoint(path)["trial"] == 1
        save_checkpoint(path, {"trial": 2})
        assert load_checkpoint(path)["trial"] == 2
        assert not tmp.exists()

    def test_final_file_truncated_mid_snapshot_falls_back(self, tmp_path):
        # Simulate a filesystem without atomic rename durability: the
        # newest snapshot line itself is cut in half.  Loading must fall
        # back to the previous intact snapshot, and the next save must
        # not be poisoned by the torn line.
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"trial": 1})
        save_checkpoint(path, {"trial": 2})
        data = path.read_text()
        path.write_text(data[: len(data) - len(data.splitlines()[-1]) // 2 - 1])
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            assert load_checkpoint(path)["trial"] == 1
        save_checkpoint(path, {"trial": 3})
        assert load_checkpoint(path)["trial"] == 3

    def test_binary_garbage_degrades_to_previous_snapshot(self, tmp_path):
        # Raw bytes from disk corruption must never raise out of the
        # loader (UnicodeDecodeError) — they are just another bad line.
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"trial": 5})
        with open(path, "ab") as f:
            f.write(b"\xff\xfe\x00garbage\x80\n")
        with pytest.warns(UserWarning):
            assert load_checkpoint(path)["trial"] == 5


class TestResumeDeterminism:
    def run_uninterrupted(self, tuner_cls, trials, **ev_kwargs):
        return tuner_cls(smoke_evaluator(**ev_kwargs), seed=7).tune(trials, num_seeds=3)

    def run_killed_then_resumed(self, tuner_cls, kill_at, trials, path, **ev_kwargs):
        # The killed run: checkpoints every trial, dies after ``kill_at``.
        killed = tuner_cls(smoke_evaluator(**ev_kwargs), seed=7)
        killed.tune(kill_at, num_seeds=3, checkpoint=path)
        # A fresh process: new tuner + evaluator, resumed from the file.
        resumed = tuner_cls(smoke_evaluator(**ev_kwargs), seed=7)
        return resumed.tune(trials, num_seeds=3, checkpoint=path, resume=True)

    def test_qmethod_resume_bit_identical(self, tmp_path):
        # Kill at trial 6 > train_period=5, so the resumed run carries
        # trained Q-network weights and optimizer state across the kill.
        full = self.run_uninterrupted(FlexTensorTuner, 10)
        resumed = self.run_killed_then_resumed(
            FlexTensorTuner, 6, 10, tmp_path / "q.ckpt"
        )
        assert resumed.best_point == full.best_point
        assert resumed.best_performance == full.best_performance
        assert resumed.exploration_seconds == full.exploration_seconds
        assert resumed.num_measurements == full.num_measurements
        assert resumed.curve == full.curve

    def test_qmethod_resume_bit_identical_under_faults(self, tmp_path):
        kwargs = dict(
            fault_injector=FaultInjector(
                transient_error_rate=0.3, hang_rate=0.05, jitter=0.1, seed=3
            ),
            measure_config=MeasureConfig(timeout_seconds=0.5),
        )
        full = self.run_uninterrupted(FlexTensorTuner, 8, **kwargs)
        resumed = self.run_killed_then_resumed(
            FlexTensorTuner, 4, 8, tmp_path / "qf.ckpt", **kwargs
        )
        assert resumed.best_point == full.best_point
        assert resumed.best_performance == full.best_performance
        assert resumed.exploration_seconds == full.exploration_seconds
        assert resumed.status_counts == full.status_counts

    def test_random_sample_resume_bit_identical(self, tmp_path):
        full = self.run_uninterrupted(RandomSampleTuner, 6)
        resumed = self.run_killed_then_resumed(
            RandomSampleTuner, 3, 6, tmp_path / "rs.ckpt"
        )
        assert resumed.best_point == full.best_point
        assert resumed.exploration_seconds == full.exploration_seconds

    def test_mismatched_tuner_checkpoint_starts_fresh(self, tmp_path):
        path = tmp_path / "mix.ckpt"
        RandomSampleTuner(smoke_evaluator(), seed=7).tune(2, num_seeds=2, checkpoint=path)
        with pytest.warns(UserWarning, match="written by tuner"):
            result = FlexTensorTuner(smoke_evaluator(), seed=7).tune(
                2, num_seeds=2, checkpoint=path, resume=True
            )
        assert result.found

    def test_resume_without_checkpoint_file_is_fresh_run(self, tmp_path):
        fresh = self.run_uninterrupted(RandomSampleTuner, 3)
        resumed = RandomSampleTuner(smoke_evaluator(), seed=7).tune(
            3, num_seeds=3, checkpoint=tmp_path / "never-written.ckpt", resume=True
        )
        assert resumed.best_point == fresh.best_point


class TestCheckpointCadence:
    """``tune()`` snapshots every ``checkpoint_every`` trials counted from
    the trial the call started at, and always after its last trial."""

    def record_saves(self, monkeypatch):
        saved = []
        real = tuner_module.save_checkpoint

        def spy(path, snapshot, *args, **kwargs):
            saved.append(snapshot["trial"])
            return real(path, snapshot, *args, **kwargs)

        monkeypatch.setattr(tuner_module, "save_checkpoint", spy)
        return saved

    def test_last_trial_is_durable_off_the_period(self, tmp_path, monkeypatch):
        saved = self.record_saves(monkeypatch)
        path = tmp_path / "c.ckpt"
        first = FlexTensorTuner(smoke_evaluator(), seed=7).tune(
            7, num_seeds=3, checkpoint=path, checkpoint_every=3
        )
        assert saved == [3, 6, 7]
        assert load_checkpoint(path)["trial"] == 7
        # Resuming at the final snapshot runs no further trial and
        # reproduces the finished run exactly.
        del saved[:]
        resumed_evaluator = smoke_evaluator()
        resumed = FlexTensorTuner(resumed_evaluator, seed=7).tune(
            7, num_seeds=3, checkpoint=path, checkpoint_every=3, resume=True
        )
        assert saved == []
        assert resumed.best_point == first.best_point
        assert resumed.best_performance == first.best_performance
        assert resumed.exploration_seconds == first.exploration_seconds
        assert resumed.num_measurements == first.num_measurements
        assert resumed.curve == first.curve

    def test_period_counts_from_the_resumed_trial(self, tmp_path, monkeypatch):
        saved = self.record_saves(monkeypatch)
        path = tmp_path / "c.ckpt"
        RandomSampleTuner(smoke_evaluator(), seed=7).tune(
            2, num_seeds=2, checkpoint=path, checkpoint_every=5
        )
        RandomSampleTuner(smoke_evaluator(), seed=7).tune(
            9, num_seeds=2, checkpoint=path, checkpoint_every=3, resume=True
        )
        assert saved == [2, 5, 8, 9]

    @pytest.mark.parametrize("every", [0, -1])
    def test_period_below_one_is_rejected_before_measuring(self, tmp_path, every):
        evaluator = smoke_evaluator()
        with pytest.raises(ValueError, match="checkpoint_every"):
            optimize(
                smoke_output(), V100, trials=3, seed=5,
                checkpoint=tmp_path / "c.ckpt", checkpoint_every=every,
            )
        with pytest.raises(ValueError, match="checkpoint_every"):
            FlexTensorTuner(evaluator, seed=7).tune(
                3, checkpoint=tmp_path / "c.ckpt", checkpoint_every=every
            )
        assert evaluator.num_measurements == 0
        assert not (tmp_path / "c.ckpt").exists()


#: Q-method snapshots in the two older formats, each the newest line of
#: ``FlexTensorTuner(Evaluator(gemm_compute(8, 8, 8), V100), seed=7,
#: num_starting_points=2, steps=2, train_period=2)`` with its agent
#: replaced by ``QAgent(space, epsilon=0.5, train_period=2, seed=7)``
#: with 4-wide hidden layers (``HIDDEN = 4``), after ``tune(3,
#: num_seeds=2, checkpoint=...)``.  The first
#: stores the DQN target network with its (never used, all-zero) AdaDelta
#: accumulators; the second stores the target's weights and biases only.
#: Snapshots written now store no target network at all.
OLD_FORMAT_SNAPSHOT = Path(__file__).parent / "data" / "qmethod-target-optimizer.ckpt"
TARGET_WEIGHTS_SNAPSHOT = Path(__file__).parent / "data" / "qmethod-target-weights.ckpt"


class TestOldFormatSnapshot:
    @pytest.fixture(autouse=True)
    def four_wide_network(self, monkeypatch):
        # The fixtures were written by a network with 4-wide hidden layers.
        monkeypatch.setattr(network_module, "HIDDEN", 4)

    def small_tuner(self):
        tuner = FlexTensorTuner(
            Evaluator(gemm_compute(8, 8, 8), V100), seed=7,
            num_starting_points=2, steps=2, train_period=2,
        )
        tuner.agent = QAgent(tuner.space, epsilon=0.5, train_period=2, seed=7)
        return tuner

    def resume_matches_uninterrupted(self, fixture, tmp_path):
        full_tuner = self.small_tuner()
        full = full_tuner.tune(6, num_seeds=2)

        path = tmp_path / "old.ckpt"
        shutil.copy(fixture, path)
        resumed_tuner = self.small_tuner()
        resumed = resumed_tuner.tune(6, num_seeds=2, checkpoint=path, resume=True)

        assert resumed.best_point == full.best_point
        assert resumed.best_performance == full.best_performance
        assert resumed.exploration_seconds == full.exploration_seconds
        assert resumed.num_measurements == full.num_measurements
        assert resumed.curve == full.curve
        assert resumed_tuner.agent.get_state() == full_tuner.agent.get_state()
        # Snapshots written from here on store no target network.
        newest = load_checkpoint(path)
        assert newest["trial"] == 6
        assert "target_network" not in newest["state"]["agent"]
        assert "optimizer" in newest["state"]["agent"]["network"]

    def test_target_optimizer_snapshot_resumes_bit_identically(self, tmp_path):
        old = json.loads(OLD_FORMAT_SNAPSHOT.read_text())
        assert old["trial"] == 3
        assert "optimizer" in old["state"]["agent"]["target_network"]
        self.resume_matches_uninterrupted(OLD_FORMAT_SNAPSHOT, tmp_path)

    def test_target_weights_snapshot_resumes_bit_identically(self, tmp_path):
        old = json.loads(TARGET_WEIGHTS_SNAPSHOT.read_text())
        assert old["trial"] == 3
        assert set(old["state"]["agent"]["target_network"]) == {"weights", "biases"}
        self.resume_matches_uninterrupted(TARGET_WEIGHTS_SNAPSHOT, tmp_path)


class TestBootstrapTarget:
    def test_next_q_is_the_pre_step_online_forward(self):
        """``train()`` bootstraps its DQN targets from the online network
        as it stands before the training step, bit for bit."""
        tuner = FlexTensorTuner(
            Evaluator(gemm_compute(8, 8, 8), V100), seed=7,
            num_starting_points=2, steps=2, train_period=2,
        )
        agent = tuner.agent
        real_train = agent.train
        real_step = agent.network.train_batch
        checked = []

        def train():
            # Replay the minibatch draw on a copy of the agent's RNG.
            rng = copy.deepcopy(agent._rng)
            count = len(agent.transitions)
            idx = rng.choice(count, size=min(TRAIN_BATCH, count), replace=False)
            batch = [agent.transitions[i] for i in idx]
            pre_step = copy.deepcopy(agent.network)
            captured = []

            def train_batch(features, targets, mask):
                captured.append(targets.copy())
                return real_step(features, targets, mask)

            agent.network.train_batch = train_batch
            loss = real_train()
            del agent.network.train_batch

            space = agent.space
            next_q = pre_step.forward(
                np.stack([space.features(t.next_state) for t in batch])
            )
            expected = pre_step.forward(
                np.stack([space.features(t.state) for t in batch])
            )
            rows = np.arange(len(batch))
            directions = np.array([t.direction for t in batch])
            rewards = np.array([t.reward for t in batch])
            expected[rows, directions] = rewards + ALPHA * next_q.max(axis=1)
            assert len(captured) == 1
            assert captured[0].tobytes() == expected.tobytes()
            checked.append(loss)
            return loss

        agent.train = train
        tuner.tune(8, num_seeds=2)
        # train_period=2: four real weight updates, each checked against
        # the network the previous one left behind.
        assert len(checked) == 4 and agent.losses == checked


class TestOptimizeWiring:
    def test_optimize_checkpoint_and_resume(self, tmp_path):
        path = tmp_path / "opt.ckpt"
        out = smoke_output()
        uninterrupted = optimize(out, V100, trials=6, seed=5)
        optimize(out, V100, trials=3, seed=5, checkpoint=path)
        assert load_checkpoint(path) is not None
        resumed = optimize(out, V100, trials=6, seed=5, checkpoint=path, resume=True)
        assert resumed.gflops == uninterrupted.gflops
        assert resumed.config == uninterrupted.config
        assert (
            resumed.tuning.exploration_seconds
            == uninterrupted.tuning.exploration_seconds
        )


@pytest.mark.faults
class TestCli:
    def test_cli_checkpoint_flag(self, tmp_path, capsys):
        path = tmp_path / "cli.ckpt"
        argv = ["gemm", "--n", "8", "--k", "8", "--m", "8",
                "--trials", "2", "--checkpoint", str(path)]
        assert cli_main(argv) == 0
        assert load_checkpoint(path) is not None
        assert cli_main(argv + ["--resume"]) == 0
