"""Tests for the pooling extension operators, serialization, and the CLI."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.codegen import execute_reference, execute_scheduled, random_inputs
from repro.model import V100
from repro.ops import (
    avgpool2d_compute,
    avgpool2d_reference,
    maxpool2d_compute,
    maxpool2d_reference,
)
from repro.schedule import GraphConfig, NodeConfig, lower
from repro.space import build_space
from repro.utils import (
    config_from_dict,
    config_to_dict,
    load_schedule,
    save_schedule,
)


class TestPooling:
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (2, 1), (3, 2)])
    def test_maxpool_reference_match(self, kernel, stride):
        out = maxpool2d_compute(1, 3, 8, 8, kernel, stride, name="p")
        inputs = random_inputs(out, seed=0)
        got = execute_reference(out, inputs)
        np.testing.assert_allclose(
            got, maxpool2d_reference(inputs["p_I"], kernel, stride)
        )

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 3)])
    def test_avgpool_reference_match(self, kernel, stride):
        out = avgpool2d_compute(1, 3, 9, 9, kernel, stride, name="p")
        inputs = random_inputs(out, seed=1)
        got = execute_reference(out, inputs)
        np.testing.assert_allclose(
            got, avgpool2d_reference(inputs["p_I"], kernel, stride), atol=1e-12
        )

    def test_maxpool_scheduled_execution(self):
        # the max combiner survives arbitrary loop reordering
        out = maxpool2d_compute(1, 2, 8, 8, 2, 2, name="p")
        space = build_space(out, "gpu")
        rng = np.random.default_rng(2)
        inputs = random_inputs(out, seed=2)
        expected = maxpool2d_reference(inputs["p_I"], 2, 2)
        for _ in range(3):
            config = space.decode(space.random_point(rng))
            scheduled = lower(out, config, "gpu")
            got = execute_scheduled(scheduled, inputs)
            np.testing.assert_allclose(got, expected)

    def test_maxpool_optimizable(self):
        from repro import optimize

        out = maxpool2d_compute(1, 16, 16, 16, 2, name="p")
        result = optimize(out, V100, trials=4, seed=0)
        assert result.found


class TestSerialization:
    def config(self):
        return NodeConfig(
            spatial_factors=((2, 1, 2, 2), (1, 2, 2, 2)),
            reduce_factors=((2, 4),),
            reorder=2,
            unroll_depth=16,
            vectorize=False,
            fpga_partition=4,
        )

    def test_dict_roundtrip(self):
        config = self.config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_dict_is_json_compatible(self):
        json.dumps(config_to_dict(self.config()))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "sched.json"
        graph_config = GraphConfig(inline={"pad": False})
        save_schedule(path, self.config(), graph_config, metadata={"note": "x"})
        config, loaded_graph, metadata = load_schedule(path)
        assert config == self.config()
        assert loaded_graph.inline == {"pad": False}
        assert metadata == {"note": "x"}

    def test_loaded_config_is_lowerable(self, tmp_path):
        from repro.ops import gemm_compute

        out = gemm_compute(8, 8, 8)
        path = tmp_path / "sched.json"
        save_schedule(path, self.config())
        config, graph_config, _ = load_schedule(path)
        lower(out, config, "gpu", graph_config)


class TestCli:
    def run_cli(self, *args):
        result = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr[-1500:]
        return result.stdout

    def test_gemm_tuning(self):
        out = self.run_cli("gemm", "--n", "64", "--k", "64", "--m", "64",
                           "--trials", "3")
        assert "GFLOPS" in out

    def test_conv2d_with_save_and_code(self, tmp_path):
        path = tmp_path / "s.json"
        out = self.run_cli(
            "conv2d", "--in-channel", "8", "--out-channel", "8", "--size", "8",
            "--trials", "3", "--save", str(path), "--show-code",
        )
        assert "def kernel" in out
        assert path.exists()
        config, _, metadata = load_schedule(path)
        assert metadata["operator"] == "conv2d"

    def test_measurement_health_block(self, capsys):
        from repro.__main__ import main

        argv = ["gemm", "--n", "8", "--k", "8", "--m", "8", "--trials", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "measurement health" in out
        assert "retries" in out

    @pytest.mark.parametrize("argv", [
        ["tune-network", "--enqueue"],
        ["lookup", "--uniform"],
        ["conv2d", "--ttl", "5"],
        ["lint", "--max-slices", "1"],
        ["tune-network", "--lint-records"],
        ["gemm", "--lint-records"],
        ["gemm", "--sample", "100"],
        ["serve", "--target", "cpu"],
        ["status", "--enqueue"],
        ["gemm", "--uniform"],
        ["submit", "--max-slices", "0"],
        ["serve", "--ttl", "5"],
        ["status", "--surrogate"],
        ["status", "--lint"],
        ["status", "--show-code"],
        ["lookup", "--save", "x.json"],
        ["lookup", "--checkpoint", "c.ckpt"],
        ["serve", "--cache-dir", "cache"],
        ["lint", "--prune-space"],
        ["tune-network", "--tensorize"],
        ["submit", "--resume"],
        ["submit", "--slice-trials", "3"],
        ["gemm", "--padding", "1"],
    ])
    def test_ignored_flag_exits_nonzero(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{argv[1]} applies to" in capsys.readouterr().err

    def test_bad_device_rejected(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "gemm", "--device", "TPU"],
            capture_output=True, text=True,
        )
        assert result.returncode != 0
