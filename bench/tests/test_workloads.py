"""Seeded inputs, failure accounting, the smoke pass and the contract file."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("smoke", [False, True])
def test_same_seed_same_inputs_other_seed_other_inputs(workload, smoke):
    first = workloads.make_inputs(workload, 7, smoke=smoke)
    assert first == workloads.make_inputs(workload, 7, smoke=smoke)
    assert json.loads(json.dumps(first)) == first      # plain data only
    assert first != workloads.make_inputs(workload, 8, smoke=smoke)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        workloads.make_inputs("nope", 0)


def test_service_inputs_are_admissible():
    inputs = workloads.make_inputs("serve_mixed", 0)
    size = workloads.SIZES["serve_mixed"]
    assert len(inputs["jobs"]) == size["per_family"] * len(size["families"]) + size["resubmit"]
    keys = [json.dumps([j["operator"], j["params"]], sort_keys=True) for j in inputs["jobs"]]
    misses = {json.dumps([m["operator"], m["params"]], sort_keys=True)
              for m in inputs["misses"]}
    assert not misses & set(keys) and len(misses) == len(inputs["misses"])


def test_a_failing_call_is_counted_not_fatal(tmp_path, monkeypatch):
    inputs = workloads.make_inputs("op_search", 0, smoke=True)
    real = workloads.OPTIMIZE.optimize
    doomed = inputs["tasks"][1]

    def flaky(output, device, **kwargs):
        if kwargs["seed"] == doomed["seed"]:
            raise RuntimeError("stubbed failure")
        return real(output, device, **kwargs)

    monkeypatch.setattr(workloads.OPTIMIZE, "optimize", flaky)
    result = workloads.run_pass(inputs, tmp_path / "pass")
    assert result.attempted == len(inputs["tasks"])
    assert len(result.failures) == 1 and "stubbed failure" in result.failures[0]
    assert len(result.outcome) == len(inputs["tasks"]) - 1
    assert workloads.check_outputs(inputs, result) == (len(inputs["tasks"]) - 1 + 2, [])


def test_a_schedule_that_disagrees_fails_its_check(tmp_path):
    inputs = workloads.make_inputs("op_screened", 0, smoke=True)
    result = workloads.run_pass(inputs, tmp_path / "pass")
    name, graph, config, target, graph_config, model, primitives, seconds = result.checks[0]
    result.checks[0] = (name, graph, config, target, graph_config, model, primitives,
                        seconds / 2)
    checked, failures = workloads.check_outputs(inputs, result)
    assert checked == 1 and len(failures) == 1 and "slower than reported" in failures[0]


def test_contract_file_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["per_layer"] == layers.per_layer_catalog()
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert spec["run_seconds"] * (4 + 22 * len(spec["workloads"])) < 3420


def _run(args, cwd, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_smoke_pass_of_all_workloads_under_a_minute():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    plain = _run(["--smoke", "--seconds", "0.5", "--out", "bench/out/smoke-plain.json"], ROOT)
    traced = _run(["--smoke", "--seconds", "0.5", "--trace", "1",
                   "--out", "bench/out/smoke-traced.json"], ROOT)
    assert time.perf_counter() - start < 60
    for proc, catalog in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        for workload in workloads.WORKLOADS:
            for entry in catalog:
                metric = last["metrics"][f"{workload}.{entry['name']}"]
                assert metric["unit"] == entry["unit"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "op_search", "--seed", "1", "--seconds", "5", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
