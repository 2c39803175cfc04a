"""Percentiles, quartiles and the verdicts of ``run.py compare``."""

import statistics

import numpy as np
import pytest

from summary import compare_metric, compare_results, percentile, quartiles, spread


@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 100])
def test_percentile_matches_linear_interpolation(q):
    values = list(np.random.default_rng(3).exponential(size=101)) + [7.0, 7.0]
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_edges():
    assert percentile([4.0], 99) == 4.0
    assert percentile([1, 2, 3, 4], 50) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert spread([10.0, 10.0, 10.0]) == 0.0


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare_metric(steady, steady, "lower", 0.05)["verdict"] == "unchanged"
    assert compare_metric(steady, steady, "lower", 0.05)["identical"]
    slower = [v * 1.2 for v in steady]
    assert compare_metric(steady, slower, "lower", 0.05)["verdict"] == "regressed"
    assert compare_metric(steady, slower, "higher", 0.05)["verdict"] == "improved"
    noisy = [5.0, 10.0, 15.0, 10.0, 12.0]
    row = compare_metric(steady, noisy, "lower", 0.05)
    assert row["verdict"] == "unresolved"
    # Every noisy run beating every steady one still decides the verdict.
    assert compare_metric(steady, [v / 3 for v in noisy], "lower", 0.05)["verdict"] == "improved"


def test_compare_results_flags_regressions_and_failed_runs():
    catalog = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]

    def runs(values, correct=True):
        return {"workloads": {"w": {"runs": [
            {"metrics": {"wall_s": v}, "correct": correct, "digest": "d"} for v in values
        ]}}}

    rows, bad = compare_results(runs([1.0, 1.0, 1.0]), runs([1.0, 1.01, 0.99]), catalog)
    assert not bad and rows[0]["verdict"] == "unchanged" and rows[0]["digests_equal"]
    _, bad = compare_results(runs([1.0] * 3), runs([1.5] * 3), catalog)
    assert bad
    _, bad = compare_results(runs([1.0] * 3), runs([1.0] * 3, correct=False), catalog)
    assert bad
