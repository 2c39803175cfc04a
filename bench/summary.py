"""Order statistics and the comparison of two sets of benchmark runs."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolating linearly between the
    closest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(before: float, after: float, better: str) -> float:
    """How much ``after`` is worse than ``before``, as a share of ``before``
    (negative when it is better)."""
    if before == 0:
        return 0.0 if after == before else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def compare_metric(before: Sequence[float], after: Sequence[float], better: str,
                   bound: float) -> Dict:
    """Classify one metric of one workload between two sets of runs.

    ``regressed`` when the medians differ by more than ``bound`` in the
    worse direction, ``improved`` when by more than ``bound`` in the better
    one, else ``unchanged`` — unless either side's own spread exceeds the
    bound, which makes the verdict ``unresolved``: such a metric cannot
    tell a change within its bound from noise.  Every run of one side
    beating every run of the other still decides the verdict.
    """
    b1, b_med, b3 = quartiles(before)
    a1, a_med, a3 = quartiles(after)
    change = worse_by(b_med, a_med, better)
    noisy = max(spread(before), spread(after)) > bound
    if better == "lower":
        all_better, all_worse = max(after) < min(before), min(after) > max(before)
    else:
        all_better, all_worse = min(after) > max(before), max(after) < min(before)
    if change > bound and (not noisy or all_worse):
        verdict = "regressed"
    elif -change > bound and (not noisy or all_better):
        verdict = "improved"
    elif noisy:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "before": (b1, b_med, b3), "after": (a1, a_med, a3), "change": change,
        "identical": list(before) == list(after), "verdict": verdict,
    }


def compare_results(before: Dict, after: Dict, catalog: List[Dict]) -> Tuple[List[Dict], bool]:
    """Compare two results files (``run.py --out``) metric by metric.

    Returns one row per (workload, metric) present in both files and
    whether any metric regressed or any run failed its checks.
    """
    rows = []
    bad = False
    for workload in sorted(set(before["workloads"]) & set(after["workloads"])):
        runs_b = before["workloads"][workload]["runs"]
        runs_a = after["workloads"][workload]["runs"]
        if not all(r["correct"] for r in runs_b + runs_a):
            bad = True
        digests = {r.get("digest") for r in runs_b + runs_a}
        for entry in catalog:
            name = entry["name"]
            values_b = [r["metrics"][name] for r in runs_b if name in r["metrics"]]
            values_a = [r["metrics"][name] for r in runs_a if name in r["metrics"]]
            if not values_b or not values_a:
                continue
            row = compare_metric(values_b, values_a, entry["better"], entry["bound"])
            row.update(workload=workload, metric=name, unit=entry["unit"],
                       bound=entry["bound"], digests_equal=len(digests) == 1)
            bad = bad or row["verdict"] == "regressed"
            rows.append(row)
    return rows, bad
