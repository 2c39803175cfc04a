"""Shared helpers for the figure/table reproduction benchmarks.

Every benchmark prints the rows/series of the paper artifact it
regenerates and saves the raw numbers to ``benchmarks/results/<name>.json``
so EXPERIMENTS.md can be refreshed from a run.  The figures are seeded, so
a rerun must reproduce the committed file: :func:`save_results` fails the
test, naming every value that moved, when it does not.
"""

import json
import math
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _drift(old, new, path="$"):
    """Key paths at which two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key in old and key in new:
                yield from _drift(old[key], new[key], f"{path}.{key}")
            else:
                yield f"{path}.{key}"
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (a, b) in enumerate(zip(old, new)):
            yield from _drift(a, b, f"{path}[{index}]")
    elif json.dumps(old) != json.dumps(new):
        yield path


def save_results(name: str, payload) -> None:
    """Write ``results/<name>.json``; fail naming each key path whose
    value differs from the file it overwrites.  The new file is written
    either way, so the next run passes and ``git diff`` shows the drift."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    text = json.dumps(payload, indent=2, default=str)
    drifted = []
    if path.exists():
        try:
            drifted = list(_drift(json.loads(path.read_text()), json.loads(text)))
        except ValueError:
            drifted = ["$ (the committed file is not JSON)"]
    path.write_text(text)
    if drifted:
        pytest.fail(f"{path.name} differs from the file it overwrote at "
                    f"{len(drifted)} key path(s): {', '.join(drifted)}")


def print_table(title: str, headers, rows) -> None:
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def once(benchmark, fn):
    """Run a reproduction exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


class _RunOnce:
    """The part of pytest-benchmark's ``benchmark`` fixture these tests
    use, without timing: ``pedantic`` calls ``fn`` once."""

    @staticmethod
    def pedantic(fn, rounds=1, iterations=1):
        return fn()


class _BenchmarkFallback:
    @pytest.fixture
    def benchmark(self):
        return _RunOnce()


def pytest_configure(config):
    # CI installs no pytest-benchmark (and ``-p no:benchmark`` turns it
    # off); the paper-figure tests then run through the plain fixture.
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_BenchmarkFallback(), "benchmark-fallback")


@pytest.fixture
def results_saver():
    return save_results
