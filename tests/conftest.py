"""Shared test configuration.

The tests that start two writer processes against one store file
(``TestConcurrentWriters`` and ``AppendLog``'s two-process append test)
are marked ``slow``; on a single-core runner the writers cannot overlap
and the extra processes only add flaky start-up latency, so tier-1
``pytest -x -q`` skips them there automatically.  Run them explicitly
with ``pytest -m slow`` on a multi-core machine.
"""

import os

import pytest


def _effective_cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


@pytest.fixture(autouse=True)
def _skip_slow_on_single_core(request):
    if request.node.get_closest_marker("slow") and _effective_cpu_count() < 2:
        pytest.skip("multiprocess test skipped on a single-core runner")
