"""The host-speed probe that scales measured times."""

import signal
import time

import pytest

import speed


def test_speed_is_reference_over_mean_probe_time():
    assert speed.speed_of([1.0, 3.0], reference=4.0) == pytest.approx(2.0)
    assert speed.speed_of([speed.REFERENCE_PROBE_S] * 3) == pytest.approx(1.0)


def test_probe_samples_a_busy_interval_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(period=0.01)
    probe.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        sum(range(1000))
    probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 5 <= len(probe.samples) <= 31
    assert 0 < probe.spent < 0.3
    assert probe.speed() > 0


def test_burst_speed_is_positive():
    assert speed.burst_speed(0.02) > 0
