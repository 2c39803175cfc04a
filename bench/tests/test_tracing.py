"""Self-time arithmetic and wrapper installation of the tracer."""

import types

import pytest

from tracing import Probe, Tracer

OUTER = Probe("outer", "a", (), span=True)
INNER = Probe("inner", "b", ())
LEAF = Probe("leaf", "b", ())


def _tracer():
    tracer = Tracer([OUTER, INNER, LEAF])
    tracer.origin = 0.0
    return tracer


def test_nested_children_are_subtracted_once():
    tracer = _tracer()
    outer = tracer.enter(OUTER, 0.0)
    inner = tracer.enter(INNER, 1.0)
    leaf = tracer.enter(LEAF, 2.0)
    tracer.exit(leaf, 2.5)          # leaf 0.5
    tracer.exit(inner, 4.0)         # inner 3.0, self 2.5
    tracer.exit(outer, 10.0)        # outer 10.0, self 7.0
    assert tracer.self_time == {"outer": 7.0, "inner": 2.5, "leaf": 0.5}
    assert tracer.total == {"outer": 10.0, "inner": 3.0, "leaf": 0.5}
    assert tracer.covered == 10.0
    assert tracer.unattributed(12.0) == 2.0
    assert tracer.check_sums(12.0) is None


def test_back_to_back_children_and_two_outermost_calls():
    tracer = _tracer()
    outer = tracer.enter(OUTER, 1.0)
    for start in (2.0, 3.0, 4.0):
        frame = tracer.enter(LEAF, start)
        tracer.exit(frame, start + 0.25)
    tracer.exit(outer, 5.0)
    second = tracer.enter(INNER, 6.0)   # outermost again, no span parent
    tracer.exit(second, 6.5)
    assert tracer.calls == {"outer": 1, "inner": 1, "leaf": 3}
    assert tracer.self_time["outer"] == pytest.approx(4.0 - 0.75)
    assert tracer.covered == pytest.approx(4.5)
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.covered)
    # Folded calls land in their span (leaf) or at the root (inner).
    assert tracer.spans[0]["folded"] == {"leaf": [3, pytest.approx(0.75)]}
    assert tracer.root_folded == {"inner": [1, 0.5]}
    assert tracer.spans[0]["start"] == 1.0 and tracer.spans[0]["end"] == 5.0


def test_spans_nest_and_carry_the_request():
    tracer = _tracer()
    tracer.request = "job-1"
    outer = tracer.enter(OUTER, 0.0)
    child = tracer.enter(OUTER, 1.0)
    tracer.exit(child, 2.0)
    tracer.exit(outer, 3.0)
    first, second = tracer.spans
    assert (first["id"], first["parent"]) == (1, None)
    assert (second["id"], second["parent"]) == (2, 1)
    assert first["request"] == second["request"] == "job-1"
    assert first["self"] == 2.0


def test_check_sums_reports_open_frames_and_overcoverage():
    tracer = _tracer()
    tracer.enter(OUTER, 0.0)
    assert "left open" in tracer.check_sums(1.0)
    tracer = _tracer()
    tracer.exit(tracer.enter(OUTER, 0.0), 5.0)
    assert "cover" in tracer.check_sums(4.0)


class _Base:
    def work(self, x):
        return x + 1


class _Child(_Base):
    def own(self, x):
        return x * 2


def test_install_wraps_and_uninstall_restores(monkeypatch):
    module = types.ModuleType("fake_mod")
    module.helper = lambda x: x - 1
    module.Child = _Child
    monkeypatch.setitem(__import__("sys").modules, "fake_mod", module)
    seen = []
    probes = [
        Probe("helper", "l", (("fake_mod", "helper"),)),
        Probe("work", "l", (("fake_mod", "Child.work"),),
              before=lambda args: args[1], hook=lambda t, a, r, s: seen.append((s, r))),
        Probe("own", "l", (("fake_mod", "Child.own"),)),
    ]
    tracer = Tracer(probes)
    original_helper, original_own = module.helper, _Child.__dict__["own"]
    tracer.install()
    assert module.helper(3) == 2 and _Child().work(1) == 2 and _Child().own(2) == 4
    assert tracer.calls == {"helper": 1, "work": 1, "own": 1}
    assert seen == [(1, 2)]
    tracer.uninstall()
    assert module.helper is original_helper
    assert _Child.__dict__["own"] is original_own
    assert "work" not in _Child.__dict__          # inherited: patch removed again
    assert _Child().work(1) == 2 and tracer.calls["work"] == 1


def test_frames_close_when_the_call_raises(monkeypatch):
    module = types.ModuleType("fake_raise")

    def boom():
        raise ValueError("no")

    module.boom = boom
    monkeypatch.setitem(__import__("sys").modules, "fake_raise", module)
    tracer = Tracer([Probe("boom", "l", (("fake_raise", "boom"),))])
    tracer.install()
    try:
        with pytest.raises(ValueError):
            module.boom()
    finally:
        tracer.uninstall()
    assert tracer.stack == [] and tracer.calls["boom"] == 1
