"""Per-layer timing from outside the program.

A :class:`Tracer` replaces public functions and methods of ``repro`` with
timing wrappers for the duration of one traced pass and restores the
originals afterwards; no file of the program changes.  Each wrapped call
("probe") either records a span (coarse calls: one ``optimize``, one
scheduler run, one service step) or, for per-point calls that run about
100k times per pass, is folded into its nearest enclosing span as a count
plus seconds, so the trace stays small.

Self time is a call's duration minus the time its wrapped children cover.
Calls nest strictly (one thread), so the self times of every probe plus
the time no probe covers (the harness's own work, ``unattributed``) add up
to the traced wall time exactly; :meth:`Tracer.check_sums` verifies it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Probe:
    """One timed public call: where it lives and how it is recorded.

    ``targets`` are ``(module, attribute path)`` pairs such as
    ``("repro.runtime.measure", "Evaluator.measure")``; every target of a
    probe shares its counters.  ``before(args)`` runs ahead of each call
    and ``hook(tracer, args, result, state)`` after each successful one,
    with ``state`` what ``before`` returned; together they add the
    probe's own counters (rows, bytes, cache hits).
    """

    name: str
    layer: str
    targets: Tuple[Tuple[str, str], ...]
    span: bool = False
    hook: Optional[Callable] = None
    before: Optional[Callable] = None


class _Frame:
    __slots__ = ("probe", "start", "child", "span")

    def __init__(self, probe: Probe, start: float, span: Optional[Dict]):
        self.probe = probe
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Wraps probes, keeps spans in memory and sums self time per probe."""

    def __init__(self, probes: Sequence[Probe]):
        self.probes = list(probes)
        self.request = ""
        self._patches: List[Tuple[object, str, bool, object]] = []
        self.reset()

    # -- state -------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded; the origin of span times is now."""
        self.origin = time.perf_counter()
        self.stack: List[_Frame] = []
        self.spans: List[Dict] = []
        self.root_folded: Dict[str, List[float]] = {}
        self.calls: Dict[str, int] = {p.name: 0 for p in self.probes}
        self.total: Dict[str, float] = {p.name: 0.0 for p in self.probes}
        self.self_time: Dict[str, float] = {p.name: 0.0 for p in self.probes}
        self.covered = 0.0          # summed duration of outermost probe calls
        self.counters: Dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- frame arithmetic ----------------------------------------------------

    def enter(self, probe: Probe, now: float) -> _Frame:
        span = None
        if probe.span:
            parent = self._innermost_span()
            span = {
                "id": len(self.spans) + 1,
                "parent": parent["id"] if parent is not None else None,
                "name": probe.name,
                "layer": probe.layer,
                "start": now - self.origin,
                "end": None,
                "request": self.request,
                "folded": {},
            }
            self.spans.append(span)
        frame = _Frame(probe, now, span)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame, now: float) -> float:
        """Close ``frame`` at ``now``; returns its duration."""
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("trace frames closed out of order")
        duration = now - frame.start
        own = duration - frame.child
        name = frame.probe.name
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += own
        if self.stack:
            self.stack[-1].child += duration
        else:
            self.covered += duration
        if frame.span is not None:
            frame.span["end"] = now - self.origin
            frame.span["self"] = own
        else:
            parent = self._innermost_span()
            folded = parent["folded"] if parent is not None else self.root_folded
            entry = folded.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += duration
        return duration

    def _innermost_span(self) -> Optional[Dict]:
        for frame in reversed(self.stack):
            if frame.span is not None:
                return frame.span
        return None

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, probe: Probe, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(probe, time.perf_counter())
            try:
                state = probe.before(args) if probe.before is not None else None
                result = function(*args, **kwargs)
                if probe.hook is not None:
                    probe.hook(tracer, args, result, state)
                return result
            finally:
                tracer.exit(frame, time.perf_counter())

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            for module_name, path in probe.targets:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                own = attribute in vars(owner)
                original = vars(owner)[attribute] if own else getattr(owner, attribute)
                if not callable(original):
                    raise TypeError(f"{module_name}.{path} is not a plain function")
                self._patches.append((owner, attribute, own, original))
                setattr(owner, attribute, self._wrap(probe, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, own, original = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- results -------------------------------------------------------------

    def unattributed(self, wall: float) -> float:
        """Traced wall time that no probe covers (the harness's own work)."""
        return wall - self.covered

    def check_sums(self, wall: float, rel: float = 1e-9) -> Optional[str]:
        """None if per-probe self times plus ``unattributed`` equal ``wall``
        (and no frame is left open); otherwise what is wrong."""
        if self.stack:
            return f"{len(self.stack)} trace frame(s) left open"
        attributed = sum(self.self_time.values())
        if abs(attributed - self.covered) > rel * max(wall, 1e-12) + 1e-9:
            return (
                f"self times sum to {attributed:.9f} s but outermost calls "
                f"cover {self.covered:.9f} s"
            )
        if self.covered > wall * (1 + rel) + 1e-9:
            return f"probes cover {self.covered:.6f} s of a {wall:.6f} s pass"
        return None

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            if self.root_folded:
                handle.write(json.dumps({
                    "id": 0, "parent": None, "name": "harness", "layer": "harness",
                    "start": 0.0, "end": None, "request": "",
                    "folded": self.root_folded,
                }) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
