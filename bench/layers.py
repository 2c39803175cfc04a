"""The layers the benchmark times, the metrics it derives, and what it predicts.

``PROBES`` lists the public calls wrapped in a traced pass, one probe per
timed call, grouped into the package's layers.  ``layer_metrics`` turns a
traced pass into the per-layer metrics of ``BENCHMARK.json``:

* ``<probe>_pct`` — the probe's self time as a share of the traced pass's
  wall time.  Together with ``trace.unattributed_pct`` they add up to 100.
  Shares, not seconds, because a bypassed layer's time is exactly zero on
  every run; the seconds are written to ``bench/out/<workload>-layers.json``.
* counts of work done (calls, rows, bytes) and ratios of useful outcomes.

``PREDICTIONS`` encodes, per workload, which layers must be exercised and
which must be bypassed; a traced run fails when one breaks.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

from tracing import Probe, Tracer


def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _batch(tracer, args, result, cached_before):
    engine, points = args[0], args[1]
    tracer.count("runtime.parallel.points", len(points))
    tracer.count("runtime.parallel.cached", engine.num_cached - cached_before)


def _measure(tracer, args, result, state):
    if not result.status.ok:
        tracer.count("runtime.measure.failed")


def _optimize(tracer, args, result, state):
    lowering = result.tuning.lowering or {}
    tracer.count("schedule.memo_hits", lowering.get("hits", 0))
    tracer.count("schedule.memo_misses", lowering.get("misses", 0))


def _screen(tracer, args, decision, state):
    tracer.count("explore.surrogate.submitted", len(args[1]))
    tracer.count("explore.surrogate.forwarded", len(decision.forward))


def _fit(tracer, args, result, state):
    tracer.count("learn.fit_rows", len(args[1]))


def _features(tracer, args, result, state):
    tracer.count("codegen.features_rows", len(result) if result.ndim > 1 else 1)


def _cache_load(tracer, args, result, state):
    cache = args[0]
    if cache.path is not None:
        tracer.count("runtime.cache.loads")
        tracer.count("runtime.cache.bytes", _size(cache.path))


def _saved(tracer, args, result, state):
    tracer.count("runtime.checkpoint.bytes_written", _size(args[0]))


def _loaded(tracer, args, result, state):
    tracer.count("runtime.checkpoint.bytes_read", _size(args[0]))


def _file_before(args):
    return _size(args[0].path) if args[0].path is not None else 0


def _record_added(tracer, args, result, size_before):
    if args[0].path is not None:
        tracer.count("runtime.records.bytes", _size(args[0].path) - size_before)


def _wal(tracer, args, result, size_before):
    tracer.count("serve.wal_bytes", _size(args[0].path) - size_before)


def _slices(tracer, args, result, state):
    if result is not None:     # NetworkTaskScheduler.__init__ returns None
        tracer.count("nn.slices", result.slices_run)


def _step(tracer, args, job_id, state):
    """Count a step that ran a slice; stamp its span, and every span
    inside it, with its job."""
    if job_id is not None:
        tracer.count("serve.steps")
    span = tracer.stack[-1].span
    for inner in reversed(tracer.spans):
        if inner["id"] < span["id"]:
            break
        inner["request"] = job_id or ""


_CHECKPOINT_MODULES = ("repro.explore.tuner", "repro.nn.tuner")

PROBES: List[Probe] = [
    Probe("optimize.self", "optimize", (("repro.optimize", "optimize"),),
          span=True, hook=_optimize),
    Probe("space.build", "space", (("repro.optimize.api", "build_space"),), span=True),
    Probe("explore.tune_self", "explore", (("repro.explore.tuner", "BaseTuner.tune"),),
          span=True),
    Probe("explore.choose", "explore", (
        ("repro.explore.qlearning", "QAgent.choose_direction"),
        ("repro.explore.qlearning", "QAgent.choose_directions"))),
    Probe("explore.train", "explore", (("repro.explore.qlearning", "QAgent.end_trial"),)),
    Probe("explore.sa", "explore", (("repro.explore.tuner", "select_starting_points"),)),
    Probe("explore.surrogate.refit", "explore.surrogate",
          (("repro.explore.surrogate", "SurrogateScreen.refit"),)),
    Probe("explore.surrogate.predict", "explore.surrogate",
          (("repro.explore.surrogate", "SurrogateScreen.predict"),)),
    Probe("explore.surrogate.screen", "explore.surrogate",
          (("repro.explore.surrogate", "SurrogateScreen.screen"),), hook=_screen),
    Probe("learn.fit", "learn", (("repro.learn.gbt", "GradientBoostedTrees.fit"),),
          hook=_fit),
    Probe("learn.predict", "learn", (("repro.learn.gbt", "GradientBoostedTrees.predict"),)),
    Probe("codegen.features", "codegen", (
        ("repro.explore.surrogate", "batch_point_features"),
        ("repro.explore.surrogate", "point_features")), hook=_features),
    Probe("schedule.lower", "schedule", (("repro.runtime.measure", "Evaluator.lower_point"),)),
    Probe("model.estimate", "model", (
        ("repro.model.gpu", "GpuModel.estimate_seconds"),
        ("repro.model.cpu", "CpuModel.estimate_seconds"),
        ("repro.model.fpga", "FpgaModel.estimate_seconds"))),
    Probe("runtime.measure.self", "runtime.measure",
          (("repro.runtime.measure", "Evaluator.measure"),), hook=_measure),
    Probe("runtime.parallel.self", "runtime.parallel",
          (("repro.runtime.parallel", "BatchEngine.evaluate_batch"),),
          hook=_batch, before=lambda args: args[0].num_cached),
    Probe("runtime.cache.load", "runtime.cache",
          (("repro.runtime.cache", "EvalCache.__init__"),), hook=_cache_load),
    Probe("runtime.cache.get", "runtime.cache", (("repro.runtime.cache", "EvalCache.get"),)),
    Probe("runtime.cache.put", "runtime.cache", (("repro.runtime.cache", "EvalCache.put"),)),
    Probe("runtime.checkpoint.save", "runtime.checkpoint",
          tuple((m, "save_checkpoint") for m in _CHECKPOINT_MODULES), hook=_saved),
    Probe("runtime.checkpoint.load", "runtime.checkpoint",
          tuple((m, "load_checkpoint") for m in _CHECKPOINT_MODULES), hook=_loaded),
    Probe("runtime.records.add", "runtime.records",
          (("repro.runtime.records", "RecordBook.add"),),
          hook=_record_added, before=_file_before),
    Probe("runtime.records.best", "runtime.records", (
        ("repro.runtime.records", "RecordBook.best"),
        ("repro.runtime.records", "RecordBook.best_for_signature"))),
    Probe("nn.self", "nn", (
        ("repro.nn.tuner", "NetworkTaskScheduler.__init__"),
        ("repro.nn.tuner", "NetworkTaskScheduler.run")), span=True, hook=_slices),
    Probe("serve.step_self", "serve", (("repro.serve.service", "TuningService.step"),),
          span=True, hook=_step),
    Probe("serve.wal", "serve", (("repro.serve.jobstore", "JobStore.transition"),),
          hook=_wal, before=_file_before),
    Probe("serve.lookup", "serve", (("repro.serve.service", "TuningService.lookup"),)),
]

#: Per-layer metrics other than the ``_pct`` shares: (name, unit, better).
COUNTS = [
    ("optimize.calls", "count", "lower"),
    ("space.build_calls", "count", "lower"),
    ("explore.choose_calls", "count", "lower"),
    ("explore.surrogate.refits", "count", "lower"),
    ("explore.surrogate.measured_frac", "ratio", "lower"),
    ("learn.fit_rows", "count", "lower"),
    ("codegen.features_rows", "count", "lower"),
    ("schedule.lower_calls", "count", "lower"),
    ("schedule.memo_hit_rate", "ratio", "higher"),
    ("model.calls", "count", "lower"),
    ("runtime.measure.calls", "count", "lower"),
    ("runtime.measure.failed_frac", "ratio", "lower"),
    ("runtime.parallel.batches", "count", "lower"),
    ("runtime.parallel.points", "count", "lower"),
    ("runtime.parallel.cache_hit_frac", "ratio", "higher"),
    ("runtime.cache.loads", "count", "lower"),
    ("runtime.cache.bytes", "B", "lower"),
    ("runtime.checkpoint.saves", "count", "lower"),
    ("runtime.checkpoint.bytes_written", "B", "lower"),
    ("runtime.checkpoint.loads", "count", "lower"),
    ("runtime.checkpoint.bytes_read", "B", "lower"),
    ("runtime.records.adds", "count", "lower"),
    ("runtime.records.bytes", "B", "lower"),
    ("nn.slices", "count", "lower"),
    ("serve.steps", "count", "lower"),
    ("serve.wal_appends", "count", "lower"),
    ("serve.wal_bytes", "B", "lower"),
    ("serve.lookups", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def per_layer_catalog() -> List[Dict]:
    """Every per-layer metric as it appears in ``BENCHMARK.json``."""
    shares = [
        {"name": f"{probe.name}_pct", "unit": "%", "better": "lower"} for probe in PROBES
    ]
    shares.append({"name": "trace.unattributed_pct", "unit": "%", "better": "lower"})
    return shares + [{"name": n, "unit": u, "better": b} for n, u, b in COUNTS]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass of ``wall`` seconds."""
    calls, c = tracer.calls, tracer.counters
    out = {f"{p.name}_pct": 100.0 * tracer.self_time[p.name] / wall for p in PROBES}
    out["trace.unattributed_pct"] = 100.0 * tracer.unattributed(wall) / wall
    measures = calls["runtime.measure.self"]
    out.update({
        "optimize.calls": calls["optimize.self"],
        "space.build_calls": calls["space.build"],
        "explore.choose_calls": calls["explore.choose"],
        "explore.surrogate.refits": calls["explore.surrogate.refit"],
        "explore.surrogate.measured_frac": _ratio(
            c.get("explore.surrogate.forwarded", 0), c.get("explore.surrogate.submitted", 0)),
        "learn.fit_rows": c.get("learn.fit_rows", 0),
        "codegen.features_rows": c.get("codegen.features_rows", 0),
        "schedule.lower_calls": calls["schedule.lower"],
        "schedule.memo_hit_rate": _ratio(
            c.get("schedule.memo_hits", 0),
            c.get("schedule.memo_hits", 0) + c.get("schedule.memo_misses", 0)),
        "model.calls": calls["model.estimate"],
        "runtime.measure.calls": measures,
        "runtime.measure.failed_frac": _ratio(c.get("runtime.measure.failed", 0), measures),
        "runtime.parallel.batches": calls["runtime.parallel.self"],
        "runtime.parallel.points": c.get("runtime.parallel.points", 0),
        "runtime.parallel.cache_hit_frac": _ratio(
            c.get("runtime.parallel.cached", 0), c.get("runtime.parallel.points", 0)),
        "runtime.cache.loads": c.get("runtime.cache.loads", 0),
        "runtime.cache.bytes": c.get("runtime.cache.bytes", 0),
        "runtime.checkpoint.saves": calls["runtime.checkpoint.save"],
        "runtime.checkpoint.bytes_written": c.get("runtime.checkpoint.bytes_written", 0),
        "runtime.checkpoint.loads": calls["runtime.checkpoint.load"],
        "runtime.checkpoint.bytes_read": c.get("runtime.checkpoint.bytes_read", 0),
        "runtime.records.adds": calls["runtime.records.add"],
        "runtime.records.bytes": c.get("runtime.records.bytes", 0),
        "nn.slices": c.get("nn.slices", 0),
        "serve.steps": c.get("serve.steps", 0),
        "serve.wal_appends": calls["serve.wal"],
        "serve.wal_bytes": c.get("serve.wal_bytes", 0),
        "serve.lookups": calls["serve.lookup"],
    })
    return out


def layer_seconds(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Calls, total and self seconds per probe (the detail behind the shares)."""
    return {
        p.name: {"calls": tracer.calls[p.name], "total_s": tracer.total[p.name],
                 "self_s": tracer.self_time[p.name]}
        for p in PROBES
    }


def slice_seconds(tracer: Tracer) -> List[float]:
    """Durations of the ``optimize`` slices the network scheduler ran."""
    nn_ids = {s["id"] for s in tracer.spans if s["layer"] == "nn"}
    return [s["end"] - s["start"] for s in tracer.spans
            if s["name"] == "optimize.self" and s["parent"] in nn_ids]


_ALWAYS = ["optimize.calls", "space.build_calls", "explore.choose_calls",
           "schedule.lower_calls", "model.calls", "runtime.measure.calls",
           "runtime.parallel.batches"]
_SURROGATE = ["explore.surrogate.refits", "learn.fit_rows", "codegen.features_rows"]
_STORE = ["runtime.cache.loads", "runtime.checkpoint.saves", "runtime.checkpoint.loads",
          "runtime.records.adds"]

#: Per workload: counts that must be > 0 ("exercised") and == 0 ("bypassed").
PREDICTIONS: Dict[str, Dict[str, List[str]]] = {
    "op_search": {
        "exercised": _ALWAYS,
        "bypassed": _SURROGATE + _STORE + ["nn.slices", "serve.steps"],
    },
    "op_screened": {
        "exercised": _ALWAYS + _SURROGATE,
        "bypassed": _STORE + ["nn.slices", "serve.steps"],
    },
    "net_sliced": {
        "exercised": _ALWAYS + _STORE + ["nn.slices"],
        "bypassed": _SURROGATE + ["serve.steps", "serve.lookups"],
    },
    "serve_mixed": {
        "exercised": _ALWAYS + _STORE + ["serve.steps", "serve.wal_appends",
                                         "serve.lookups"],
        "bypassed": _SURROGATE + ["nn.slices"],
    },
}


WORKLOADS = tuple(PREDICTIONS)


def check_predictions(workload: str, metrics: Dict[str, float]) -> Tuple[int, List[str]]:
    """The number of predictions checked and one message per broken one."""
    failures = []
    expected = PREDICTIONS[workload]
    checked = len(expected["exercised"]) + len(expected["bypassed"])
    for name in expected["exercised"]:
        if not metrics[name] > 0:
            failures.append(f"{workload}: {name} = {metrics[name]} but should be exercised")
    for name in expected["bypassed"]:
        if metrics[name] != 0:
            failures.append(f"{workload}: {name} = {metrics[name]} but should be bypassed")
    if workload == "serve_mixed":
        checked += 1
        if metrics["runtime.cache.loads"] != metrics["serve.steps"]:
            failures.append(
                f"serve_mixed: {metrics['runtime.cache.loads']} cache loads for "
                f"{metrics['serve.steps']} slices; every slice should reopen the cache")
    return checked, failures
