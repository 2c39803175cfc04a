"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``, never by hand.  The worker imports the program,
generates the seeded inputs and prints ``READY``; the parent times set-up
from spawning the process to that line.  It then probes the host's speed
(``speed.py``) and prints ``SPEED <relative speed>``, which scales that
set-up time.  With ``--setup-only`` it stops there.  Otherwise it runs timed passes of the workload until ``--seconds``
are used (at least two passes), checks the outputs, and prints one JSON
line with its metrics.  An untraced pass runs under a host-speed probe
(``speed.py``).  With ``--trace 1`` passes alternate between untraced and
traced, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from summary import percentile  # noqa: E402
from speed import SpeedProbe, burst_speed  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT = BENCH / "out"
MIN_PASSES = 2
#: Seconds of host-speed probing right after set-up, which scale it.
SETUP_BURST_S = 0.15
#: Largest share of a traced pass the harness itself may take.
MAX_UNATTRIBUTED_PCT = 10.0


class Tally:
    """Benchmark operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failures.extend(failures)


def _run_passes(inputs, seconds, trace, workdir, tally):
    """Timed passes until ``seconds`` are used, at least ``MIN_PASSES``.

    Returns ``(kind, PassResult, layer metrics, layer detail)`` per pass.
    The first pass's outputs are checked; later passes must reproduce its
    digest."""
    tracer = Tracer(layers.PROBES) if trace else None
    kinds = ["plain", "traced"] if trace else ["plain"]
    passes = []
    start = time.perf_counter()
    while True:
        kind = kinds[len(passes) % len(kinds)]
        directory = workdir / f"pass-{len(passes)}"
        metrics = detail = None
        if kind == "traced":
            tracer.reset()
            tracer.install()
            try:
                result = workloads.run_pass(inputs, directory, tracer)
            finally:
                tracer.uninstall()
            problem = tracer.check_sums(result.wall)
            tally.add(1, [] if problem is None else [f"trace arithmetic: {problem}"])
            metrics = layers.layer_metrics(tracer, result.wall)
            detail = {
                "wall_s": result.wall,
                "probes": layers.layer_seconds(tracer),
                "unattributed_s": tracer.unattributed(result.wall),
                "nn_slice_s": layers.slice_seconds(tracer),
                "serve_queue_wait_max_sim_s": result.extra.get("queue_wait_max_sim_s"),
            }
            tracer.write_spans(OUT / f"{inputs['workload']}-trace.jsonl")
        else:
            probe = SpeedProbe()
            result = workloads.run_pass(inputs, directory, probe=probe)
            result.extra["work_s"] = result.wall - probe.spent
            result.extra["speed"] = probe.speed()
        tally.add(result.attempted, result.failures)
        if not passes:
            # Peak memory of set-up plus one pass: later passes would only
            # add whatever the program keeps between runs.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result.extra["peak_rss_mb"] = peak_kib / 1024
            tally.add(*workloads.check_outputs(inputs, result))
        result.service = None
        result.checks = []
        shutil.rmtree(directory, ignore_errors=True)
        passes.append((kind, result, metrics, detail))
        elapsed = time.perf_counter() - start
        upcoming = kinds[len(passes) % len(kinds)]
        same = [r.wall for k, r, _, _ in passes if k == upcoming] or [
            1.5 * max(r.wall for _, r, _, _ in passes)]
        if len(passes) >= MIN_PASSES and elapsed + max(same) > seconds:
            return passes


def _plain_metrics(inputs, passes):
    first = passes[0][1]
    plain = [r for k, r, _, _ in passes if k == "plain"]
    scaled = [r.extra["work_s"] * r.extra["speed"] for r in plain]
    metrics = {
        "ref_wall_s": statistics.median(scaled),
        "tuned_vs_ref": workloads.tuned_vs_ref(first, workloads.reference_seconds(inputs)),
        "measurements": first.measurements,
        "peak_rss_mb": first.extra["peak_rss_mb"],
    }
    extra = {"wall_s": statistics.median(r.extra["work_s"] for r in plain),
             "host_speed": statistics.median(r.extra["speed"] for r in plain),
             "pass_wall_s": [r.extra["work_s"] for r in plain], "pass_ref_wall_s": scaled,
             "tuned_ms": first.tuned_ms, "sim_explore_s": first.sim_explore_s}
    lookups = [ns for k, r, _, _ in passes if k == "plain" for ns in r.lookup_ns]
    if lookups:
        extra.update(
            lookup_p50_us=percentile(lookups, 50) / 1e3,
            lookup_p99_us=percentile(lookups, 99) / 1e3,
            lookup_samples=len(lookups),
        )
    return metrics, extra


def _traced_metrics(workload, passes, tally):
    traced = [(r, m, d) for k, r, m, d in passes if k == "traced"]
    plain_wall = statistics.median(r.extra["work_s"] for k, r, _, _ in passes if k == "plain")
    traced_wall = statistics.median(r.wall for r, _, _ in traced)
    metrics = {
        name: statistics.median(m[name] for _, m, _ in traced) for name in traced[0][1]
    }
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    tally.add(*layers.check_predictions(workload, metrics))
    unattributed = metrics["trace.unattributed_pct"]
    tally.add(1, [] if unattributed <= MAX_UNATTRIBUTED_PCT else [
        f"{workload}: the harness takes {unattributed:.1f}% of the traced wall "
        f"time (limit {MAX_UNATTRIBUTED_PCT}%)"])
    detail = {"plain_wall_s": plain_wall, "traced_passes": [d for _, _, d in traced]}
    slices = [s for d in detail["traced_passes"] for s in d["nn_slice_s"]]
    if slices:
        detail["nn_slice_p50_s"] = percentile(slices, 50)
        detail["nn_slice_p90_s"] = percentile(slices, 90)
    (OUT / f"{workload}-layers.json").write_text(
        json.dumps({"metrics": metrics, "detail": detail}, indent=1) + "\n")
    return metrics, {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed, smoke=args.smoke)
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print("READY", flush=True)
    print(f"SPEED {burst_speed(SETUP_BURST_S)!r}", flush=True)
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    tally = Tally()
    try:
        passes = _run_passes(inputs, args.seconds, bool(args.trace), workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digests = sorted({r.digest for _, r, _, _ in passes})
    tally.add(1, [] if len(digests) == 1 else [f"output digests differ: {digests}"])
    if args.trace:
        metrics, extra = _traced_metrics(args.workload, passes, tally)
    else:
        metrics, extra = _plain_metrics(inputs, passes)
    print(json.dumps({
        "metrics": metrics, "extra": extra, "digest": digests[0], "passes": len(passes),
        "attempted": tally.attempted, "failed": len(tally.failures),
        "failures": tally.failures[:20],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
