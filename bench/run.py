"""FlexTensor reproduction benchmark: tuning quality, search cost, host time.

Run every workload once, untraced, and print each end-to-end metric:

    python3 bench/run.py

One workload, a given seed and measuring time, per-layer metrics instead:

    python3 bench/run.py --workload op_search --seed 3 --seconds 20 --trace 1

Several alternating runs of every workload, saved for a later comparison:

    python3 bench/run.py --repeat 3 --out bench/out/before.json
    python3 bench/run.py compare bench/out/before.json bench/out/after.json

Each run starts fresh worker processes (``worker.py``): four that only set
up, whose spawn-to-ready times and the working process's give ``setup_s``,
then the one that measures.  Times are scaled to a reference host speed
(``speed.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is nonzero when any output check failed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from layers import WORKLOADS, per_layer_catalog  # noqa: E402
from summary import compare_results, quartiles, spread  # noqa: E402

SETUP_PROBES = 4
#: Seconds a set-up probe may take, and a measuring worker beyond its
#: measuring time, before it is killed; together they keep one run well
#: inside three minutes.
SETUP_LIMIT = 30.0
WORKER_GRACE = 60.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker_env() -> dict:
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    # One process drives the load; keep numpy's BLAS on one thread too.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class WorkerError(RuntimeError):
    pass


def _worker(argv, limit: float):
    """Spawn a worker; returns (seconds from spawn to READY, the host speed
    the worker probed right after, its stdout after that)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_worker_env(),
    )
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        probed = proc.stdout.readline().split()
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "READY" or probed[:1] != ["SPEED"] or proc.returncode != 0:
        raise WorkerError(
            f"worker {' '.join(argv)} exited with code {proc.returncode} "
            f"(limit {limit:.0f} s)")
    return ready, float(probed[1]), rest


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run of one workload: set-up probes, then the measuring
    worker.  Raises :class:`WorkerError` when a worker fails."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    setups, speeds = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            ready, host_speed, _ = _worker(argv + ["--setup-only"], SETUP_LIMIT)
            setups.append(ready)
            speeds.append(host_speed)
    ready, host_speed, rest = _worker(argv, seconds + WORKER_GRACE)
    setups.append(ready)
    speeds.append(host_speed)
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker for {workload} printed no result")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(
            s * v for s, v in zip(setups, speeds))
        result["extra"]["setup_samples_s"] = setups
        result["extra"]["setup_wall_s"] = statistics.median(setups)
    result["correct"] = result["failed"] == 0
    return result


def _catalog(trace: bool) -> list:
    return per_layer_catalog() if trace else _spec()["end_to_end"]


def _print_run(workload: str, result: dict, catalog: list) -> None:
    for entry in catalog:
        value = result["metrics"][entry["name"]]
        print(f"{workload:<12} {entry['name']:<36} {value:>14.6g} {entry['unit']}")
    for name, value in sorted(result["extra"].items()):
        if isinstance(value, (int, float)):
            print(f"{workload:<12} {name:<36} {value:>14.6g}")
    print(f"{workload:<12} digest {result['digest']}  passes {result['passes']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for failure in result["failures"]:
        print(f"{workload:<12} FAILED: {failure}")


def _zero_everywhere(results: dict) -> list:
    """Per-layer metrics that read 0 on every workload (a field that never
    reports anything)."""
    names = [e["name"] for e in per_layer_catalog() if e["name"] != "trace.overhead_frac"]
    return [
        name for name in names
        if all(statistics.median(r["metrics"][name] for r in runs) == 0
               for runs in results.values())
    ]


def run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    catalog = _catalog(bool(args.trace))
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    results = {w: [] for w in chosen}
    for repetition in range(args.repeat):
        order = chosen if repetition % 2 == 0 else chosen[::-1]
        for workload in order:
            try:
                result = run_one(workload, args.seed, seconds, bool(args.trace), args.smoke)
            except WorkerError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            results[workload].append(result)
            _print_run(workload, result, catalog)
    runs = [r for rs in results.values() for r in rs]
    correct = all(r["correct"] for r in runs)
    if args.trace and len(chosen) == len(WORKLOADS):
        silent = _zero_everywhere(results)
        for name in silent:
            print(f"FAILED: per-layer metric {name} is 0 on every workload")
        correct = correct and not silent
    OUT.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else OUT / "results.json"
    out.write_text(json.dumps({
        "seed": args.seed, "seconds": seconds, "trace": args.trace, "smoke": args.smoke,
        "workloads": {w: {"runs": rs} for w, rs in results.items()},
    }, indent=1) + "\n")
    if len(runs) > 1:
        print(f"# medians [quartiles] over {args.repeat} run(s); results in {out}")
        for workload, rs in results.items():
            for entry in catalog:
                values = [r["metrics"][entry["name"]] for r in rs]
                q1, med, q3 = quartiles(values)
                print(f"{workload:<12} {entry['name']:<36} {med:>14.6g} "
                      f"[{q1:.6g}, {q3:.6g}] spread {spread(values):.3%}")
    if len(runs) == 1:
        metrics = {
            e["name"]: {"value": runs[0]["metrics"][e["name"]], "unit": e["unit"]}
            for e in catalog
        }
    else:
        metrics = {
            f"{w}.{e['name']}": {
                "value": statistics.median(r["metrics"][e["name"]] for r in rs),
                "unit": e["unit"],
            }
            for w, rs in results.items() for e in catalog
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def compare(before_path: str, after_path: str) -> int:
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    catalog = _spec()["end_to_end"]
    rows, bad = compare_results(before, after, catalog)
    print(f"{'workload':<12} {'metric':<14} {'before median [q1, q3]':>34} "
          f"{'after median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for row in rows:
        b1, bm, b3 = row["before"]
        a1, am, a3 = row["after"]
        same = " identical" if row["identical"] else ""
        print(f"{row['workload']:<12} {row['metric']:<14} "
              f"{bm:>12.6g} [{b1:.6g}, {b3:.6g}] {am:>12.6g} [{a1:.6g}, {a3:.6g}] "
              f"{row['change']:>+8.2%} {row['bound']:>6.1%}  {row['verdict']}{same}")
    for workload in sorted({row["workload"] for row in rows}):
        equal = all(r["digests_equal"] for r in rows if r["workload"] == workload)
        print(f"{workload:<12} output digests {'identical' if equal else 'DIFFER'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare",
                                         description="compare two results files")
        parser.add_argument("before")
        parser.add_argument("after")
        args = parser.parse_args(argv[1:])
        return compare(args.before, args.after)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, alternating the workload order")
    parser.add_argument("--out", help="results file (default bench/out/results.json)")
    parser.add_argument("--smoke", action="store_true", help="toy sizes (tests)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
