"""Benchmark for the multi-tenant tuning service (``repro.serve``).

Not a pytest test — run it directly after a change to the service:

    PYTHONPATH=src python benchmarks/bench_serve.py

Three sections:

* **Lookup QPS** — sustained ``lookup(op, shape, device)`` rate against
  a warm RecordBook, measured in wall-clock time (the read path is the
  one latency-sensitive surface; everything else runs on the simulated
  clock).
* **Concurrent-job throughput** — four jobs from two tenants (each
  tenant pair tunes the same workload) run through one shared service
  store versus the same four jobs as independent serial ``optimize()``
  runs.  The service interleaves slices over one shared EvalCache, so
  overlapping tenants stop paying for duplicate measurements; the
  speedup below is simulated measurement seconds saved, the Figure 6d/7
  quantity.
* **Crash-recovery parity** — the kill-and-restart drill of
  ``test_daemon_kill_recovery_is_bit_identical`` inline: a
  scripted daemon kill in the checkpoint-ahead-of-WAL commit window,
  restart, and a bit-identical comparison of every job's outcome
  against an uninterrupted reference run.

Results land in ``BENCH_serve.json`` at the repo root, including the
acceptance booleans:

* warm lookups sustain >= 2000 QPS,
* the shared service store beats the serial sum by >= 1.5x simulated
  seconds on the overlapping-tenant job set, and
* the killed-and-restarted service reaches bit-identical outcomes
  (state, trials, best point, best GFLOPS, measurement count per job).
"""

import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.model import V100                                   # noqa: E402
from repro.ops import conv2d_compute, gemm_compute             # noqa: E402
from repro.optimize import optimize                            # noqa: E402
from repro.serve import (                                      # noqa: E402
    DaemonKilled,
    ServeChaos,
    ServeConfig,
    TuningService,
)

SEED = 0
TRIALS = 6
SLICE_TRIALS = 2
LOOKUP_ROUNDS = 20_000

GEMM = {"n": 64, "k": 64, "m": 64}
CONV = {"batch": 1, "in_channel": 8, "height": 8, "width": 8,
        "out_channel": 8, "kernel": 3, "padding": 1}

#: (tenant, operator, params, method) — both tenants tune both
#: workloads with the same seed, so a shared store dedups half the
#: measurement bill while separate serial runs pay it twice.
JOB_SET = [
    ("alice", "gemm", GEMM, "q"),
    ("bob", "gemm", GEMM, "q"),
    ("alice", "conv2d", CONV, "q"),
    ("bob", "conv2d", CONV, "q"),
]

BUILDERS = {"gemm": gemm_compute, "conv2d": conv2d_compute}


def submit_job_set(service):
    for tenant, operator, params, method in JOB_SET:
        service.submit(tenant, operator, params, "V100",
                       trials=TRIALS, seed=SEED, method=method)


def outcomes(service):
    return {
        job.job_id: (job.state.value, job.trials_done, job.best_gflops,
                     job.best_point, job.num_measurements)
        for job in service.store.jobs.values()
    }


def bench_service(store_dir, chaos=None):
    service = TuningService(store_dir, ServeConfig(slice_trials=SLICE_TRIALS),
                            chaos=chaos)
    submit_job_set(service)
    start = time.perf_counter()
    service.run()
    wall = time.perf_counter() - start
    return service, wall


def main():
    payload = {
        "benchmark": "bench_serve",
        "trials": TRIALS,
        "slice_trials": SLICE_TRIALS,
        "seed": SEED,
        "jobs": len(JOB_SET),
        "tenants": len({tenant for tenant, *_ in JOB_SET}),
    }

    # -- concurrent-job throughput: shared store vs serial sum -------------
    print("== concurrent-job throughput ==")
    serial_sim = 0.0
    serial_wall = 0.0
    for _, operator, params, method in JOB_SET:
        start = time.perf_counter()
        result = optimize(BUILDERS[operator](**params), V100, trials=TRIALS,
                          seed=SEED, method=method)
        serial_wall += time.perf_counter() - start
        serial_sim += result.tuning.exploration_seconds

    with tempfile.TemporaryDirectory() as store:
        service, service_wall = bench_service(Path(store) / "svc")
        stats = service.stats()
        done = outcomes(service)
        service_sim = service.clock
        sim_speedup = serial_sim / service_sim if service_sim else 0.0
        payload["throughput"] = {
            "serial_simulated_seconds": serial_sim,
            "service_simulated_seconds": service_sim,
            "simulated_speedup": sim_speedup,
            "serial_wall_seconds": serial_wall,
            "service_wall_seconds": service_wall,
            "slices_run": stats["slices_run"],
            "jobs_done": sum(1 for state, *_ in done.values() if state == "done"),
            "jobs_per_simulated_kilosecond": (
                1000.0 * len(JOB_SET) / service_sim if service_sim else 0.0
            ),
            "max_queue_wait": stats["max_queue_wait"],
        }
        print(f"  serial  : {serial_sim:8.1f} sim-s for {len(JOB_SET)} jobs")
        print(f"  service : {service_sim:8.1f} sim-s "
              f"({stats['slices_run']} slices, "
              f"max queue wait {stats['max_queue_wait']:.1f} sim-s)")
        print(f"  speedup : {sim_speedup:.2f}x simulated "
              f"(shared EvalCache dedups overlapping tenants)")

        # -- lookup QPS against the warm RecordBook ------------------------
        print("== lookup QPS (warm record book) ==")
        start = time.perf_counter()
        hits = 0
        for i in range(LOOKUP_ROUNDS):
            _, operator, params, _ = JOB_SET[i % len(JOB_SET)]
            if service.lookup(operator, params, "V100") is not None:
                hits += 1
        lookup_wall = time.perf_counter() - start
        lookup_qps = LOOKUP_ROUNDS / lookup_wall if lookup_wall else 0.0
        payload["lookups"] = {
            "rounds": LOOKUP_ROUNDS,
            "hits": hits,
            "hit_rate": hits / LOOKUP_ROUNDS,
            "wall_seconds": lookup_wall,
            "qps": lookup_qps,
        }
        print(f"  {LOOKUP_ROUNDS} lookups in {lookup_wall:.2f}s wall = "
              f"{lookup_qps:,.0f} QPS ({hits / LOOKUP_ROUNDS:.0%} hits)")

    # -- crash-recovery parity ---------------------------------------------
    print("== crash-recovery parity (commit-window kill) ==")
    with tempfile.TemporaryDirectory() as store:
        reference, _ = bench_service(Path(store) / "ref")
        expected = outcomes(reference)
    with tempfile.TemporaryDirectory() as store:
        killed = False
        try:
            bench_service(Path(store) / "chaos", chaos=ServeChaos(kill_at_slice=3))
        except DaemonKilled:
            killed = True
        restarted = TuningService(Path(store) / "chaos",
                                  ServeConfig(slice_trials=SLICE_TRIALS))
        recovered = list(restarted.recovered_jobs)
        restarted.run()
        parity = killed and outcomes(restarted) == expected
    payload["crash_recovery"] = {
        "daemon_killed": killed,
        "recovered_in_flight": recovered,
        "parity": parity,
    }
    print(f"  killed mid-run, recovered {len(recovered)} in-flight job(s), "
          f"bit-identical outcomes: {parity}")

    payload["criteria"] = {
        "lookup_qps": lookup_qps,
        "lookup_qps_ge_2000": lookup_qps >= 2000.0,
        "service_simulated_speedup": sim_speedup,
        "service_speedup_ge_1p5x": sim_speedup >= 1.5,
        "crash_recovery_parity": parity,
    }

    out = REPO_ROOT / "BENCH_serve.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    for key, value in payload["criteria"].items():
        print(f"  {key}: {value}")
    return 0 if all(
        v for k, v in payload["criteria"].items() if isinstance(v, bool)
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
