"""Command-line interface: tune an operator without writing code.

Examples::

    python -m repro conv2d --device V100 --in-channel 256 --out-channel 512 \
        --size 28 --kernel 3 --trials 40
    python -m repro gemm --device XeonE5-2699v4 --n 1024 --k 1024 --m 1024
    python -m repro conv2d --device VU9P --size 14 --save tuned.json
    python -m repro conv2d --trials 200 --checkpoint run.ckpt --resume
    python -m repro gemm --workers 4 --cache-dir ~/.repro-cache
    python -m repro gemm --lint --prune-space
    python -m repro gemm --surrogate --screen-ratio 0.15
    python -m repro lint --device V100 --sample 400
    python -m repro lint --target cpu --sample 200
    python -m repro gemm --tensorize --device XeonE5-2699v4
    python -m repro submit --store /tmp/svc --tenant alice --op gemm --n 256
    python -m repro serve --store /tmp/svc
    python -m repro status --store /tmp/svc
    python -m repro lookup --store /tmp/svc --op gemm --n 256 --enqueue
    python -m repro tune-network --network yolo-v1 --store /tmp/svc --trials 25
    python -m repro tune-network --network overfeat --uniform

Exit codes: 0 on success; nonzero on any failure (no schedule found, a
rejected submission, a lookup miss, a missing service store, or a serve
pass that left jobs failed or quarantined); 2 on a usage error.

End-to-end properties (fault-injected tunes, service crash recovery,
lint soundness, tensorize parity, surrogate rank quality) are checked by
the test suite; README.md gives the ``python -m pytest`` selection for
each.
"""

from __future__ import annotations

import argparse
import sys

from . import optimize
from .model import DEVICES
from .ops import conv2d_compute, gemm_compute, gemm_int8_compute, gemv_compute
from .runtime import EvalCache
from .utils import save_schedule


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlexTensor reproduction: tune a tensor operator for a "
                    "simulated device.",
    )
    parser.add_argument("operator",
                        choices=["conv2d", "gemm", "gemv", "lint", "serve",
                                 "submit", "status", "lookup", "tune-network"])
    parser.add_argument("--device", default="V100", choices=sorted(DEVICES))
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--method", default="q",
                        choices=["q", "p", "random-walk", "random-sample"])
    parser.add_argument("--save", help="write the tuned schedule to a JSON file")
    parser.add_argument("--show-code", action="store_true",
                        help="print the generated Python kernel")
    parser.add_argument("--checkpoint",
                        help="JSONL checkpoint file for crash-safe tuning")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the newest checkpoint snapshot")
    parser.add_argument("--workers", type=int, default=1,
                        help="simulated measurement workers: batches are "
                             "billed by greedy list scheduling over this "
                             "many devices (every value is seeded and "
                             "bit-reproducible)")
    parser.add_argument("--cache-dir",
                        help="directory of the persistent cross-run "
                             "evaluation cache")
    parser.add_argument("--lint", action="store_true",
                        help="statically reject illegal points at zero "
                             "measurement cost")
    parser.add_argument("--prune-space", action="store_true",
                        help="drop knob values that alone violate a device "
                             "limit before tuning starts")
    parser.add_argument("--surrogate", action="store_true",
                        help="screen candidates through an online learned "
                             "cost model so only the most promising fraction "
                             "is actually measured")
    parser.add_argument("--screen-ratio", type=float, default=0.25,
                        help="fraction of each ranked candidate batch "
                             "forwarded to real measurement with --surrogate")
    parser.add_argument("--store", default=".repro-serve",
                        help="serve/submit/status/lookup: the service store "
                             "directory (job WAL, checkpoints, records, "
                             "eval cache)")
    parser.add_argument("--tenant", default="anonymous",
                        help="submit/lookup: tenant the job is billed to")
    parser.add_argument("--op", default="gemm",
                        choices=["conv2d", "gemm", "gemv"],
                        help="submit/lookup: operator of the workload")
    parser.add_argument("--priority", type=int, default=1, choices=[0, 1, 2],
                        help="submit: priority lane (0=interactive, 1=batch, "
                             "2=background)")
    parser.add_argument("--ttl", type=float, default=None,
                        help="submit: job TTL in simulated seconds")
    parser.add_argument("--slice-trials", type=int, default=None,
                        help="serve/tune-network: trials per scheduling "
                             "slice (preemption grain; default: serve 2, "
                             "tune-network the scheduler's own default)")
    parser.add_argument("--max-slices", type=int, default=None,
                        help="serve: stop after this many slices (default: "
                             "run until idle)")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="submit/lookup: global bound on active jobs")
    parser.add_argument("--max-crashes", type=int, default=3,
                        help="serve: crashes before a job is quarantined")
    parser.add_argument("--enqueue", action="store_true",
                        help="lookup: enqueue a tuning job on a miss")
    parser.add_argument("--network", default="yolo-v1",
                        choices=["yolo-v1", "overfeat"],
                        help="tune-network: which §6.6 network to tune")
    parser.add_argument("--uniform", action="store_true",
                        help="tune-network: flat identical per-layer budgets "
                             "instead of the gain-driven task scheduler")
    parser.add_argument("--sample", type=int, default=None,
                        help="lint only: random points sampled per schedule "
                             "space (default 400)")
    parser.add_argument("--target", default=None,
                        choices=["gpu", "cpu", "fpga"],
                        help="lint only: lint for this device family "
                             "(overrides --device with the family's "
                             "reference device)")
    parser.add_argument("--tensorize", action="store_true",
                        help="add the tensorize knob when a registered "
                             "intrinsic matches the computation")
    parser.add_argument("--lint-records", action="store_true",
                        help="lint only: print every diagnostic, not just "
                             "the per-rule summary")
    # conv2d shape
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--in-channel", type=int, default=256)
    parser.add_argument("--out-channel", type=int, default=512)
    parser.add_argument("--size", type=int, default=28, help="height = width")
    parser.add_argument("--kernel", type=int, default=3)
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--padding", type=int, default=None)
    # gemm/gemv shape
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--k", type=int, default=1024)
    parser.add_argument("--m", type=int, default=1024)
    return parser


def build_operator(args):
    """Instantiate the requested operator from parsed arguments."""
    if args.operator == "conv2d":
        padding = args.padding if args.padding is not None else args.kernel // 2
        return conv2d_compute(
            args.batch, args.in_channel, args.size, args.size,
            args.out_channel, args.kernel, stride=args.stride, padding=padding,
        )
    if args.operator == "gemm":
        return gemm_compute(args.n, args.k, args.m)
    return gemv_compute(args.n, args.k)


#: Reference device of each lowering target for ``lint --target``.
_TARGET_DEVICE = {"gpu": "V100", "cpu": "XeonE5-2699v4", "fpga": "VU9P"}


def lint_command(args) -> int:
    """Lint random samples of the gemm and conv2d schedule spaces for the
    chosen device and print per-rule diagnostic counts (see docs/lint.md).

    ``--target`` lints a device family instead of a named device; with it,
    on cpu and gpu, the sample also covers a tensorize-enabled int8 gemm
    space so the TEN rules (docs/tensorize.md) are exercised.  (Without
    ``--target`` the workload list is unchanged, keeping default output
    stable for existing scripts.)
    """
    import numpy as np

    from .analysis import RULES, ScheduleLinter
    from .model import target_of
    from .space import build_space

    device = DEVICES[args.device]
    if args.target is not None and target_of(device) != args.target:
        device = DEVICES[_TARGET_DEVICE[args.target]]
    target = target_of(device)
    padding = args.padding if args.padding is not None else args.kernel // 2
    workloads = [
        ("gemm", gemm_compute(args.n, args.k, args.m), False),
        ("conv2d", conv2d_compute(
            args.batch, args.in_channel, args.size, args.size,
            args.out_channel, args.kernel, stride=args.stride, padding=padding,
        ), False),
    ]
    if args.target in ("cpu", "gpu"):
        workloads.append(
            ("gemm-int8", gemm_int8_compute(args.n, args.k, args.m), True)
        )
    sample_size = 400 if args.sample is None else args.sample
    rng = np.random.default_rng(args.seed)
    total_illegal = 0
    for name, output, tensorize in workloads:
        space = build_space(output, target, tensorize=tensorize)
        linter = ScheduleLinter(space.op, target, device)
        sample = min(sample_size, space.size)
        counts: dict = {}
        illegal = warned = 0
        for _ in range(sample):
            point = space.random_point(rng)
            diagnostics = linter.lint(space.decode(point))
            if any(d.severity == "error" for d in diagnostics):
                illegal += 1
            elif diagnostics:
                warned += 1
            for d in diagnostics:
                counts[d.rule] = counts.get(d.rule, 0) + 1
                if args.lint_records:
                    print(f"  {name} point {point}: {d}")
        total_illegal += illegal
        print(f"{name}: space={space.size} sampled={sample} "
              f"illegal={illegal} warned={warned} clean={sample - illegal - warned}")
        for rule in sorted(counts):
            rule_name, severity, _ = RULES[rule]
            print(f"  {rule} {rule_name:<20} {severity:<5} x{counts[rule]}")
    print(f"\n{total_illegal} statically illegal points found "
          f"(rejected at zero cost when tuning with --lint)")
    return 0


def _serve_params(args) -> dict:
    """Workload parameters of ``--op`` from the shared shape arguments."""
    if args.op == "conv2d":
        padding = args.padding if args.padding is not None else args.kernel // 2
        return {
            "batch": args.batch, "in_channel": args.in_channel,
            "height": args.size, "width": args.size,
            "out_channel": args.out_channel, "kernel": args.kernel,
            "stride": args.stride, "padding": padding,
        }
    if args.op == "gemm":
        return {"n": args.n, "k": args.k, "m": args.m}
    return {"n": args.n, "k": args.k}


def _serve_service(args, require_store: bool = False):
    from pathlib import Path

    from .serve import ServeConfig, TuningService

    if require_store and not Path(args.store).exists():
        print(f"no service store at {args.store}")
        return None
    config = ServeConfig(
        slice_trials=2 if args.slice_trials is None else args.slice_trials,
        workers=max(1, args.workers),
        max_queue=args.max_queue,
        max_crashes=args.max_crashes,
    )
    return TuningService(args.store, config)


def serve_command(args) -> int:
    """Drive the scheduler loop until idle (or ``--max-slices``); exits
    nonzero when any job ended FAILED or QUARANTINED this pass."""
    from .serve import JobState

    service = _serve_service(args, require_store=True)
    if service is None:
        return 1
    if service.recovered_jobs:
        print(f"recovered {len(service.recovered_jobs)} in-flight job(s) "
              f"from the WAL: {', '.join(service.recovered_jobs)}")
    executed = service.run(max_slices=args.max_slices)
    stats = service.stats()
    print(service.status_table())
    print(f"\n{executed} slices run, clock {stats['clock']:.1f}s, "
          f"{stats['records']} records, states {stats['by_state']}")
    unhealthy = service.store.by_state(JobState.FAILED, JobState.QUARANTINED)
    for job in unhealthy:
        print(f"unhealthy: {job.job_id} {job.state.value} ({job.reason})")
    return 1 if unhealthy else 0


def submit_command(args) -> int:
    """Submit one tuning job; exits nonzero when admission rejects it."""
    from .serve import JobState

    service = _serve_service(args)
    job = service.submit(
        args.tenant, args.op, _serve_params(args), args.device,
        trials=args.trials, seed=args.seed, method=args.method,
        priority=args.priority, ttl_seconds=args.ttl,
    )
    print(f"{job.job_id}: {job.state.value}"
          + (f" ({job.reason})" if job.reason else ""))
    return 0 if job.state is JobState.ADMITTED else 1


def status_command(args) -> int:
    """Print the job table and service counters from the WAL."""
    service = _serve_service(args, require_store=True)
    if service is None:
        return 1
    print(service.status_table())
    stats = service.stats()
    print(f"\nclock {stats['clock']:.1f}s  active {stats['active']}  "
          f"records {stats['records']}  states {stats['by_state']}")
    return 0


def lookup_command(args) -> int:
    """Answer (op, shape, device) from the record book; exits 0 on a
    hit, nonzero on a miss (optionally enqueueing a tuning job)."""
    service = _serve_service(args, require_store=True)
    if service is None:
        return 1
    params = _serve_params(args)
    record = service.lookup(
        args.op, params, args.device, tenant=args.tenant,
        enqueue=args.enqueue, trials=args.trials, seed=args.seed,
    )
    if record is not None:
        print(f"hit: {record.key} -> {record.gflops:.1f} GFLOPS "
              f"({record.trials} trials, seed {record.seed})")
        return 0
    print(f"miss: {args.op}{params}@{args.device}"
          + (" (tuning job enqueued)" if args.enqueue else ""))
    return 1


def tune_network_command(args) -> int:
    """Tune a whole §6.6 network through the task scheduler.

    Records and the evaluation cache land in the ``--store`` directory
    using the serve layout, so ``python -m repro lookup`` (and the serve
    read path) answer queries about network layers tuned here.
    """
    from pathlib import Path

    from .nn import overfeat, tune_network, yolo_v1
    from .serve.service import EVALCACHE_DIRNAME, RECORDS_FILENAME

    network = {"yolo-v1": yolo_v1, "overfeat": overfeat}[args.network](args.batch)
    device = DEVICES[args.device]
    store = Path(args.store)
    store.mkdir(parents=True, exist_ok=True)
    allocated = {} if args.uniform else {
        "checkpoint_dir": store / "network-checkpoints" / args.network,
        "resume": args.resume,
    }
    if args.slice_trials is not None:
        allocated["slice_trials"] = args.slice_trials
    result = tune_network(
        network, device, trials=args.trials, method=args.method, seed=args.seed,
        allocate=not args.uniform,
        records=store / RECORDS_FILENAME,
        eval_cache=store / EVALCACHE_DIRNAME,
        **allocated,
    )
    print(result.summary())
    if not result.found:
        print("\nno valid schedule found for at least one task")
        return 1
    return 0


def measurement_health_report(tuning) -> str:
    """One-block summary of where measurement budget went *besides* clean
    measurements: retries, quarantine, static lint rejects and surrogate
    screening.  Printed after every tune so pipeline health is visible
    without digging through ``TuneResult``."""
    return "\n".join([
        "measurement health:",
        f"  retries={tuning.num_retries}  "
        f"quarantined={tuning.num_quarantined}  "
        f"quarantine_hits={tuning.quarantine_hits}  "
        f"failed={tuning.num_failures}",
        f"  lint_rejects={tuning.lint_rejects}  "
        f"screened={tuning.num_screened}",
    ])


#: The commands that tune one operator.
TUNE_COMMANDS = ("conv2d", "gemm", "gemv")

#: Flags that only some commands read, by ``dest``, with those commands:
#: any other command rejects them rather than silently ignoring them.
COMMAND_ONLY_FLAGS = {
    **dict.fromkeys(("save", "show_code", "checkpoint", "cache_dir", "lint", "prune_space",
                     "surrogate", "screen_ratio", "tensorize"), TUNE_COMMANDS),
    "workers": TUNE_COMMANDS + ("serve",),
    "resume": TUNE_COMMANDS + ("tune-network",),
    "store": ("serve", "submit", "status", "lookup", "tune-network"),
    "slice_trials": ("serve", "tune-network"),
    "padding": ("conv2d", "lint", "submit", "lookup"),
    **dict.fromkeys(("lint_records", "sample", "target"), ("lint",)),
    **dict.fromkeys(("tenant", "op", "max_queue"), ("submit", "lookup")),
    **dict.fromkeys(("priority", "ttl"), ("submit",)),
    "enqueue": ("lookup",),
    **dict.fromkeys(("network", "uniform"), ("tune-network",)),
    **dict.fromkeys(("max_slices", "max_crashes"), ("serve",)),
}


def main(argv=None) -> int:
    """CLI entry point: tune, print, optionally save the schedule."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # A parse into a namespace that holds every dest fills in no defaults.
    given = {dest for dest, value in vars(parser.parse_args(
        argv, argparse.Namespace(**dict.fromkeys(vars(args))))).items() if value is not None}
    for dest, commands in COMMAND_ONLY_FLAGS.items():
        if dest in given and args.operator not in commands:
            parser.error(f"--{dest.replace('_', '-')} applies to "
                         f"{', '.join(repr(c) for c in sorted(commands))} only, "
                         f"not '{args.operator}'")
    if "screen_ratio" in given and not args.surrogate:
        parser.error("--screen-ratio applies to tunes with --surrogate only")
    for dest in ("resume", "slice_trials"):
        if args.uniform and dest in given:
            parser.error(f"--{dest.replace('_', '-')} has no effect with --uniform: the "
                         "uniform baseline has no scheduler and keeps no checkpoints")
    command = {"lint": lint_command, "serve": serve_command, "submit": submit_command,
               "status": status_command, "lookup": lookup_command,
               "tune-network": tune_network_command}.get(args.operator)
    if command is not None:
        return command(args)
    output = build_operator(args)
    device = DEVICES[args.device]
    result = optimize(
        output, device, trials=args.trials, method=args.method, seed=args.seed,
        checkpoint=args.checkpoint, resume=args.resume,
        workers=args.workers,
        eval_cache=EvalCache(args.cache_dir) if args.cache_dir else None,
        lint=args.lint, prune_space=args.prune_space,
        surrogate=args.surrogate, screen_ratio=args.screen_ratio,
        tensorize=args.tensorize,
    )
    print(result.summary())
    print()
    print(measurement_health_report(result.tuning))
    if not result.found:
        # Exit-code contract: a tune that found no valid schedule is a
        # failure — scripts and CI must never mistake it for success.
        print("\nno valid schedule found")
        return 1
    if args.surrogate and result.tuning.surrogate is not None:
        s = result.tuning.surrogate
        print(
            f"screening: {s['screened']} of {s['ranked']} ranked candidates "
            f"screened out ({s['forwarded']} measured, {s['explored']} "
            f"ε-promoted), {s['refits']} refits on {s['observations']} "
            f"observations, rank correlation {s['rank_correlation']:.2f}"
        )
    throughput = result.tuning.throughput
    if throughput is not None and (args.workers > 1 or args.cache_dir):
        print(
            f"throughput: {throughput['points_per_simulated_second']:.1f} pts/s "
            f"simulated ({throughput['points_per_wall_second']:.1f} pts/s wall), "
            f"cache hit rate {throughput['cache_hit_rate']:.0%}, "
            f"workers={throughput['workers']}, "
            f"utilization {throughput['utilization']:.0%}"
        )
    if args.show_code:
        print()
        print(result.generated_code())
    if args.save:
        save_schedule(
            args.save,
            result.config,
            result.graph_config,
            metadata={
                "operator": args.operator,
                "device": args.device,
                "gflops": result.gflops,
            },
        )
        print(f"\nschedule saved to {args.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
