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

Every command takes only the flags its handler reads (``python -m repro
<command> -h`` lists them): a flag of another command, an unknown flag or
an abbreviated one is a usage error.

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
from pathlib import Path

from . import optimize
from .model import DEVICES
from .nn import overfeat, tune_network, yolo_v1
from .ops import gemm_int8_compute
from .runtime import EvalCache
from .serve import JobState, ServeConfig, TuningService
from .serve.service import EVALCACHE_DIRNAME, OPERATORS, RECORDS_FILENAME
from .utils import save_schedule


def positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _parser(**kwargs) -> argparse.ArgumentParser:
    # No abbreviations: ``gemv --m 4`` must not parse as ``--method 4``.
    return argparse.ArgumentParser(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line parser: one subparser per command, each
    declaring only the flags its handler reads."""
    parser = _parser(prog="repro", description="FlexTensor reproduction: tune a "
                     "tensor operator for a simulated device.")
    commands = parser.add_subparsers(dest="operator", required=True, metavar="command")

    def group(*parents):
        return _parser(add_help=False, parents=list(parents))

    def command(name, handler, help, *parents):
        sub = commands.add_parser(name, help=help, parents=list(parents), allow_abbrev=False)
        sub.set_defaults(handler=handler)
        return sub

    device, trials, seed, method = group(), group(), group(), group()
    device.add_argument("--device", default="V100", choices=sorted(DEVICES))
    trials.add_argument("--trials", type=int, default=40)
    seed.add_argument("--seed", type=int, default=0)
    method.add_argument("--method", default="q",
                        choices=["q", "p", "random-walk", "random-sample"])
    resume, workers, store = group(), group(), group()
    resume.add_argument("--resume", action="store_true",
                        help="resume from the newest checkpoint snapshot")
    workers.add_argument("--workers", type=positive_int, default=1,
                         help="simulated measurement workers: batches are billed by greedy "
                              "list scheduling over this many devices (bit-reproducible)")
    store.add_argument("--store", default=".repro-serve",
                       help="the service store directory (job WAL, checkpoints, records, "
                            "eval cache)")

    tune = group(device, trials, seed, method, resume, workers)
    tune.add_argument("--save", help="write the tuned schedule to a JSON file")
    tune.add_argument("--show-code", action="store_true",
                      help="print the generated Python kernel")
    tune.add_argument("--checkpoint", help="JSONL checkpoint file for crash-safe tuning")
    tune.add_argument("--cache-dir", help="directory of the persistent cross-run "
                      "evaluation cache")
    tune.add_argument("--lint", action="store_true",
                      help="statically reject illegal points at zero measurement cost")
    tune.add_argument("--prune-space", action="store_true",
                      help="drop knob values that alone violate a device limit before "
                           "tuning starts")
    tune.add_argument("--surrogate", action="store_true",
                      help="screen candidates through an online learned cost model so "
                           "only the most promising fraction is actually measured")
    tune.add_argument("--screen-ratio", type=float, default=None,
                      help="fraction of each ranked candidate batch forwarded to real "
                           "measurement with --surrogate (default 0.25)")
    tune.add_argument("--tensorize", action="store_true",
                      help="add the tensorize knob when a registered intrinsic matches "
                           "the computation")

    conv2d = group()
    conv2d.add_argument("--batch", type=int, default=1)
    conv2d.add_argument("--in-channel", type=int, default=256)
    conv2d.add_argument("--out-channel", type=int, default=512)
    conv2d.add_argument("--size", type=int, default=28, help="height = width")
    conv2d.add_argument("--kernel", type=int, default=3)
    conv2d.add_argument("--stride", type=int, default=1)
    conv2d.add_argument("--padding", type=int, default=None, help="default: kernel // 2")
    gemv = group()
    gemv.add_argument("--n", type=int, default=1024)
    gemv.add_argument("--k", type=int, default=1024)
    gemm = group(gemv)
    gemm.add_argument("--m", type=int, default=1024)
    job = group(store, device, trials, seed)
    job.add_argument("--tenant", default="anonymous", help="tenant the job is billed to")
    job.add_argument("--op", default="gemm", choices=["conv2d", "gemm", "gemv"],
                     help="operator of the workload, shaped by its shape flags")
    job.add_argument("--max-queue", type=int, default=64, help="global bound on active jobs")

    command("conv2d", tune_command, "tune one 2D convolution", tune, conv2d)
    command("gemm", tune_command, "tune one matrix multiply", tune, gemm)
    command("gemv", tune_command, "tune one matrix-vector multiply", tune, gemv)
    lint = command("lint", lint_command, "count static diagnostics on sampled gemm and "
                   "conv2d schedules", device, seed, conv2d, gemm)
    lint.add_argument("--sample", type=int, default=400,
                      help="random points sampled per schedule space")
    lint.add_argument("--target", choices=["gpu", "cpu", "fpga"],
                      help="lint for this device family (overrides --device with the "
                           "family's reference device)")
    lint.add_argument("--lint-records", action="store_true",
                      help="print every diagnostic, not just the per-rule summary")
    submit = command("submit", submit_command, "submit one tuning job",
                     job, method, conv2d, gemm)
    submit.add_argument("--priority", type=int, default=1, choices=[0, 1, 2],
                        help="priority lane (0=interactive, 1=batch, 2=background)")
    submit.add_argument("--ttl", type=float, help="job TTL in simulated seconds")
    lookup = command("lookup", lookup_command, "answer a workload from the record book",
                     job, conv2d, gemm)
    lookup.add_argument("--enqueue", action="store_true",
                        help="enqueue a tuning job on a miss")
    serve = command("serve", serve_command, "run the queued jobs slice by slice",
                    store, workers)
    serve.add_argument("--slice-trials", type=positive_int, default=2,
                       help="trials per scheduling slice (preemption grain)")
    serve.add_argument("--max-slices", type=int,
                       help="stop after this many slices (default: run until idle)")
    serve.add_argument("--max-crashes", type=int, default=3,
                       help="crashes before a job is quarantined")
    command("status", status_command, "print the job table", store)
    network = command("tune-network", tune_network_command, "tune a whole §6.6 network",
                      device, trials, seed, method, resume, store)
    network.add_argument("--network", default="yolo-v1", choices=["yolo-v1", "overfeat"])
    network.add_argument("--batch", type=int, default=1)
    network.add_argument("--uniform", action="store_true",
                         help="flat identical per-layer budgets instead of the gain-driven "
                              "task scheduler")
    network.add_argument("--slice-trials", type=positive_int,
                         help="trials per scheduling slice (default: the scheduler's own)")
    return parser


def operator_params(op: str, args) -> dict:
    """Keyword arguments of ``OPERATORS[op]`` from the shape flags."""
    if op == "conv2d":
        return {
            "batch": args.batch, "in_channel": args.in_channel,
            "height": args.size, "width": args.size,
            "out_channel": args.out_channel, "kernel": args.kernel,
            "stride": args.stride,
            "padding": args.kernel // 2 if args.padding is None else args.padding,
        }
    if op == "gemv":
        return {"n": args.n, "k": args.k}
    return {"n": args.n, "k": args.k, "m": args.m}


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
    workloads = [(op, OPERATORS[op](**operator_params(op, args)), False)
                 for op in ("gemm", "conv2d")]
    if args.target in ("cpu", "gpu"):
        workloads.append(
            ("gemm-int8", gemm_int8_compute(**operator_params("gemm", args)), True)
        )
    rng = np.random.default_rng(args.seed)
    total_illegal = 0
    for name, output, tensorize in workloads:
        space = build_space(output, target, tensorize=tensorize)
        linter = ScheduleLinter(space.op, target, device)
        sample = min(args.sample, space.size)
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


def _service(args, require_store: bool = True, **config):
    """The tuning service over ``--store`` with ``ServeConfig(**config)``;
    None (after saying so) when ``require_store`` and it does not exist."""
    if require_store and not Path(args.store).exists():
        print(f"no service store at {args.store}")
        return None
    return TuningService(args.store, ServeConfig(**config))


def serve_command(args) -> int:
    """Drive the scheduler loop until idle (or ``--max-slices``); exits
    nonzero when any job ended FAILED or QUARANTINED this pass."""
    service = _service(args, slice_trials=args.slice_trials,
                       workers=args.workers, max_crashes=args.max_crashes)
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
    service = _service(args, require_store=False, max_queue=args.max_queue)
    job = service.submit(
        args.tenant, args.op, operator_params(args.op, args), args.device,
        trials=args.trials, seed=args.seed, method=args.method,
        priority=args.priority, ttl_seconds=args.ttl,
    )
    print(f"{job.job_id}: {job.state.value}"
          + (f" ({job.reason})" if job.reason else ""))
    return 0 if job.state is JobState.ADMITTED else 1


def status_command(args) -> int:
    """Print the job table and service counters from the WAL."""
    service = _service(args)
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
    service = _service(args, max_queue=args.max_queue)
    if service is None:
        return 1
    params = operator_params(args.op, args)
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


def _unread(commands: dict, command: str, unread: list) -> str:
    """Usage error for flags ``command`` does not read, naming the
    commands whose subparsers declare the first of them."""
    flag = unread[0].split("=", 1)[0]
    owners = sorted(name for name, sub in commands.items()
                    if flag in sub._option_string_actions)
    if not owners:
        return f"unrecognized arguments: {' '.join(unread)}"
    return (f"{flag} applies to {', '.join(map(repr, owners))} only, "
            f"not {command!r}")


def main(argv=None) -> int:
    """CLI entry point: parse one command's flags and run its handler."""
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    usage = commands[args.operator]
    if unread:
        usage.error(_unread(commands, args.operator, unread))
    if getattr(args, "screen_ratio", None) is not None and not args.surrogate:
        usage.error("--screen-ratio applies to tunes with --surrogate only")
    if getattr(args, "uniform", False) and (args.resume or args.slice_trials is not None):
        usage.error(f"{'--resume' if args.resume else '--slice-trials'} has no effect with "
                    "--uniform: the uniform baseline has no scheduler and keeps no checkpoints")
    return args.handler(args)


def tune_command(args) -> int:
    """Tune one operator, print the result, optionally save the schedule."""
    output = OPERATORS[args.operator](**operator_params(args.operator, args))
    device = DEVICES[args.device]
    result = optimize(
        output, device, trials=args.trials, method=args.method, seed=args.seed,
        checkpoint=args.checkpoint, resume=args.resume,
        workers=args.workers,
        eval_cache=EvalCache(args.cache_dir) if args.cache_dir else None,
        lint=args.lint, prune_space=args.prune_space,
        surrogate=args.surrogate,
        screen_ratio=0.25 if args.screen_ratio is None else args.screen_ratio,
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
