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
    python -m repro selfcheck --tensorize
    python -m repro selfcheck --faults
    python -m repro selfcheck --parallel
    python -m repro selfcheck --lint
    python -m repro selfcheck --surrogate
    python -m repro submit --store /tmp/svc --tenant alice --op gemm --n 256
    python -m repro serve --store /tmp/svc
    python -m repro status --store /tmp/svc
    python -m repro lookup --store /tmp/svc --op gemm --n 256 --enqueue
    python -m repro selfcheck --serve
    python -m repro tune-network --network yolo-v1 --store /tmp/svc --trials 25
    python -m repro tune-network --network overfeat --uniform

Exit codes: 0 on success; nonzero on any failure (no schedule found, a
selfcheck verdict of FAILED, a rejected submission, a lookup miss, a
missing service store, or a serve pass that left jobs failed or
quarantined).
"""

from __future__ import annotations

import argparse
import sys

from . import optimize
from .model import DEVICES
from .ops import conv2d_compute, gemm_compute, gemm_int8_compute, gemv_compute
from .runtime import FaultInjector, MeasureConfig
from .utils import save_schedule


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlexTensor reproduction: tune a tensor operator for a "
                    "simulated device.",
    )
    parser.add_argument("operator",
                        choices=["conv2d", "gemm", "gemv", "lint", "selfcheck",
                                 "serve", "submit", "status", "lookup",
                                 "tune-network"])
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
    parser.add_argument("--faults", action="store_true",
                        help="selfcheck only: inject compile errors, hangs "
                             "and flaky measurements into the run")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel evaluation workers (1 = exact "
                             "bit-reproducible serial path)")
    parser.add_argument("--cache-dir",
                        help="directory of the persistent cross-run "
                             "evaluation cache")
    parser.add_argument("--parallel", action="store_true",
                        help="selfcheck only: run the smoke tuners through "
                             "the 4-worker batched engine")
    parser.add_argument("--lint", action="store_true",
                        help="tune: statically reject illegal points at zero "
                             "measurement cost; selfcheck: run the linter "
                             "soundness smoke plus ruff/mypy when installed")
    parser.add_argument("--prune-space", action="store_true",
                        help="drop knob values that alone violate a device "
                             "limit before tuning starts")
    parser.add_argument("--surrogate", action="store_true",
                        help="tune: screen candidates through an online "
                             "learned cost model so only the most promising "
                             "fraction is actually measured; selfcheck: run "
                             "the surrogate rank-quality smoke")
    parser.add_argument("--screen-ratio", type=float, default=0.25,
                        help="fraction of each ranked candidate batch "
                             "forwarded to real measurement with --surrogate")
    parser.add_argument("--serve", action="store_true",
                        help="selfcheck only: run the tuning-service "
                             "crash-recovery parity smoke (submit jobs from "
                             "two tenants, hard-kill the daemon mid-run, "
                             "restart, assert bit-identical outcomes)")
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
                        help="serve/submit: global bound on active jobs")
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
                        help="tune: add the tensorize knob when a registered "
                             "intrinsic matches the computation; selfcheck: "
                             "run the gemm-int8 match-and-parity smoke")
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


def lint_smoke(args) -> int:
    """``selfcheck --lint``: prove the linter sound against the model on
    smoke workloads, then run ruff/mypy if (and only if) they are installed."""
    import shutil
    import subprocess

    import numpy as np

    from .analysis import ScheduleLinter
    from .model import INVALID_TIME, model_for, target_of
    from .schedule import lower
    from .space import build_space

    device = DEVICES[args.device]
    target = target_of(device)
    model = model_for(device)
    # Shapes big enough that some sampled points genuinely bust device
    # budgets — a smoke with zero rejections would prove nothing.
    workloads = [
        ("gemm", gemm_compute(256, 256, 256)),
        ("conv2d", conv2d_compute(1, 32, 16, 16, 64, 3, padding=1, name="smoke")),
    ]
    rng = np.random.default_rng(args.seed)
    unsound = 0
    for name, output in workloads:
        space = build_space(output, target)
        linter = ScheduleLinter(space.op, target, device)
        rejected = 0
        for _ in range(200):
            config = space.decode(space.random_point(rng))
            if not linter.errors(config):
                continue
            rejected += 1
            try:
                seconds = model.estimate_seconds(lower(output, config, target))
            except Exception:
                continue  # lowering failure: the rejection is justified
            if seconds < INVALID_TIME:
                unsound += 1
        verdict = "ok" if unsound == 0 else f"UNSOUND x{unsound}"
        print(f"{name:>13}: {verdict}  ({rejected}/200 sampled points rejected)")

    lint_paths = [
        "src/repro/analysis", "src/repro/schedule",
        "src/repro/learn", "src/repro/explore/surrogate.py",
        "src/repro/ir", "src/repro/model",
        "src/repro/runtime/appendlog.py", "src/repro/runtime/locking.py",
    ]
    for tool, cmd in (
        ("ruff", ["ruff", "check", *lint_paths]),
        ("mypy", ["mypy", *lint_paths]),
    ):
        if shutil.which(tool) is None:
            print(f"{tool:>13}: skipped (not installed)")
            continue
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print(f"{tool:>13}: " + ("ok" if proc.returncode == 0 else "FAILED"))
        if proc.returncode != 0:
            print(proc.stdout or proc.stderr)
            return 1
    print("lint selfcheck " + ("passed" if unsound == 0 else "FAILED"))
    return 1 if unsound else 0


def tensorize_smoke(args) -> int:
    """``selfcheck --tensorize``: the intrinsic tensorization smoke.

    1. ``dot4_vnni`` statically matches int8 gemm on cpu;
    2. an accepted tensorization executes bit-identically to the same
       schedule without the intrinsic (interpreter and generated kernel);
    3. over sampled tensorized configs, every TEN rejection is a lowering
       failure and every acceptance lowers — the proof-carrying contract;
    4. the model bills a legal tensorization strictly cheaper than the
       identical scalar schedule.
    """
    import numpy as np

    from .analysis import matching_intrinsics, tensorize_rejections
    from .codegen import execute_scheduled, random_inputs, run_generated
    from .model import XEON_E5_2699V4, model_for
    from .schedule import LoweringError, NodeConfig, lower
    from .space import build_space

    failures = 0
    output = gemm_int8_compute(64, 64, 64, name="tz_smoke")
    matched = matching_intrinsics(output.op, "cpu")
    ok = matched == ("dot4_vnni",)
    print(f"{'match':>13}: {'ok' if ok else 'FAILED'}  "
          f"matching_intrinsics(gemm-int8, cpu) = {matched}")
    failures += not ok

    small = gemm_int8_compute(8, 8, 8, name="tz_parity")
    config = NodeConfig(
        spatial_factors=((1, 2, 4), (1, 2, 4)), reduce_factors=((2, 4),),
        reorder=0, vectorize=False, tensorize="dot4_vnni",
    )
    tensorized = lower(small, config, "cpu")
    plain = lower(small, config.with_(tensorize=""), "cpu")
    inputs = {
        name: np.round(8 * array)
        for name, array in random_inputs(small, seed=args.seed).items()
    }
    expected = execute_scheduled(plain, inputs)
    parity = (
        np.array_equal(execute_scheduled(tensorized, inputs), expected)
        and np.array_equal(run_generated(tensorized, inputs), expected)
    )
    print(f"{'parity':>13}: {'ok' if parity else 'FAILED'}  "
          "(interpreter + generated kernel, bit-exact)")
    failures += not parity

    space = build_space(output, "cpu", tensorize=True)
    rng = np.random.default_rng(args.seed)
    accepted = rejected = broken = 0
    for _ in range(120):
        cfg = space.decode(space.random_point(rng)).with_(tensorize="dot4_vnni")
        rejections = tensorize_rejections(output.op, cfg, "cpu")
        try:
            lower(output, cfg, "cpu")
            lowered = True
        except LoweringError:
            lowered = False
        rejected += bool(rejections)
        accepted += not rejections
        broken += lowered == bool(rejections)
    print(f"{'proofs':>13}: {'ok' if broken == 0 else f'FAILED x{broken}'}  "
          f"({accepted} accepted, {rejected} rejected of 120 sampled)")
    failures += broken > 0

    model = model_for(XEON_E5_2699V4)
    billing_cfg = NodeConfig(
        spatial_factors=((8, 4, 2), (8, 4, 2)), reduce_factors=((16, 4),),
        reorder=0, vectorize=False, fuse_levels=2,
    )
    scalar_s = model.estimate_seconds(lower(output, billing_cfg, "cpu"))
    tz_s = model.estimate_seconds(
        lower(output, billing_cfg.with_(tensorize="dot4_vnni"), "cpu")
    )
    ok = tz_s < scalar_s
    print(f"{'billing':>13}: {'ok' if ok else 'FAILED'}  "
          f"({scalar_s * 1e6:.1f} us scalar vs {tz_s * 1e6:.1f} us tensorized)")
    failures += not ok

    print("tensorize selfcheck "
          + ("passed" if failures == 0 else f"FAILED ({failures})"))
    return 1 if failures else 0


def surrogate_smoke(args) -> int:
    """``selfcheck --surrogate``: fit the learned cost model on sampled
    points of the smoke workload and require positive rank correlation
    (Spearman) on a held-out slice — proof the featurization carries
    signal before anyone trusts it to screen a real run."""
    import numpy as np

    from .explore import SurrogateScreen, spearman
    from .graph import get_graph
    from .model import target_of
    from .runtime import Evaluator
    from .space import build_space

    device = DEVICES[args.device]
    output = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="smoke")
    graph = get_graph(output)
    space = build_space(graph, target_of(device))
    evaluator = Evaluator(graph, device, space=space)
    rng = np.random.default_rng(args.seed)
    points, seen = [], set()
    while len(points) < 80:
        point = space.random_point(rng)
        if point not in seen:
            seen.add(point)
            points.append(point)
    labelled = [(p, evaluator.evaluate(p)) for p in points]
    train, held_out = labelled[:60], labelled[60:]

    screen = SurrogateScreen(space, min_train=len(train), seed=args.seed)
    for point, performance in train:
        screen.observe(point, performance)
    predicted = screen.predict([p for p, _ in held_out])
    actual = [performance for _, performance in held_out]
    correlation = spearman([float(s) for s in predicted], actual)
    ok = screen.ready and correlation > 0
    print(f"    surrogate: trained on {len(train)} points, "
          f"{len(held_out)} held out")
    print(f"  correlation: {correlation:.3f} (Spearman, held-out slice)")
    print("surrogate selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


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
    result = tune_network(
        network, device, trials=args.trials, method=args.method, seed=args.seed,
        allocate=not args.uniform,
        records=store / RECORDS_FILENAME,
        eval_cache=store / EVALCACHE_DIRNAME,
        checkpoint_dir=store / "network-checkpoints" / args.network,
        resume=args.resume,
        **(
            {"slice_trials": args.slice_trials}
            if not args.uniform and args.slice_trials is not None else {}
        ),
    )
    print(result.summary())
    if not result.found:
        print("\nno valid schedule found for at least one task")
        return 1
    return 0


def serve_smoke(args) -> int:
    """``selfcheck --serve``: crash-recovery parity of the tuning service.

    Submits four jobs from two tenants, runs one service to completion
    (the reference), then replays the identical submissions twice with a
    scripted hard kill of the daemon mid-run — once in the
    checkpoint-ahead-of-WAL commit window, once right after a RUNNING
    transition — restarts on the same store, and requires every job to
    finish with the bit-identical best schedule, trial count and
    measurement count as the uninterrupted run.
    """
    import tempfile

    from .serve import DaemonKilled, ServeChaos, ServeConfig, TuningService

    config = ServeConfig(slice_trials=2, workers=max(1, args.workers))
    trials = min(args.trials, 4)

    def submit_all(service):
        service.submit("alice", "gemm", {"n": 8, "k": 8, "m": 8},
                       args.device, trials=trials, seed=args.seed, method="q")
        service.submit("bob", "gemm", {"n": 16, "k": 8, "m": 8},
                       args.device, trials=trials, seed=args.seed + 1, method="p")
        service.submit("alice", "conv2d",
                       {"batch": 1, "in_channel": 4, "height": 8, "width": 8,
                        "out_channel": 8, "kernel": 3, "padding": 1},
                       args.device, trials=trials, seed=args.seed,
                       method="random-walk")
        service.submit("bob", "gemm", {"n": 8, "k": 8, "m": 8},
                       args.device, trials=trials, seed=args.seed + 2,
                       method="random-sample")

    def outcomes(service):
        return {
            job.job_id: (job.state.value, job.trials_done, job.best_gflops,
                         job.best_point, job.num_measurements)
            for job in service.store.jobs.values()
        }

    with tempfile.TemporaryDirectory() as store:
        reference = TuningService(store, config)
        submit_all(reference)
        slices = reference.run()
        expected = outcomes(reference)
    print(f"    reference: {len(expected)} jobs done in {slices} slices")

    failures = 0
    for label, chaos in (
        ("commit-window kill", ServeChaos(kill_at_slice=3)),
        ("pre-slice kill", ServeChaos(kill_before_run=2)),
    ):
        with tempfile.TemporaryDirectory() as store:
            doomed = TuningService(store, config, chaos=chaos)
            submit_all(doomed)
            killed = False
            try:
                doomed.run()
            except DaemonKilled:
                killed = True
            restarted = TuningService(store, config)
            restarted.run()
            parity = killed and outcomes(restarted) == expected
            if not parity:
                failures += 1
            print(f"{label:>18}: {'ok' if parity else 'FAILED'}  "
                  f"(recovered {len(restarted.recovered_jobs)} in-flight, "
                  f"{restarted.stats()['by_state']})")
    print("serve selfcheck "
          + ("passed" if failures == 0 else f"FAILED ({failures})"))
    return 1 if failures else 0


def selfcheck(args) -> int:
    """End-to-end robustness smoke: every tuner must survive a short
    (optionally fault-injected) run on the conv2d smoke workload."""
    output = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="smoke")
    device = DEVICES[args.device]
    injector = None
    measure = None
    if args.faults:
        injector = FaultInjector(
            compile_error_rate=0.05,
            hang_rate=0.05,
            transient_error_rate=0.3,
            jitter=0.05,
            seed=args.seed,
        )
        measure = MeasureConfig(timeout_seconds=0.5)
    trials = min(args.trials, 5)
    workers = 4 if args.parallel else max(1, args.workers)
    failures = 0
    for method in ("q", "p", "random-walk", "random-sample"):
        result = optimize(
            output, device, trials=trials, method=method, seed=args.seed,
            fault_injector=injector, measure_config=measure,
            workers=workers, cache_dir=args.cache_dir,
        )
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(result.tuning.status_counts.items())
        )
        verdict = "ok" if result.found else "FAILED"
        if not result.found:
            failures += 1
        print(f"{method:>13}: {verdict}  best={result.gflops:8.1f} GFLOPS  [{counts}]")
        if workers > 1 and result.tuning.throughput is not None:
            t = result.tuning.throughput
            print(f"{'':>13}  {t['points_per_simulated_second']:.1f} pts/s simulated, "
                  f"cache hit rate {t['cache_hit_rate']:.0%}, "
                  f"utilization {t['utilization']:.0%}")
    print("selfcheck " + ("passed" if failures == 0 else f"FAILED ({failures} tuners)"))
    return 1 if failures else 0


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


#: Flags that only one command reads, by ``dest``: any other command
#: rejects them rather than silently ignoring them.
COMMAND_ONLY_FLAGS = {
    "faults": "selfcheck",
    "parallel": "selfcheck",
    "serve": "selfcheck",
    "lint_records": "lint",
    "sample": "lint",
    "target": "lint",
    "enqueue": "lookup",
    "uniform": "tune-network",
    "max_slices": "serve",
    "ttl": "submit",
}


def main(argv=None) -> int:
    """CLI entry point: tune, print, optionally save the schedule."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, command in COMMAND_ONLY_FLAGS.items():
        value = getattr(args, dest)
        if value is not None and value is not False and args.operator != command:
            parser.error(f"--{dest.replace('_', '-')} applies to "
                         f"'{command}' only, not '{args.operator}'")
    if args.operator == "lint":
        return lint_command(args)
    if args.operator == "serve":
        return serve_command(args)
    if args.operator == "submit":
        return submit_command(args)
    if args.operator == "status":
        return status_command(args)
    if args.operator == "lookup":
        return lookup_command(args)
    if args.operator == "tune-network":
        return tune_network_command(args)
    if args.operator == "selfcheck":
        if args.lint:
            return lint_smoke(args)
        if args.tensorize:
            return tensorize_smoke(args)
        if args.surrogate:
            return surrogate_smoke(args)
        if args.serve:
            return serve_smoke(args)
        return selfcheck(args)
    output = build_operator(args)
    device = DEVICES[args.device]
    result = optimize(
        output, device, trials=args.trials, method=args.method, seed=args.seed,
        checkpoint=args.checkpoint, resume=args.resume,
        workers=args.workers, cache_dir=args.cache_dir,
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
