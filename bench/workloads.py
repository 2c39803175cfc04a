"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload is a list of requests to the public ``repro`` API.  The
seed draws everything that varies between runs — each request's search
seed, the order of requests, the tenants and background misses of the
service mix — and :func:`make_inputs` returns those draws as plain data;
a pass receives nothing else.  The shapes themselves are fixed per
workload (evenly spaced test cases of the Table-3 suites): drawing them
from the seed made the geometric mean of tuned kernel time swing by 18%
(interquartile range over ten seeds) against 1.4% with fixed shapes,
which no useful quality bound survives.

``run_pass`` executes one pass in a fresh store and returns its quality
numbers, its output digest and the lightweight facts ``check_outputs``
needs afterwards (best schedules to lower again, lookups to verify).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.vendor import fpga_opencl_time, gpu_library_time, mkldnn_time
from repro.codegen import random_inputs, run_generated
from repro.model import DEVICES, model_for, target_of
from repro.nn import LayerSpec, Network, overfeat, tune_network, yolo_v1
from repro.ops import conv2d_compute, conv2d_reference, gemm_compute, gemm_reference
from repro.ops.workloads import OPERATOR_NAMES, SUITES, Workload
from repro.schedule import GraphConfig, lower, validate_schedule
from repro.serve import JobState, ServeConfig, TuningService
from repro.utils.serialization import config_from_dict

from layers import WORKLOADS

# Looked up at call time, like the network scheduler and the service do, so
# a traced pass sees the timed wrapper.  (The ``repro.optimize`` attribute
# of the package is the function, not this module.)
OPTIMIZE = importlib.import_module("repro.optimize")

#: Sizes calibrated so one untraced pass takes 5-7 s on a 2-core host
#: (three passes fit one 25 s run).  ``SMOKE`` keeps every code path at
#: toy sizes for the tests.
SIZES: Dict[str, Dict] = {
    "op_search": {
        "families": list(OPERATOR_NAMES), "per_family": 1,
        "devices": ["V100", "XeonE5-2699v4", "VU9P"], "trials": 40,
    },
    "op_screened": {
        "families": ["GMM", "C2D", "DEP", "C3D"], "per_family": 1,
        "devices": ["V100"], "trials": 40, "screen_ratio": 0.15,
    },
    "net_sliced": {"networks": ["yolo_v1", "overfeat"], "trials": 5},
    "serve_mixed": {
        "families": ["C2D", "GMM", "DEP", "C1D"], "per_family": 3,
        "resubmit": 6, "tenants": 3, "trials": 6, "lookups_per_step": 2000,
        "miss_every": 10, "miss_trials": 2,
    },
}

SMOKE: Dict[str, Dict] = {
    "op_search": {
        "families": ["GMM", "C2D"], "per_family": 1,
        "devices": ["V100", "VU9P"], "trials": 2,
    },
    "op_screened": {
        "families": ["GMM"], "per_family": 1, "devices": ["V100"],
        "trials": 4, "screen_ratio": 0.15,
    },
    "net_sliced": {"networks": ["tiny"], "trials": 4},
    "serve_mixed": {
        "families": ["GMM", "C1D"], "per_family": 1, "resubmit": 1,
        "tenants": 2, "trials": 2, "lookups_per_step": 50, "miss_every": 2,
        "miss_trials": 2,
    },
}

#: Canary shapes tuned and executed against numpy in the op_search checks.
CANARY_TRIALS = 4


def _spaced(items: List, count: int) -> List:
    """``count`` evenly spaced members of ``items`` (the middle one for 1)."""
    n = len(items)
    return [items[(i + 1) * n // (count + 1)] for i in range(count)]


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


def _shape_key(operator: str, params: Dict) -> str:
    return json.dumps([operator, params], sort_keys=True)


def _tiny_network() -> Network:
    def conv(name, channels, size):
        return Workload("C2D", name, {
            "batch": 1, "in_channel": channels, "height": size, "width": size,
            "out_channel": channels, "kernel": 3, "stride": 1, "padding": 1,
        })
    return Network("tiny", [
        LayerSpec(conv("tiny1", 8, 8), multiplicity=2),
        LayerSpec(conv("tiny2", 16, 4), multiplicity=1),
    ])


NETWORKS = {"yolo_v1": yolo_v1, "overfeat": overfeat, "tiny": _tiny_network}


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Dict:
    """The seeded inputs of one workload as plain JSON-compatible data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    size = (SMOKE if smoke else SIZES)[workload]
    rng = np.random.default_rng(seed)
    inputs: Dict = {"workload": workload, "seed": seed, "smoke": smoke, "size": size}
    if workload in ("op_search", "op_screened"):
        tasks = []
        for family in size["families"]:
            for case in _spaced(SUITES[family], size["per_family"]):
                for device in size["devices"]:
                    tasks.append({
                        "family": family, "name": case.name, "params": case.params,
                        "device": device, "seed": _draw_seed(rng),
                    })
        order = rng.permutation(len(tasks))
        inputs["tasks"] = [tasks[i] for i in order]
        if workload == "op_search":
            inputs["canary_seed"] = _draw_seed(rng)
    elif workload == "net_sliced":
        inputs["networks"] = [
            {"network": name, "seed": _draw_seed(rng)} for name in size["networks"]
        ]
    else:
        shapes = [
            {"operator": family, "params": case.params}
            for family in size["families"]
            for case in _spaced(SUITES[family], size["per_family"])
        ]
        # Owners are a seeded, balanced assignment; a resubmission goes to
        # the next tenant, so no tenant exceeds its active-job quota.
        tenants = size["tenants"]
        owners = rng.permutation([i % tenants for i in range(len(shapes))])
        jobs = [
            {**shape, "tenant": f"tenant{owner}", "seed": _draw_seed(rng)}
            for shape, owner in zip(shapes, owners)
        ]
        # Every other shape is resubmitted with its own search seed; both
        # jobs share the store's cache and records.
        for first, owner in list(zip(jobs, owners))[::2][: size["resubmit"]]:
            jobs.append({
                "operator": first["operator"], "params": first["params"],
                "tenant": f"tenant{(owner + 1) % tenants}", "seed": _draw_seed(rng),
            })
        order = rng.permutation(len(jobs))
        inputs["jobs"] = [jobs[i] for i in order]
        used = {_shape_key(s["operator"], s["params"]) for s in shapes}
        spare = [
            {"operator": family, "params": case.params}
            for family in size["families"] for case in SUITES[family]
            if _shape_key(family, case.params) not in used
        ]
        inputs["misses"] = [
            {**spare[i], "seed": _draw_seed(rng)}
            for i in rng.permutation(len(spare))
        ]
    return inputs


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass produced, minus the program objects themselves."""

    wall: float = 0.0
    #: Tuned run time per request (kernel seconds; network seconds on
    #: net_sliced), one entry per tune of that request.
    tuned_s: Dict[str, List[float]] = field(default_factory=dict)
    sim_explore_s: float = 0.0
    measurements: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    outcome: List = field(default_factory=list)      # digested
    checks: List = field(default_factory=list)       # facts for check_outputs
    lookup_ns: List[int] = field(default_factory=list)
    extra: Dict = field(default_factory=dict)
    service: Optional[TuningService] = None

    @property
    def tuned_ms(self) -> float:
        """Geometric mean of the tuned run times, in milliseconds."""
        return 1e3 * _geomean([s for times in self.tuned_s.values() for s in times])

    @property
    def digest(self) -> str:
        payload = json.dumps(
            {"outcome": self.outcome, "tuned": {k: [repr(s) for s in v]
                                                for k, v in self.tuned_s.items()},
             "sim": repr(self.sim_explore_s), "measurements": self.measurements},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _request(task: Dict) -> str:
    return f"{task['family']}:{task['name']}@{task['device']}"


def _op_pass(inputs: Dict, workdir: Path, tracer) -> PassResult:
    size = inputs["size"]
    screened = inputs["workload"] == "op_screened"
    result = PassResult()
    for task in inputs["tasks"]:
        if tracer is not None:
            tracer.request = _request(task)
        result.attempted += 1
        device = DEVICES[task["device"]]
        output = Workload(task["family"], task["name"], task["params"]).build()
        try:
            tuned = OPTIMIZE.optimize(
                output, device, trials=size["trials"], method="q", seed=task["seed"],
                **({"surrogate": True, "screen_ratio": size["screen_ratio"]}
                   if screened else {}),
            )
        except Exception as exc:  # a failed request is counted, not fatal
            result.failures.append(f"{_request(task)}: optimize raised {exc!r}")
            continue
        if not tuned.found:
            result.failures.append(f"{_request(task)}: no valid schedule")
            continue
        result.tuned_s[_request(task)] = [tuned.kernel_seconds]
        result.measurements += tuned.tuning.num_measurements
        result.sim_explore_s += tuned.tuning.exploration_seconds
        result.outcome.append([_request(task), list(tuned.tuning.best_point),
                               repr(tuned.kernel_seconds)])
        result.checks.append((_request(task), tuned.evaluator.graph, tuned.config,
                              tuned.target, tuned.graph_config, tuned.evaluator.model,
                              tuned.schedule.primitives, tuned.kernel_seconds))
    return result


def _net_pass(inputs: Dict, workdir: Path, tracer) -> PassResult:
    size = inputs["size"]
    result = PassResult()
    device = DEVICES["V100"]
    for spec in inputs["networks"]:
        network = NETWORKS[spec["network"]]()
        if tracer is not None:
            tracer.request = network.name
        result.attempted += 1
        try:
            tuned = tune_network(
                network, device, trials=size["trials"], seed=spec["seed"],
                records=workdir / "records.jsonl", eval_cache=workdir / "evalcache",
                checkpoint_dir=workdir / f"ckpt-{spec['network']}",
            )
        except Exception as exc:
            result.failures.append(f"{network.name}: tune_network raised {exc!r}")
            continue
        if not tuned.found:
            result.failures.append(f"{network.name}: a task found no schedule")
            continue
        result.tuned_s[network.name] = [tuned.total_seconds]
        result.measurements += tuned.total_measurements
        result.sim_explore_s += tuned.exploration_seconds
        result.outcome.append([network.name, repr(tuned.total_seconds), [
            [t.index, t.config_dict, repr(t.kernel_seconds)] for t in tuned.tasks
        ]])
        result.checks.extend(
            (f"{network.name}/{t.workload.name}", t.workload, t.config_dict, t.kernel_seconds)
            for t in tuned.tasks
        )
    return result


def _serve_pass(inputs: Dict, workdir: Path, tracer) -> PassResult:
    size = inputs["size"]
    result = PassResult()
    service = TuningService(workdir / "svc", ServeConfig())
    result.service = service
    jobs = []
    for spec in inputs["jobs"]:
        result.attempted += 1
        job = service.submit(spec["tenant"], spec["operator"], spec["params"], "V100",
                             trials=size["trials"], seed=spec["seed"])
        if job.state is not JobState.ADMITTED:
            result.failures.append(f"{job.job_id}: {job.state.value} ({job.reason})")
        jobs.append(job)
    keys = []
    for spec in inputs["jobs"]:
        if (spec["operator"], spec["params"]) not in keys:
            keys.append((spec["operator"], spec["params"]))
    finished = set()
    misses = iter(inputs["misses"])
    lookup_ns = result.lookup_ns
    clock = time.perf_counter_ns
    slices = 0
    cursor = 0
    while True:
        job_id = service.step()
        if job_id is None:
            break
        slices += 1
        job = service.store.jobs[job_id]
        if job.state is JobState.DONE:
            finished.add(_shape_key(job.operator, job.params))
        if slices % size["miss_every"] == 0:
            miss = next(misses, None)
            if miss is not None:
                result.attempted += 1
                if service.lookup(miss["operator"], miss["params"], "V100", tenant="misses",
                                  enqueue=True, trials=size["miss_trials"],
                                  seed=miss["seed"]) is not None:
                    result.failures.append(f"miss {miss['operator']} was a hit")
        for _ in range(size["lookups_per_step"]):
            operator, params = keys[cursor]
            cursor = (cursor + 1) % len(keys)
            start = clock()
            record = service.lookup(operator, params, "V100")
            lookup_ns.append(clock() - start)
            if record is None and _shape_key(operator, params) in finished:
                result.failures.append(f"lookup of finished {operator} missed")
    result.attempted += len(lookup_ns)
    every = list(service.store.jobs.values())
    foreground = {job.job_id for job in jobs}
    for job in every:
        result.attempted += 1
        if job.state is not JobState.DONE or job.best_gflops <= 0:
            result.failures.append(f"{job.job_id} ended {job.state.value} ({job.reason})")
            continue
        result.measurements += job.num_measurements
        if job.job_id in foreground:
            flops = Workload(job.operator, "", job.params).flops()
            result.tuned_s.setdefault(_shape_key(job.operator, job.params), []).append(
                flops / (job.best_gflops * 1e9))
        result.outcome.append([job.job_id, job.best_point, repr(job.best_gflops)])
    result.sim_explore_s = service.clock
    result.extra["queue_wait_max_sim_s"] = service.stats()["max_queue_wait"]
    return result


_LIBRARY = {"gpu": gpu_library_time, "cpu": mkldnn_time, "fpga": fpga_opencl_time}


def _library_seconds(operator: str, params: Dict, device: str) -> float:
    spec = DEVICES[device]
    return _LIBRARY[target_of(spec)](Workload(operator, "", params), spec).seconds


def reference_seconds(inputs: Dict) -> Dict[str, float]:
    """Run time of each request's reference, keyed like ``tuned_s``.

    A tuned operator is compared with the simulated vendor library the
    paper compares with (cuDNN/cuBLAS, MKL-DNN, hand-written OpenCL).  A
    network is compared with itself tuned by uniform allocation at the
    same seed and per-layer trials: every task of a network run shares
    one seed, so its luck moves the whole network, and the uniform run at
    that seed shares most of it (the ratio's spread over ten seeds is 6%
    against 13% for the latency alone).
    """
    workload = inputs["workload"]
    if workload == "net_sliced":
        reference = {}
        for spec in inputs["networks"]:
            network = NETWORKS[spec["network"]]()
            reference[network.name] = tune_network(
                network, DEVICES["V100"], trials=inputs["size"]["trials"], seed=spec["seed"],
                allocate=False,
            ).total_seconds
        return reference
    if workload == "serve_mixed":
        return {_shape_key(j["operator"], j["params"]):
                _library_seconds(j["operator"], j["params"], "V100") for j in inputs["jobs"]}
    return {_request(t): _library_seconds(t["family"], t["params"], t["device"])
            for t in inputs["tasks"]}


def tuned_vs_ref(result: PassResult, reference: Dict[str, float]) -> float:
    """Geometric mean over every tune of tuned run time ÷ reference run time."""
    return _geomean([s / reference[key] for key, times in result.tuned_s.items() for s in times])


_PASSES = {"op_search": _op_pass, "op_screened": _op_pass,
           "net_sliced": _net_pass, "serve_mixed": _serve_pass}


def run_pass(inputs: Dict, workdir: Path, tracer=None, probe=None) -> PassResult:
    """One timed pass of a workload over a fresh store in ``workdir``.

    ``probe`` (a :class:`speed.SpeedProbe`) samples the host's speed during
    exactly the timed interval; ``wall`` includes the probes' time."""
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    if probe is not None:
        probe.start()
    try:
        result = _PASSES[inputs["workload"]](inputs, workdir, tracer)
    finally:
        if probe is not None:
            probe.stop()
    result.wall = time.perf_counter() - start
    if tracer is not None:
        tracer.request = ""
    return result


# ---------------------------------------------------------------------------
# output checks (untimed)
# ---------------------------------------------------------------------------


def _check_op(inputs: Dict, result: PassResult) -> Tuple[int, List[str]]:
    failures = []
    for name, graph, config, target, graph_config, model, primitives, seconds in result.checks:
        try:
            scheduled = lower(graph, config, target, graph_config)
            validate_schedule(scheduled)
        except Exception as exc:
            failures.append(f"{name}: best schedule does not lower and validate: {exc!r}")
            continue
        if scheduled.primitives != primitives:
            failures.append(f"{name}: lowering the best config again gave another schedule")
        elif not model.estimate_seconds(scheduled) <= seconds:
            failures.append(f"{name}: re-lowered schedule is slower than reported")
    checked = len(result.checks)
    if inputs["workload"] == "op_search":
        checked += 2
        failures.extend(_canaries(inputs["canary_seed"]))
    return checked, failures


def _canaries(seed: int) -> List[str]:
    """Tune two tiny operators and run their generated code against numpy."""
    cases = [
        ("gemm 32^3 on XeonE5-2699v4", gemm_compute(32, 32, 32, name="canary_gemm"),
         "XeonE5-2699v4",
         lambda x: gemm_reference(x["canary_gemm_A"], x["canary_gemm_B"])),
        ("conv2d 1x8x8x8 k3 on V100",
         conv2d_compute(1, 8, 8, 8, 8, 3, padding=1, name="canary_conv"), "V100",
         lambda x: conv2d_reference(x["canary_conv_I"], x["canary_conv_W"], 1, 1)),
    ]
    failures = []
    for name, output, device, reference in cases:
        try:
            tuned = OPTIMIZE.optimize(output, DEVICES[device], trials=CANARY_TRIALS, seed=seed)
            data = random_inputs(output, seed=seed)
            got = run_generated(tuned.schedule, data)
        except Exception as exc:
            failures.append(f"canary {name} raised {exc!r}")
            continue
        if not np.allclose(got, reference(data), rtol=1e-9, atol=1e-9):
            failures.append(f"canary {name}: generated code disagrees with numpy")
    return failures


def _check_net(inputs: Dict, result: PassResult) -> Tuple[int, List[str]]:
    failures = []
    device = DEVICES["V100"]
    model = model_for(device)
    for name, workload, config_dict, seconds in result.checks:
        try:
            scheduled = lower(workload.build(), config_from_dict(config_dict),
                              target_of(device), GraphConfig())
            validate_schedule(scheduled)
        except Exception as exc:
            failures.append(f"{name}: best schedule does not lower and validate: {exc!r}")
            continue
        if not model.estimate_seconds(scheduled) <= seconds * (1 + 1e-9):
            failures.append(f"{name}: re-lowered schedule is slower than reported")
    return len(result.checks), failures


def _check_serve(inputs: Dict, result: PassResult) -> Tuple[int, List[str]]:
    failures = []
    service = result.service
    best: Dict[str, float] = {}
    for job in service.store.jobs.values():
        key = _shape_key(job.operator, job.params)
        best[key] = max(best.get(key, 0.0), job.best_gflops)
    device = DEVICES["V100"]
    for key, gflops in best.items():
        operator, params = json.loads(key)
        record = service.lookup(operator, params, "V100")
        if record is None or record.gflops != gflops:
            failures.append(f"lookup {operator} {params} does not return the jobs' best")
            continue
        try:
            output = Workload(operator, "", params).build()
            validate_schedule(lower(output, record.config, target_of(device), GraphConfig()))
        except Exception as exc:
            failures.append(f"served schedule for {operator} does not validate: {exc!r}")
    return len(best), failures


_CHECKS = {"op_search": _check_op, "op_screened": _check_op,
           "net_sliced": _check_net, "serve_mixed": _check_serve}


def check_outputs(inputs: Dict, result: PassResult) -> Tuple[int, List[str]]:
    """Lower every best schedule again and validate it; run the canaries
    and the read-path checks.  Returns the number of checks made and one
    message per failed check."""
    return _CHECKS[inputs["workload"]](inputs, result)
