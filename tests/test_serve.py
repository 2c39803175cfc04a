"""Tests for the multi-tenant tuning service (``repro.serve``).

Covers the robustness contract of docs/serve.md: the crash-safe WAL job
store, bit-identical crash recovery, fair-share scheduling under tenant
floods, admission control (queue depth, quotas, rate limits, TTL), the
poisoned-job quarantine, drain/shutdown,
shared EvalCache/RecordBook across preemption and resume, the O(1)
RecordBook signature index, and the CLI exit-code contract.
"""

import json
import os
import signal
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import V100
from repro.optimize import tune_workload
from repro.ops.workloads import Workload
from repro.runtime import RecordBook, TuningRecord
from repro.schedule import NodeConfig
from repro.serve import (
    DaemonKilled,
    Job,
    JobState,
    JobStore,
    ServeChaos,
    ServeConfig,
    TenantPolicy,
    TokenBucket,
    TuningService,
)

from .kills import MeasureKilled, patch_measure_kill

pytestmark = pytest.mark.serve

GEMM = {"n": 8, "k": 8, "m": 8}
CONV = {"batch": 1, "in_channel": 4, "height": 8, "width": 8,
        "out_channel": 8, "kernel": 3, "padding": 1}


def submit_mixed(service, trials=4):
    """The crash-recovery submission set: four jobs from two tenants."""
    service.submit("alice", "gemm", GEMM, "V100", trials=trials, seed=0, method="q")
    service.submit("bob", "gemm", {"n": 16, "k": 8, "m": 8}, "V100",
                   trials=trials, seed=1, method="p")
    service.submit("alice", "conv2d", CONV, "V100", trials=trials, seed=0,
                   method="random-walk")
    service.submit("bob", "gemm", GEMM, "V100", trials=trials, seed=2,
                   method="random-sample")


def outcomes(service):
    return {
        job.job_id: (job.state.value, job.trials_done, job.best_gflops,
                     job.best_point, job.num_measurements)
        for job in service.store.jobs.values()
    }


# -- the write-ahead log ---------------------------------------------------


def test_wal_roundtrip_preserves_jobs_and_clock(tmp_path):
    store = JobStore(tmp_path)
    job = Job(job_id="t-0001", tenant="t", operator="gemm", params=dict(GEMM),
              device="V100", trials=4, ttl_seconds=50.0)
    store.submit(job, clock=1.0)
    store.transition(job, JobState.ADMITTED, clock=1.0)
    store.transition(job, JobState.RUNNING, clock=2.0)
    job.trials_done, job.sim_seconds = 2, 7.5
    store.transition(job, JobState.PREEMPTED, clock=9.5, reason="time slice")

    replayed = JobStore(tmp_path)
    assert replayed.clock == 9.5
    assert replayed.next_seq == 2
    twin = replayed.jobs["t-0001"]
    assert twin.state is JobState.PREEMPTED
    assert twin.trials_done == 2 and twin.sim_seconds == 7.5
    assert twin.params == GEMM and twin.ttl_seconds == 50.0
    assert twin.slices == 1 and twin.reason == "time slice"


def test_wal_skips_corrupt_tail_and_keeps_previous_transition(tmp_path):
    store = JobStore(tmp_path)
    job = Job(job_id="t-0001", tenant="t", operator="gemm", params=dict(GEMM),
              device="V100", trials=4)
    store.submit(job, clock=0.0)
    store.transition(job, JobState.ADMITTED, clock=0.0)
    intact = store.path.read_text()
    store.transition(job, JobState.RUNNING, clock=3.0)
    # Simulate kill -9 mid-append: the RUNNING line is torn.
    store.path.write_text(intact + '{"v": 1, "type": "job-event", "ev')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        replayed = JobStore(tmp_path)
    assert any("corrupt job event" in str(w.message) for w in caught)
    assert replayed.jobs["t-0001"].state is JobState.ADMITTED


def test_illegal_transitions_raise_and_are_not_logged(tmp_path):
    store = JobStore(tmp_path)
    job = Job(job_id="t-0001", tenant="t", operator="gemm", params=dict(GEMM),
              device="V100", trials=4)
    store.submit(job, clock=0.0)
    with pytest.raises(ValueError, match="illegal job transition"):
        store.transition(job, JobState.RUNNING, clock=0.0)  # skips ADMITTED
    store.transition(job, JobState.ADMITTED, clock=0.0)
    store.transition(job, JobState.RUNNING, clock=0.0)
    store.transition(job, JobState.DONE, clock=1.0)
    with pytest.raises(ValueError, match="illegal job transition"):
        store.transition(job, JobState.RUNNING, clock=2.0)  # terminal
    assert JobStore(tmp_path).jobs["t-0001"].state is JobState.DONE


# -- crash recovery --------------------------------------------------------


@pytest.mark.parametrize("chaos", [
    ServeChaos(kill_at_slice=3),    # checkpoint durable, WAL commit lost
    ServeChaos(kill_before_run=2),  # RUNNING logged, slice never happened
], ids=["commit-window", "pre-slice"])
def test_daemon_kill_recovery_is_bit_identical(tmp_path, chaos):
    config = ServeConfig(slice_trials=2)
    reference = TuningService(tmp_path / "ref", config)
    submit_mixed(reference)
    reference.run()
    expected = outcomes(reference)
    assert all(state == "done" for state, *_ in expected.values())

    doomed = TuningService(tmp_path / "chaos", config, chaos=chaos)
    submit_mixed(doomed)
    with pytest.raises(DaemonKilled):
        doomed.run()
    restarted = TuningService(tmp_path / "chaos", config)
    assert restarted.recovered_jobs  # something really was mid-flight
    restarted.run()
    assert outcomes(restarted) == expected


@pytest.mark.parametrize("slice_index, measurements", [
    (1, 1), (1, 40), (3, 6), (5, 50),
])
def test_kill_inside_a_slice_resumes_with_exact_billing(
    tmp_path, monkeypatch, slice_index, measurements
):
    """The daemon dies inside slice ``slice_index``, after
    ``measurements`` fresh measurements.  The cache entries of the
    unfinished trial die with it, so the restarted service measures and
    bills them again: every job ends exactly as in an uninterrupted run,
    billing included."""
    config = ServeConfig(slice_trials=2)
    reference = TuningService(tmp_path / "ref", config)
    submit_mixed(reference)
    reference.run()

    arm = patch_measure_kill(monkeypatch)
    slices = [0]
    real_run_slice = TuningService._run_slice

    def run_slice(self, job):
        if slices[0] == slice_index:
            arm(measurements)
        slices[0] += 1
        try:
            return real_run_slice(self, job)
        finally:
            arm(None)

    monkeypatch.setattr(TuningService, "_run_slice", run_slice)
    doomed = TuningService(tmp_path / "chaos", config)
    submit_mixed(doomed)
    with pytest.raises(MeasureKilled):
        doomed.run()
    restarted = TuningService(tmp_path / "chaos", config)
    assert restarted.recovered_jobs
    restarted.run()
    assert outcomes(restarted) == outcomes(reference)
    assert {
        job.job_id: job.sim_seconds for job in restarted.store.jobs.values()
    } == {job.job_id: job.sim_seconds for job in reference.store.jobs.values()}


def test_sigkill_mid_run_recovers_to_reference_best(tmp_path):
    """A real ``kill -9`` (SIGKILL to a forked daemon) at an arbitrary
    wall-clock instant — possibly mid-trial, mid-append — must still
    recover to the reference best schedule and trial count.  Measurement
    counts may legitimately shrink (re-run trials hit the EvalCache)."""
    if not hasattr(os, "fork"):
        pytest.skip("requires os.fork")
    config = ServeConfig(slice_trials=1)
    reference = TuningService(tmp_path / "ref", config)
    submit_mixed(reference, trials=6)
    reference.run()
    expected = {
        job_id: (state, trials_done, gflops, point)
        for job_id, (state, trials_done, gflops, point, _) in outcomes(reference).items()
    }

    store = tmp_path / "killed"
    setup = TuningService(store, config)
    submit_mixed(setup, trials=6)
    pid = os.fork()
    if pid == 0:  # child: the daemon
        try:
            TuningService(store, config).run()
        finally:
            os._exit(0)
    time.sleep(0.25)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)

    restarted = TuningService(store, config)
    restarted.run()
    got = {
        job_id: (state, trials_done, gflops, point)
        for job_id, (state, trials_done, gflops, point, _) in outcomes(restarted).items()
    }
    assert got == expected


# -- fair share and overload ----------------------------------------------


def test_flooding_tenant_cannot_starve_others(tmp_path):
    """One tenant submits 100x its quota; the quiet tenant's job still
    starts within a bounded queue wait on the simulated clock, and the
    flood's excess is rejected durably instead of queued."""
    config = ServeConfig(
        slice_trials=2,
        max_queue=64,
        tenants={"flood": TenantPolicy(max_active=4, burst=4.0, rate=0.0)},
    )
    service = TuningService(tmp_path, config)
    flood = [
        service.submit("flood", "gemm", GEMM, "V100", trials=4,
                       seed=seed, method="random-sample")
        for seed in range(100)
    ]
    admitted = [j for j in flood if j.state is JobState.ADMITTED]
    rejected = [j for j in flood if j.state is JobState.REJECTED]
    assert len(admitted) == 4 and len(rejected) == 96
    assert any("quota" in j.reason or "rate limited" in j.reason for j in rejected)

    # Let the flood get a head start, then a quiet tenant arrives.
    service.run(max_slices=2)
    quiet = service.submit("bob", "gemm", {"n": 16, "k": 8, "m": 8}, "V100",
                           trials=4, seed=7, method="random-sample")
    assert quiet.state is JobState.ADMITTED
    service.run()
    jobs = list(service.store.jobs.values())
    assert service.store.jobs[quiet.job_id].state is JobState.DONE
    # Bounded queue wait: no worse than two worst-case slices.
    slice_costs = [
        j.sim_seconds / j.slices for j in jobs if j.slices and j.sim_seconds
    ]
    bound = 2 * max(slice_costs)
    wait = service.store.jobs[quiet.job_id].queue_wait()
    assert wait is not None and wait <= bound


def test_priority_lanes_order_within_a_tenant(tmp_path):
    service = TuningService(tmp_path, ServeConfig(slice_trials=4))
    background = service.submit("t", "gemm", GEMM, "V100", trials=2,
                                seed=0, method="random-sample", priority=2)
    interactive = service.submit("t", "gemm", {"n": 16, "k": 8, "m": 8}, "V100",
                                 trials=2, seed=0, method="random-sample",
                                 priority=0)
    first = service.step()
    assert first == interactive.job_id != background.job_id


# -- admission control -----------------------------------------------------


def test_queue_depth_bound_rejects_overflow(tmp_path):
    service = TuningService(tmp_path, ServeConfig(max_queue=2))
    states = [
        service.submit("t", "gemm", GEMM, "V100", trials=2, seed=s,
                       method="random-sample").state
        for s in range(3)
    ]
    assert states == [JobState.ADMITTED, JobState.ADMITTED, JobState.REJECTED]
    assert "queue full" in list(service.store.jobs.values())[-1].reason


def test_token_bucket_rate_limit_refills_on_simulated_clock(tmp_path):
    policy = TenantPolicy(max_active=10, burst=2.0, rate=1.0)
    service = TuningService(
        tmp_path, ServeConfig(tenants={"t": policy}, max_queue=100)
    )
    a = service.submit("t", "gemm", GEMM, "V100", trials=2, seed=0)
    b = service.submit("t", "gemm", GEMM, "V100", trials=2, seed=1)
    c = service.submit("t", "gemm", GEMM, "V100", trials=2, seed=2)
    assert [a.state, b.state, c.state] == [
        JobState.ADMITTED, JobState.ADMITTED, JobState.REJECTED,
    ]
    assert "rate limited" in c.reason
    service.advance(1.0)  # one simulated second refills one token
    d = service.submit("t", "gemm", GEMM, "V100", trials=2, seed=3)
    assert d.state is JobState.ADMITTED


@pytest.mark.parametrize("slice_trials", [0, -1])
def test_zero_trial_slices_are_rejected(slice_trials):
    # A slice of no trials preempts its job without progress forever.
    with pytest.raises(ValueError, match="slice_trials"):
        ServeConfig(slice_trials=slice_trials)


def test_token_bucket_unit():
    bucket = TokenBucket(rate=2.0, burst=3.0)
    assert [bucket.take(0.0) for _ in range(4)] == [True, True, True, False]
    assert bucket.take(0.5)          # 0.5 s * 2/s = 1 token
    assert not bucket.take(0.5)
    assert not bucket.take(0.4)      # the clock never runs backwards


def test_ttl_expiry_cancels_queued_jobs(tmp_path):
    service = TuningService(tmp_path, ServeConfig())
    job = service.submit("t", "gemm", GEMM, "V100", trials=2,
                         seed=0, ttl_seconds=5.0)
    assert job.state is JobState.ADMITTED
    service.advance(6.0)
    assert job.state is JobState.CANCELLED
    assert "ttl expired" in job.reason
    assert service.step() is None


# -- poisoned jobs ---------------------------------------------------------


def test_poisoned_job_is_quarantined_not_the_service(tmp_path):
    config = ServeConfig(slice_trials=2, max_crashes=3)
    service = TuningService(tmp_path, config)
    victim = service.submit("mallory", "gemm", GEMM, "V100", trials=8,
                            seed=0, method="random-sample")
    healthy = service.submit("alice", "gemm", {"n": 16, "k": 8, "m": 8}, "V100",
                             trials=4, seed=1, method="random-sample")
    service.chaos = ServeChaos(
        crash_slices={victim.job_id: (0, 1, 2)}
    )
    service.run()
    assert victim.state is JobState.QUARANTINED
    assert victim.crashes == 3
    assert "quarantined after 3 crashes" in victim.reason
    assert healthy.state is JobState.DONE  # the service survived

    # The quarantine is durable: a restarted daemon never reruns it.
    restarted = TuningService(tmp_path, config)
    assert restarted.store.jobs[victim.job_id].state is JobState.QUARANTINED
    assert restarted.step() is None


def test_job_crash_below_threshold_retries_and_completes(tmp_path):
    service = TuningService(tmp_path, ServeConfig(slice_trials=2, max_crashes=3))
    job = service.submit("t", "gemm", GEMM, "V100", trials=4,
                         seed=0, method="random-sample")
    service.chaos = ServeChaos(crash_slices={job.job_id: (0,)})
    service.run()
    assert job.state is JobState.DONE
    assert job.crashes == 1


# -- drain -----------------------------------------------------------------


def test_drain_stops_admission_and_slicing_durably(tmp_path):
    service = TuningService(tmp_path, ServeConfig(slice_trials=2))
    job = service.submit("t", "gemm", GEMM, "V100", trials=4,
                         seed=0, method="random-sample")
    service.run(max_slices=1)
    assert job.state is JobState.PREEMPTED
    service.drain()
    rejected = service.submit("t", "gemm", GEMM, "V100", trials=2, seed=1)
    assert rejected.state is JobState.REJECTED
    assert "draining" in rejected.reason
    assert service.run() == 0
    service.shutdown()

    # The preempted work is durable: a fresh daemon finishes it.
    restarted = TuningService(tmp_path, ServeConfig(slice_trials=2))
    restarted.run()
    assert restarted.store.jobs[job.job_id].state is JobState.DONE


# -- shared EvalCache / RecordBook across preemption and resume ------------


def test_two_jobs_share_cache_and_records_across_preemption(tmp_path):
    """Two tenants tune the same workload through one store directory:
    interleaved, preempted and resumed slices append to one EvalCache
    and one RecordBook under the fcntl locks — no lost records, no
    duplicated cache entries, and the second job is served mostly from
    the first job's measurements."""
    service = TuningService(tmp_path, ServeConfig(slice_trials=1))
    first = service.submit("alice", "gemm", GEMM, "V100", trials=4,
                           seed=0, method="random-sample")
    second = service.submit("bob", "gemm", GEMM, "V100", trials=4,
                            seed=0, method="random-sample")
    service.run()
    assert first.state is JobState.DONE and second.state is JobState.DONE
    # Interleaving really happened: both jobs were preempted mid-run.
    assert first.slices > 1 and second.slices > 1
    # Identical seed + workload: the second job re-measures nothing.
    assert second.num_measurements < first.num_measurements

    # No duplicated EvalCache entries despite interleaved appends.
    cache_path = tmp_path / "evalcache" / "evalcache.jsonl"
    entries = [
        (e["sig"], tuple(e["point"]))
        for e in map(json.loads, cache_path.read_text().splitlines())
    ]
    assert len(entries) == len(set(entries))

    # No lost records: both completions reached the shared book.
    records_path = tmp_path / "records.jsonl"
    lines = [
        json.loads(line) for line in records_path.read_text().splitlines()
        if "key" in json.loads(line)
    ]
    assert len(lines) == 2
    book = RecordBook(records_path)
    best = book.best("gemm[k=8,m=8,n=8]@V100")
    assert best is not None
    assert best.gflops == max(first.best_gflops, second.best_gflops)


# -- RecordBook signature index (satellite) --------------------------------


def _config():
    return NodeConfig(spatial_factors=((2, 4),), reduce_factors=((1, 8),))


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3),
              st.floats(0.1, 100.0, allow_nan=False)),
    max_size=25,
))
def test_signature_index_matches_full_scan(tmp_path_factory, events):
    """The O(1) best-per-signature index must agree with a brute-force
    scan of the JSONL file, both live (maintained on append) and after
    a reload (rebuilt on load)."""
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    book = RecordBook(path)
    for key_i, sig_i, gflops in events:
        book.add(TuningRecord(
            key=f"op{key_i}@dev", config=_config(), gflops=gflops,
            signature=f"sig{sig_i}" if sig_i else "",  # sig0 -> unsigned
        ))

    def scan_best(records_path, signature):
        best = None
        if not records_path.exists():
            return None
        for line in records_path.read_text().splitlines():
            record = TuningRecord.from_json(line)
            if record.signature != signature:
                continue
            if best is None or record.gflops > best.gflops:
                best = record
        return best

    reloaded = RecordBook(path)
    for sig_i in range(4):
        signature = f"sig{sig_i}" if sig_i else ""
        expected = scan_best(path, signature) if signature else None
        for instance in (book, reloaded):
            got = instance.best_for_signature(signature)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got.gflops == expected.gflops
                assert got.key == expected.key


def test_tune_workload_stamps_signature(tmp_path):
    book = RecordBook(tmp_path / "records.jsonl")
    workload = Workload("GMM", "tiny", {"n": 8, "k": 8, "m": 8})
    result = tune_workload(workload, V100, records=book, trials=2,
                           method="random-sample", seed=0)
    assert result.found
    key = "GMM[k=8,m=8,n=8]@V100"
    record = book.best(key)
    assert record is not None and record.signature
    assert book.best_for_signature(record.signature) is record
    # The signature index survives a reload too.
    assert RecordBook(tmp_path / "records.jsonl").best_for_signature(
        record.signature
    ).gflops == record.gflops


# -- CLI exit codes --------------------------------------------------------


def test_cli_serve_exit_codes(tmp_path, capsys):
    from repro.__main__ import main

    store = str(tmp_path / "svc")
    missing = str(tmp_path / "nowhere")
    submit = ["submit", "--store", store, "--tenant", "t", "--op", "gemm",
              "--n", "8", "--k", "8", "--m", "8", "--trials", "2",
              "--method", "random-sample"]
    assert main(["status", "--store", missing]) == 1
    assert main(["serve", "--store", missing]) == 1
    assert main(["lookup", "--store", missing, "--op", "gemm"]) == 1
    assert main(submit) == 0
    assert main(["lookup", "--store", store, "--op", "gemm",
                 "--n", "8", "--k", "8", "--m", "8"]) == 1   # miss
    assert main(["serve", "--store", store]) == 0
    assert main(["lookup", "--store", store, "--op", "gemm",
                 "--n", "8", "--k", "8", "--m", "8"]) == 0   # hit
    assert main(["status", "--store", store]) == 0
    # Admission rejection is a nonzero exit.
    assert main(submit + ["--max-queue", "0"]) == 1
    capsys.readouterr()


def test_cli_tune_not_found_exits_nonzero(capsys, monkeypatch):
    import repro.__main__ as cli

    class _Tuning:
        num_retries = num_quarantined = quarantine_hits = num_failures = 0
        lint_rejects = num_screened = 0
        surrogate = throughput = None

    class _Empty:
        found = False
        tuning = _Tuning()

        @staticmethod
        def summary():
            return "no schedule"

    monkeypatch.setattr(cli, "optimize", lambda *a, **k: _Empty())
    assert cli.main(["gemm", "--trials", "1"]) == 1
    assert "no valid schedule found" in capsys.readouterr().out


def test_cli_serve_reports_quarantined_jobs_nonzero(tmp_path, capsys):
    """A serve pass that leaves a job quarantined must exit nonzero."""
    from repro.__main__ import main

    store = tmp_path / "svc"
    service = TuningService(store, ServeConfig(slice_trials=2, max_crashes=2))
    job = service.submit("t", "gemm", GEMM, "V100", trials=4,
                         seed=0, method="random-sample")
    service.chaos = ServeChaos(crash_slices={job.job_id: (0, 1)})
    service.run()
    assert job.state is JobState.QUARANTINED
    assert main(["serve", "--store", str(store)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["serve", "--slice-trials", "0"],
    ["serve", "--workers", "-3"],
    ["gemm", "--workers", "0"],
    ["tune-network", "--slice-trials", "0"],
])
def test_cli_counts_must_be_positive(tmp_path, capsys, argv):
    from repro.__main__ import main

    store = str(tmp_path / "nowhere")
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--store", store] if argv[0] != "gemm" else []))
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "nowhere").exists()
