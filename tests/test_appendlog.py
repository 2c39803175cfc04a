"""The durable JSON-lines primitive under every store: one failure-mode
matrix against :class:`AppendLog`, its load stats, and the same corrupt
input fed to each of the four stores built on it."""

import json
import math
import multiprocessing
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import optimize
from repro.model import V100
from repro.ops import conv2d_compute
from repro.runtime import EvalCache, RecordBook, TuningRecord, load_checkpoint, save_checkpoint
from repro.runtime.appendlog import PIECE_ROWS, AppendLog
from repro.schedule import NodeConfig
from repro.serve.jobstore import Job, JobState, JobStore


def _identity(payload):
    return payload


def replay_all(log):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = list(log.replay(_identity))
    return values, [str(w.message) for w in caught]


def write_valid(path, count):
    log = AppendLog(path)
    log.append([{"i": i} for i in range(count)])
    return log


# -- failure-mode matrix ----------------------------------------------------

class TestFailureModes:
    def test_torn_final_line_is_skipped(self, tmp_path):
        log = write_valid(tmp_path / "log.jsonl", 2)
        with open(log.path, "a") as f:
            f.write('{"i": 2, "killed-mid-wr')
        values, warned = replay_all(log)
        assert values == [{"i": 0}, {"i": 1}]
        assert warned == [f"skipping corrupt line at {log.path}:3"]

    def test_append_after_torn_final_line_starts_a_new_line(self, tmp_path):
        log = write_valid(tmp_path / "log.jsonl", 2)
        data = log.path.read_bytes()
        log.path.write_bytes(data[:-4])
        log.append([{"i": 2}])
        values, warned = replay_all(log)
        assert values == [{"i": 0}, {"i": 2}]
        assert warned == [f"skipping corrupt line at {log.path}:2"]

    def test_binary_garbage_is_one_bad_line(self, tmp_path):
        log = write_valid(tmp_path / "log.jsonl", 1)
        with open(log.path, "ab") as f:
            f.write(b"\xff\xfe\x00garbage\x80\n")
        log.append([{"i": 1}])
        values, warned = replay_all(log)
        assert values == [{"i": 0}, {"i": 1}]
        assert len(warned) == 1

    @pytest.mark.parametrize("line", ["[1, 2]", "3", '"text"', "null", "true"])
    def test_non_object_json_is_skipped(self, tmp_path, line):
        log = write_valid(tmp_path / "log.jsonl", 1)
        with open(log.path, "a") as f:
            f.write(line + "\n")
        values, warned = replay_all(log)
        assert values == [{"i": 0}]
        assert len(warned) == 1

    def test_parse_rejections_are_skipped(self, tmp_path):
        log = write_valid(tmp_path / "log.jsonl", 4)

        def parse(payload):
            i = payload["i"]
            if i == 1:
                raise KeyError("missing")
            if i == 2:
                raise TypeError("wrong type")
            if i == 3:
                raise ValueError("bad value")
            return i

        with pytest.warns(UserWarning, match="skipping corrupt line"):
            assert list(log.replay(parse)) == [0]
        assert (log.replayed, log.skipped) == (1, 3)

    def test_file_truncated_mid_line_keeps_the_intact_prefix(self, tmp_path):
        log = write_valid(tmp_path / "log.jsonl", 3)
        data = log.path.read_bytes()
        log.path.write_bytes(data[: data.rindex(b"{") + 4])
        values, warned = replay_all(log)
        assert values == [{"i": 0}, {"i": 1}]
        assert len(warned) == 1

    def test_missing_file_replays_nothing(self, tmp_path):
        log = AppendLog(tmp_path / "absent.jsonl")
        assert list(log.replay(_identity)) == []
        assert log.newest() is None
        assert log.stats() == {"replayed": 0, "skipped": 0, "bytes_read": 0}

    def test_leftover_tmp_from_a_killed_rewrite(self, tmp_path):
        log = AppendLog(tmp_path / "run.ckpt")
        log.rewrite({"trial": 1}, keep=3)
        tmp = log.path.with_name(log.path.name + ".tmp")
        tmp.write_text('{"trial": 99, "killed-mid-wr')
        assert log.newest() == {"trial": 1}
        log.rewrite({"trial": 2}, keep=3)
        assert log.newest() == {"trial": 2}
        assert not tmp.exists()

    def test_rewrite_keeps_the_newest_lines(self, tmp_path):
        log = AppendLog(tmp_path / "run.ckpt")
        for i in range(5):
            log.rewrite({"trial": i}, keep=3)
        lines = log.path.read_text().splitlines()
        assert [json.loads(line)["trial"] for line in lines] == [2, 3, 4]

    def test_newest_never_parses_older_lines(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text('{"trial": 1, "torn\n[1, 2]\n{"trial": 2}\n')
        log = AppendLog(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log.newest() == {"trial": 2}
        assert (log.replayed, log.skipped) == (1, 0)

    def test_newest_walks_back_past_corrupt_lines(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b'{"trial": 1}\n[1, 2]\n\xff\xfe\n{"trial": 2, "to')
        log = AppendLog(path)
        with pytest.warns(UserWarning):
            assert log.newest() == {"trial": 1}
        assert (log.replayed, log.skipped) == (1, 3)

    @pytest.mark.slow
    def test_two_processes_append_whole_lines(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        procs = [
            multiprocessing.Process(target=_append_batches, args=(path, tag, 40))
            for tag in (1, 2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = list(AppendLog(path).replay(_identity))
        assert len(values) == 2 * 40 * 3
        for tag in (1, 2):
            mine = [(v["batch"], v["j"]) for v in values if v["tag"] == tag]
            assert mine == [(b, j) for b in range(40) for j in range(3)]


# -- the streamed new line -------------------------------------------------

_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=8)
_ROW = st.lists(_FLOATS, max_size=4) | st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(_ROW, min_size=PIECE_ROWS + 1, max_size=3 * PIECE_ROWS + 2)
        | st.dictionaries(st.text(max_size=6), children, max_size=5)
        | st.dictionaries(st.none() | st.booleans() | st.integers() | _FLOATS,
                          children, max_size=3)
    ),
    max_leaves=40,
)


class TestStreamedLine:
    """``rewrite`` writes the new line in pieces; the bytes must be
    exactly ``json.dumps`` of the payload."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=_VALUES, key=st.text(max_size=4))
    def test_line_equals_json_dumps(self, tmp_path, value, key):
        log = AppendLog(tmp_path / "run.ckpt")
        for payload in ({key: value}, {"v": value, "tail": [value, {"x": value}]}):
            log.rewrite(payload, keep=1)
            assert log.path.read_bytes() == (json.dumps(payload) + "\n").encode()

    def test_every_q_method_snapshot_equals_json_dumps(self, tmp_path, monkeypatch):
        path = tmp_path / "run.ckpt"
        rewrite, written = AppendLog.rewrite, []

        def checked_rewrite(log, payload, keep):
            rewrite(log, payload, keep)
            line = log.path.read_text().splitlines()[-1]
            assert line == json.dumps(payload)
            written.append(len(line))

        monkeypatch.setattr(AppendLog, "rewrite", checked_rewrite)
        output = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")
        optimize(output, V100, trials=6, seed=3, method="q",
                 checkpoint=path, checkpoint_every=1)
        assert len(written) >= 6
        assert load_checkpoint(path)["version"] == 1

    def test_save_peaks_below_the_line_length(self, tmp_path):
        """Building the line with one ``json.dumps`` peaks at about three
        times this line's length (chunk list plus joined text)."""
        rng = np.random.default_rng(0)
        sizes = [64, 128, 128, 128, 64]

        def layers():
            return [rng.standard_normal((a, b)).tolist() for a, b in zip(sizes, sizes[1:])]

        snapshot = {"trial": 40, "agent": {"net": {
            "weights": layers(), "biases": [[0.5] * b for b in sizes[1:]],
            "optimizer": {"grad_sq": layers(), "delta_sq": layers()},
        }}}
        path = tmp_path / "run.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, snapshot)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        line = path.read_bytes()
        assert len(line) >= 2_000_000
        assert peak < len(line)

    @pytest.mark.parametrize("bad", [{"b": {1, 2}}, {(1, 2): "tuple key"}],
                             ids=["set_value", "tuple_key"])
    def test_rejected_payload_leaves_the_file_as_it_was(self, tmp_path, bad):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"trial": 1, "rows": [[0.25] * 8] * 40})
        before = path.read_bytes()
        payload = {"trial": 2, "rows": [[0.5] * 8] * 40, "bad": bad}
        with pytest.raises(TypeError) as expected:
            json.dumps(payload)
        with pytest.raises(TypeError) as raised:
            save_checkpoint(path, payload)
        assert str(raised.value) == str(expected.value)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def _append_batches(path, tag, batches):
    log = AppendLog(path)
    for b in range(batches):
        log.append([{"tag": tag, "batch": b, "j": j, "pad": "x" * 200} for j in range(3)])


# -- load stats -------------------------------------------------------------

def test_load_stats_count_a_known_file(tmp_path):
    path = tmp_path / "known.jsonl"
    data = (
        b'{"i": 0}\n'
        b"\n"                        # blank: neither replayed nor skipped
        b'{"i": 1, "type": "side"}\n'  # the parse's own ignore: not counted
        b"\xff\xfe\n"
        b'{"i": 2}\n'
        b"[1, 2]\n"
        b'{"i": 3'                   # torn tail
    )
    path.write_bytes(data)
    log = AppendLog(path)
    with pytest.warns(UserWarning):
        values = list(log.replay(lambda p: None if "type" in p else p["i"]))
    assert values == [0, 2]
    assert log.stats() == {"replayed": 2, "skipped": 3, "bytes_read": len(data)}


def test_store_load_stats(tmp_path):
    cache = EvalCache(tmp_path / "cache")
    cache.put("sig", (1,), 1.0, "ok")
    cache.put("sig", (2,), 2.0, "ok")
    with open(cache.path, "ab") as f:
        f.write(b"[1, 2]\n")
    size = cache.path.stat().st_size
    with pytest.warns(UserWarning):
        stats = EvalCache(tmp_path / "cache").stats()
    assert (stats["replayed"], stats["skipped"], stats["bytes_read"]) == (2, 1, size)

    book = RecordBook(tmp_path / "records.jsonl")
    book.add(_record())
    book.add_metrics({"n": 1})
    reloaded = RecordBook(book.path)
    assert reloaded.load_stats() == {
        "replayed": 1, "skipped": 0, "bytes_read": book.path.stat().st_size,
    }
    assert RecordBook(None).load_stats()["bytes_read"] == 0

    store = JobStore(tmp_path / "serve")
    store.submit(_job(store), clock=0.0)
    store.note("drain", clock=1.0)
    assert JobStore(store.store_dir).load_stats()["replayed"] == 2


def test_eval_cache_load_stats_reach_the_tune_result(tmp_path):
    from repro.explore import FlexTensorTuner
    from repro.model import V100
    from repro.ops import gemm_compute
    from repro.runtime import BatchEngine, Evaluator

    def run():
        ev = Evaluator(gemm_compute(8, 8, 8, name="g"), V100, eval_cache=EvalCache(tmp_path))
        return FlexTensorTuner(ev, seed=0, engine=BatchEngine(ev, workers=1)).tune(2, num_seeds=2)

    cold = run().throughput["eval_cache"]
    warm = run().throughput["eval_cache"]
    assert (cold["replayed"], cold["bytes_read"]) == (0, 0)
    assert warm["replayed"] == cold["stores"] > 0
    assert warm["skipped"] == 0 and warm["bytes_read"] > 0


# -- the four stores on the same corrupt input -------------------------------

def _record():
    return TuningRecord(
        key="k1", gflops=5.0,
        config=NodeConfig(spatial_factors=((1,),), reduce_factors=()),
    )


def _job(store):
    return Job(job_id=store.new_job_id("t"), tenant="t", operator="gemm",
               params={"n": 8}, device="v100", trials=1)


def _cache_case(tmp_path):
    cache = EvalCache(tmp_path)
    cache.put("sig", (1, 2), 5.0, "ok")
    return cache.path, lambda: EvalCache(tmp_path).get("sig", (1, 2)) == (5.0, "ok")


def _records_case(tmp_path):
    path = tmp_path / "records.jsonl"
    RecordBook(path).add(_record())

    def check():
        book = RecordBook(path)
        return book.best("k1").gflops == 5.0 and book.metrics() == []
    return path, check


def _checkpoint_case(tmp_path):
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, {"trial": 7})
    return path, lambda: load_checkpoint(path)["trial"] == 7


def _jobstore_case(tmp_path):
    store = JobStore(tmp_path)
    job = _job(store)
    store.submit(job, clock=0.0)
    store.transition(job, JobState.ADMITTED, clock=1.0)

    def check():
        reloaded = JobStore(tmp_path)
        return reloaded.jobs[job.job_id].state is JobState.ADMITTED and reloaded.clock == 1.0
    return store.path, check


@pytest.mark.parametrize("case", [_cache_case, _records_case, _checkpoint_case, _jobstore_case],
                         ids=["eval_cache", "record_book", "checkpoint", "job_store"])
def test_every_store_survives_garbage_and_non_object_lines(tmp_path, case):
    path, reloads_valid_entry = case(tmp_path)
    with open(path, "ab") as f:
        f.write(b"\xff\xfe\n[1,2]\n")
    with pytest.warns(UserWarning, match="skipping corrupt"):
        assert reloads_valid_entry()
