"""Debug layer: levels, flight recorder, desync diagnosis, the hang
watch, monitored barrier, and the shutdown-unwedging regression."""

import json
import re
import sys
import threading
import time

import numpy as np
import pytest

from repro.comm import (
    CollectiveError,
    CollectiveTimeoutError,
    get_context,
    monitored_barrier,
    new_process_group,
)
from repro.core import DistributedDataParallel
from repro.core.bucket import compute_bucket_assignment
from repro.core.reducer import Reducer, ReducerError
from repro.debug import (
    CollectiveRecord,
    FlightRecorder,
    all_recorders,
    build_desync_report,
    collective_context,
    current_collective_context,
    debug_level_name,
    describe_fingerprint,
    diff_fingerprints,
    dump_all,
    dump_json,
    fingerprint,
    recorder_for,
    render_cross_rank,
    render_mismatch,
    set_debug_level,
)
from repro.nn.module import Parameter
from repro.utils import manual_seed

from conftest import bare_work, run_world, small_classifier, wait_until


class TestLevels:
    def test_parse_names_and_ints(self, debug_level):
        assert debug_level("info") == 1
        assert debug_level("DETAIL") == 2
        assert debug_level(0) == 0
        assert debug_level("on") == 1

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="REPRO_DEBUG"):
            set_debug_level("verbose")
        with pytest.raises(ValueError):
            set_debug_level(7)


def _record(recorder, seq, op="allreduce", group_id=0, array=None):
    """Issue one collective on ``recorder`` the way ``_issue`` does."""
    record = CollectiveRecord(seq, group_id, fingerprint(op, array))
    recorder.add(record)
    return record


class TestFlightRecorder:
    def test_ring_drops_oldest(self):
        recorder = FlightRecorder(rank=0, capacity=4)
        for seq in range(6):
            _record(recorder, seq)
        assert recorder.depth() == 4
        assert recorder.dropped == 2
        assert [r.seq for r in recorder.records()] == [2, 3, 4, 5]

    def test_lifecycle_and_snapshot(self):
        recorder = FlightRecorder(rank=1)
        first = _record(recorder, 0, array=np.zeros(4))
        assert (first.shape, first.dtype, first.nbytes) == ((4,), "float64", 32)
        assert first.state == "started" and first.t_start is not None
        first.finish()
        with collective_context("bucket 2", 2):
            second = _record(recorder, 1, "broadcast")

        snap = recorder.group_snapshot(0)
        assert snap["last_completed"]["seq"] == 0
        assert snap["last_scheduled"]["seq"] == 1
        assert snap["inflight"]["op"] == "broadcast"
        assert snap["inflight"]["context"] == "bucket 2"
        assert second.bucket == 2
        assert len(snap["tail"]) == 2

        second.finish(RuntimeError("boom"))
        assert recorder.inflight(0) is None
        assert recorder.records()[-1].state == "failed"
        assert "boom" in recorder.tail(1)[0]["error"]
        # First terminal state wins: a late success changes nothing.
        t_end = second.t_end
        second.finish()
        assert (second.state, second.t_end) == ("failed", t_end)

    def test_racing_finishers_leave_one_consistent_terminal_state(self):
        """Worker, caller timeout and watchdog may finish a record at
        once: state, error and end stamp must all come from one call."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seq in range(100):
                record = CollectiveRecord(seq, 0, fingerprint("allreduce"))
                gate = threading.Barrier(8)
                stamps = []

                def racer(i):
                    gate.wait(timeout=5)
                    record.finish(RuntimeError(str(i)) if i % 2 else None)
                    stamps.append(record.t_end)

                threads = [threading.Thread(target=racer, args=(i,))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=5)
                assert not any(thread.is_alive() for thread in threads)
                assert (record.state == "failed") == (record.error is not None)
                assert record.state in ("completed", "failed")
                assert len(set(stamps)) == 1  # stamped exactly once
        finally:
            sys.setswitchinterval(previous)

    def test_records_filter_by_group(self):
        recorder = FlightRecorder(rank=0)
        _record(recorder, 0, group_id=1)
        _record(recorder, 0, group_id=2)
        assert len(recorder.records(group_id=1)) == 1
        assert recorder.group_snapshot(2)["last_scheduled"]["group_id"] == 2

    def test_context_label(self):
        assert current_collective_context() is None
        with collective_context("bucket 3"):
            assert current_collective_context() == "bucket 3"
        assert current_collective_context() is None

    def test_dump_json_and_cross_rank_table(self, tmp_path, debug_level):
        debug_level("INFO")

        def body(rank):
            pg = get_context().default_group
            with collective_context("step 0"):
                pg.allreduce(np.ones(3))
            pg.broadcast(np.zeros(2), src=0)
            return pg.flight_recorder.depth()

        assert run_world(2, body, backend="gloo") == [2, 2]

        path = tmp_path / "recorders.json"
        parsed = json.loads(dump_json(str(path)))
        assert path.exists()
        dumps = parsed["flight_recorders"]
        assert {d["rank"] for d in dumps} == {0, 1}
        records = dumps[0]["records"]
        assert [r["op"] for r in records] == ["allreduce", "broadcast"]
        assert records[0]["state"] == "completed"
        assert records[0]["context"] == "step 0"
        assert records[0]["shape"] == [3]

        table = render_cross_rank(dump_all())
        assert "rank 0" in table and "rank 1" in table
        assert "allreduce" in table and "[step 0]" in table

    def test_off_records_nothing(self, debug_level):
        """OFF with telemetry off: no liveness thread, and the (always
        bound) ring retains nothing."""
        debug_level("OFF")

        def body(rank):
            pg = get_context().default_group
            pg.allreduce(np.ones(3))
            return pg.flight_recorder.depth() == 0 and not get_context().monitor.is_alive()

        assert run_world(2, body, backend="gloo") == [True, True]
        assert sorted(all_recorders()) == [0, 1]
        assert all(ring.depth() == 0 for ring in all_recorders().values())


class TestDesyncDiff:
    def test_fingerprint_and_diff(self):
        mine = fingerprint("allreduce", np.zeros(3), reduce_op="sum")
        theirs = fingerprint("allreduce", np.zeros((2, 2)), reduce_op="max")
        assert mine["shape"] == (3,) and mine["nbytes"] == 24
        diffs = diff_fingerprints(mine, theirs)
        assert "reduce_op: sum != max" in diffs
        assert any(d.startswith("shape:") for d in diffs)
        assert diff_fingerprints(mine, dict(mine)) == []

    def test_describe_and_render(self):
        mine = fingerprint("allreduce", np.zeros(3))
        leader = fingerprint("broadcast", np.zeros(4), src=0)
        assert describe_fingerprint(mine).startswith("allreduce(")
        text = render_mismatch(
            5, 7, 1, mine, 0, leader, peer_signatures={0: leader, 1: mine}
        )
        assert "collective #7 mismatch in group 5" in text
        assert "rank 1 issued" in text and "leader rank 0 issued" in text
        assert "op: allreduce != broadcast" in text
        assert "<- differs" in text

    def test_desync_report_classification(self):
        stuck = {"op": "allreduce", "seq": 3, "group_id": 0, "shape": [4],
                 "dtype": "float64", "nbytes": 32, "state": "started"}
        states = {
            0: {"rank": 0, "status": "running",
                "last_completed": {"op": "allreduce", "seq": 2},
                "last_scheduled": {"op": "allreduce", "seq": 3},
                "inflight": None, "tail": []},
            1: {"rank": 1, "status": "shutdown",
                "last_completed": {"op": "allreduce", "seq": 1},
                "last_scheduled": {"op": "allreduce", "seq": 1},
                "inflight": None, "tail": []},
            2: None,
        }
        report = build_desync_report(0, 0, stuck, 5.0, states)
        assert report.missing == [2]
        assert report.culprits == [1, 2]  # rank 1 behind, rank 2 silent
        assert report.laggards == [2]     # never completed anything
        text = report.render()
        assert "allreduce#3@pg0" in text
        assert "rank 2: <no response>" in text
        assert "rank 1 (shutdown)" in text


class TestWatchdog:
    def test_watchdog_diagnoses_hang_within_timeout(self, debug_level):
        debug_level("DETAIL")
        timeout = 2.0

        def body(rank):
            pg = get_context().default_group
            pg.allreduce(np.ones(4))
            if rank == 0:
                pg.allreduce(np.ones(4))  # rank 1 never joins

        start = time.perf_counter()
        with pytest.raises(RuntimeError) as excinfo:
            run_world(2, body, backend="gloo", timeout=timeout)
        elapsed = time.perf_counter() - start
        message = str(excinfo.value)
        assert "cross-rank desync detected" in message
        assert "allreduce#1" in message
        assert "culprit rank(s) [1]" in message
        assert "rank 1 (shutdown)" in message
        assert elapsed < timeout, (
            f"diagnosis took {elapsed:.2f}s; watchdog should beat the "
            f"{timeout}s transport timeout"
        )

    def test_healthy_run_raises_no_alarm(self, debug_level):
        debug_level("INFO")

        def body(rank):
            pg = get_context().default_group
            for _ in range(3):
                pg.allreduce(np.ones(2))
            return get_context().monitor.status()

        statuses = run_world(2, body, backend="gloo")
        assert all(s["alarms_raised"] == 0 for s in statuses)
        assert all(s["active"] for s in statuses)


def liveness_threads(rank):
    """Names of the threads that watch or beat for ``rank``: every live
    thread named after it except rank threads and checkpoint writers."""
    return sorted(
        t.name for t in threading.enumerate()
        if re.search(rf"rank{rank}(?!\d)", t.name)
        and not re.fullmatch(rf"(elastic-g\d+-)?rank{rank}", t.name)
        and not t.name.startswith("ckpt-")
    )


class TestLiveness:
    def test_one_liveness_thread_per_rank(self, debug_level, tmp_path):
        """A default group plus two more groups, and an elastic rank, each
        run exactly one thread that watches and beats."""
        from repro.optim import SGD
        from repro.resilience import ElasticConfig, run_elastic

        debug_level("INFO")

        def body(rank):
            new_process_group("gloo")
            new_process_group("gloo")
            return liveness_threads(rank)

        assert run_world(2, body, backend="gloo") == [
            ["liveness-rank0"], ["liveness-rank1"],
        ]

        seen = {}

        def setup(ctx):  # runs once the rank's group is watched
            seen[ctx.rank] = liveness_threads(ctx.rank)
            model = small_classifier()
            return model, SGD(model.parameters(), lr=0.05)

        def step(ctx, model, opt, iteration):
            return 0.0

        result = run_elastic(2, setup, step, total_iterations=1,
                             config=ElasticConfig(checkpoint_dir=str(tmp_path)))
        assert result.completed
        assert seen == {0: ["liveness-rank0"], 1: ["liveness-rank1"]}

    def test_second_group_hang_shows_in_ddp_stats(self, debug_level):
        """The status covers every group the rank watches, not just the
        one DDP runs on."""
        debug_level("INFO")

        def body(rank):
            other = new_process_group("gloo", timeout=1.5)
            manual_seed(0)
            ddp = DistributedDataParallel(small_classifier())
            if rank == 0:  # rank 1 never joins the other group's collective
                with pytest.raises(CollectiveTimeoutError, match="desync"):
                    other.allreduce(np.ones(4))
            return get_context().monitor.status()

        statuses = run_world(2, body, backend="gloo")
        assert statuses[0]["alarms_raised"] >= 1
        assert "allreduce" in statuses[0]["last_report"]


class TestMismatchDiagnosis:
    def test_mismatch_shows_both_fingerprints_at_detail(self, debug_level):
        debug_level("DETAIL")

        def body(rank):
            pg = get_context().default_group
            pg.allreduce(np.zeros(4 if rank == 0 else 3))

        with pytest.raises(RuntimeError, match="mismatch") as excinfo:
            run_world(2, body, backend="gloo", timeout=3)
        message = str(excinfo.value)
        assert "shape: (3,) != (4,)" in message
        assert "shape=(3,)" in message and "shape=(4,)" in message
        assert "per-rank signatures" in message


class TestWorkMeta:
    def test_timeout_error_names_collective_meta(self):
        work = bare_work(seq=3, bytes=64)
        with pytest.raises(CollectiveTimeoutError) as excinfo:
            work.wait(timeout=0.01)
        message = str(excinfo.value)
        assert "allreduce#3" in message
        assert "bytes=64" in message and "op=allreduce" in message
        assert "seq=3" in message

    def test_first_completion_wins(self):
        work = bare_work()
        rich = CollectiveTimeoutError("rich desync report")
        work._complete(rich)
        work._complete(CollectiveTimeoutError("bare transport timeout"))
        with pytest.raises(CollectiveTimeoutError, match="rich desync report"):
            work.wait(timeout=0.1)


class TestMonitoredBarrier:
    def test_all_ranks_pass_repeatedly(self):
        def body(rank):
            monitored_barrier()
            monitored_barrier()
            return True

        assert run_world(3, body, backend="gloo") == [True, True, True]

    def test_missing_rank_named(self):
        def body(rank):
            if rank != 1:
                monitored_barrier(timeout=0.5)

        with pytest.raises(RuntimeError, match=r"rank\(s\) \[1\] never reached"):
            run_world(3, body, backend="gloo", timeout=5.0)


class TestShutdownUnwedging:
    def test_shutdown_unblocks_stuck_worker(self):
        """Regression: a thread parked in the split-phase wait of a ring
        AllReduce no peer will ever join used to wedge shutdown until the
        full transport timeout."""

        def body(rank):
            pg = get_context().default_group
            if rank == 0:  # rank 1 never joins
                work = pg.allreduce(np.ones(1 << 15), async_op=True)
                assert work.record.extra["algorithm"] == "ring"
                errors = []

                def waiter():
                    try:
                        work.wait()
                    except CollectiveError as exc:
                        errors.append(exc)

                thread = threading.Thread(target=waiter, name="ring-waiter")
                thread.start()
                wait_until(lambda: pg._executing)  # parked inside the transport
            start = time.perf_counter()
            ok = pg.shutdown(grace=0.3)
            elapsed = time.perf_counter() - start
            if rank == 0:
                thread.join(5)
                assert not thread.is_alive() and len(errors) == 1
            return ok, elapsed

        results = run_world(2, body, backend="gloo", timeout=30.0)
        for ok, elapsed in results:
            assert ok, "the parked waiter did not return after hub close"
            assert elapsed < 5.0, (
                f"shutdown took {elapsed:.1f}s — the parked wait was not "
                "unwedged (transport timeout is 30s)"
            )

    def test_shutdown_idempotent(self):
        def body(rank):
            pg = get_context().default_group
            pg.allreduce(np.ones(2))
            assert pg.shutdown()
            assert pg.shutdown()  # second call must not raise or hang
            return True

        assert run_world(2, body, backend="gloo") == [True, True]


class TestReducerDiagnostics:
    def _make_reducer(self, group):
        params = [Parameter(np.zeros(4)) for _ in range(3)]
        specs = compute_bucket_assignment(params, bucket_cap_bytes=10**9)
        return params, Reducer(
            params, specs, group, param_names=["net.w", "net.b", "head.w"]
        )

    def test_unready_parameters_named(self):
        class _Group:
            size = 2
            supports_cpu_tensors = True

            def allreduce(self, tensor, op="sum", async_op=False):
                return None

        params, reducer = self._make_reducer(_Group())
        reducer.prepare_for_backward([])
        (params[0].sum() * 1.0).backward()  # only net.w gets a gradient
        unready = reducer.unready_parameters()
        assert [entry["name"] for entry in unready] == ["net.b", "head.w"]
        with pytest.raises(ReducerError) as excinfo:
            reducer.prepare_for_backward([])
        message = str(excinfo.value)
        assert "net.b (index 1" in message
        assert "head.w (index 2" in message
        assert "net.w" not in message.split("Unready parameter(s)")[1]


class TestDDPConstructionChecks:
    def test_structure_mismatch_named(self, debug_level):
        debug_level("INFO")

        def body(rank):
            manual_seed(3)
            from repro import nn

            model = nn.Linear(6, 4) if rank == 0 else nn.Linear(6, 5)
            DistributedDataParallel(model)

        with pytest.raises(RuntimeError, match="replica structure mismatch") as excinfo:
            run_world(2, body, backend="gloo", timeout=3)
        message = str(excinfo.value)
        assert "weight" in message
        assert "(4, 6)" in message and "(5, 6)" in message

    def test_consistent_model_passes_detail(self, debug_level):
        debug_level("DETAIL")

        def body(rank):
            DistributedDataParallel(small_classifier())
            return debug_level_name(), recorder_for(rank).depth() > 0

        assert run_world(2, body, backend="gloo") == [
            ("DETAIL", True), ("DETAIL", True)
        ]
