"""Comm health engine: efficiency accounting, causal timeline, attribution.

Covers the health acceptance surface: per-collective efficiency metrics
(achieved bus bandwidth, chunk-pipeline utilization, receive-stall
attribution) flowing into ``health_report()`` and Prometheus, the
cross-rank causal timeline stitched from the record rings, the rule-based
anomaly detectors on synthetic signals, and — the headline — a seeded
fault matrix where injected faults yield the *correct* attributed
diagnosis on every seed while fault-free runs stay silent.
"""

from __future__ import annotations

import importlib.util
import json
import os

import numpy as np
import pytest

from conftest import run_world
from repro import nn, optim, telemetry
from repro.autograd import Tensor
from repro.resilience import FaultPlan
from repro.resilience.faults import delay, slow_rank
from repro.simnet import cost_model_for
from repro.telemetry.health import (
    DESYNC_PRECURSOR,
    PERSISTENT_STRAGGLER,
    SLOW_LINK,
    Diagnosis,
    analyze_dumps,
    merge_causal_timeline,
    render_diagnoses,
    seq_frontier,
)
from repro.core import DistributedDataParallel
from repro.debug import CollectiveRecord, FlightRecorder, dump_all, dump_json, recorder_for
from repro.debug.flight_recorder import DEFAULT_CAPACITY
from repro.telemetry.metrics import all_snapshots, registry_for
from repro.utils import manual_seed

WORLD = 4


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry off and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _train(rank, iterations=5, width=96, bucket_cap_mb=0.02, stats=True, read=False):
    """One rank of a multi-bucket DDP loop; returns ddp_stats() (None
    without ``stats``).  With ``read`` every iteration also reads
    ``ddp_stats()`` and the rank's health report."""
    manual_seed(3)
    net = nn.Sequential(
        nn.Linear(32, width), nn.ReLU(), nn.Linear(width, width), nn.ReLU(),
        nn.Linear(width, 8),
    )
    ddp = DistributedDataParallel(net, bucket_cap_mb=bucket_cap_mb)
    opt = optim.SGD(ddp.parameters(), lr=0.01)
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(rank)
    for _ in range(iterations):
        inp = Tensor(rng.standard_normal((16, 32)))
        exp = rng.integers(0, 8, 16)
        opt.zero_grad()
        loss_fn(ddp(inp), exp).backward()
        opt.step()
        if read:
            ddp.ddp_stats()
            telemetry.health_report(rank)
    return ddp.ddp_stats() if stats else None


def _train_and_report(rank):
    """``_train``, then the rank's health report and ring depth."""
    _train(rank)
    return telemetry.health_report(rank), recorder_for(rank).depth()


# ----------------------------------------------------------------------
# record ring + causal stitching (unit)
# ----------------------------------------------------------------------
def _stamped(seq, t_start, t_end=None, bucket=None, group=0):
    """An allreduce record with hand-set lifecycle stamps."""
    record = CollectiveRecord(seq, group, {"op": "allreduce"})
    record.t_start, record.t_end = t_start, t_end
    record.bucket = bucket
    return record


class TestRecordRing:
    def test_ring_is_bounded_and_counts_drops(self):
        # Two events per record (start, then complete or failed): the
        # default ring stitches at least as many collectives as a
        # 4,096-event log did.
        assert 2 * DEFAULT_CAPACITY >= 4096
        ring = FlightRecorder(rank=0, capacity=8)
        for seq in range(12):
            ring.add(_stamped(seq, t_start=float(seq)))
        assert ring.depth() == 8
        assert ring.dropped == 4
        assert [r.seq for r in ring.records()] == list(range(4, 12))

    def test_merge_stitches_by_group_seq_and_measures_skew(self):
        rings = {rank: FlightRecorder(rank=rank) for rank in (0, 1)}
        rings[0].add(_stamped(5, 1.00, t_end=1.20, bucket=2))
        rings[1].add(_stamped(5, 1.08))
        failed = _stamped(6, 1.40)
        failed.finish(RuntimeError("peer vanished"))
        rings[1].add(failed)
        timeline = merge_causal_timeline(rings)
        assert [entry["seq"] for entry in timeline] == [5, 6]
        entry = timeline[0]
        assert entry["ranks"] == [0, 1]
        assert entry["op"] == "allreduce" and entry["bucket"] == 2
        assert entry["start_skew_s"] == pytest.approx(0.08)
        assert [(e["kind"], e["rank"]) for e in entry["events"]] == [
            ("start", 0), ("start", 1), ("complete", 0),
        ]
        assert (entry["t_first"], entry["t_last"]) == (1.00, 1.20)
        last = timeline[1]["events"][-1]
        assert last["kind"] == "failed"
        assert last["extra"] == {"error": "RuntimeError"}

    def test_seq_frontier_tracks_highest_started_seq(self):
        rings = {rank: FlightRecorder(rank=rank) for rank in (0, 1)}
        for seq in range(6):
            rings[0].add(_stamped(seq, t_start=float(seq)))
        rings[1].add(_stamped(1, t_start=1.0))
        rings[1].add(_stamped(9, t_start=9.0, group=1))  # another group's frontier
        assert seq_frontier([ring.dump() for ring in rings.values()]) == {
            0: {0: 5, 1: 1}, 1: {1: 9}}

    def test_dump_all_covers_every_ring_and_registry(self):
        """A rank whose registry holds a series but whose ring holds no
        record is dumped too, and a ring's dump carries its rank's
        metrics snapshot."""
        recorder_for(0).add(_stamped(0, t_start=0.0))
        registry_for(3).counter("c").add(2)
        registry_for(-1).gauge("health.diagnoses_active").set(0)
        dumps = json.loads(json.dumps(dump_all()))
        assert [dump["rank"] for dump in dumps] == [0, 3]
        assert [r["seq"] for r in dumps[0]["records"]] == [0]
        assert dumps[0]["incidents"] == [] and dumps[0]["metrics"]["rank"] == 0
        assert dumps[1]["records"] == []
        assert dumps[1]["metrics"]["counters"] == {"c": 2}

    def test_clear_recorders_drops_the_metrics(self):
        """The ring holds its rank's registry: one clear empties both."""
        from repro.debug import clear_recorders

        registry_for(0).counter("c").add(1)
        assert registry_for(0) is recorder_for(0).metrics
        assert [snap["rank"] for snap in all_snapshots()] == [0]
        clear_recorders()
        assert all_snapshots() == []


# ----------------------------------------------------------------------
# detectors over synthetic signals (unit)
# ----------------------------------------------------------------------
def _dump(rank, counters=None, histograms=None):
    """A rank's dump with no records or incidents, only metrics."""
    metrics = {"rank": rank, "counters": counters or {}, "gauges": {},
               "histograms": histograms or {}}
    return {"rank": rank, "records": [], "incidents": [], "metrics": metrics}


class TestDetectors:
    def test_straggler_needs_multiple_reporters(self):
        snaps = [
            _dump(0, {"comm.recv_stall_s.from_rank_1": 0.5}),
            _dump(1),
            _dump(2, {"comm.recv_stall_s.from_rank_1": 0.4}),
            _dump(3, {"comm.recv_stall_s.from_rank_0": 0.05}),
        ]
        diagnoses = analyze_dumps(snaps)
        assert [d.kind for d in diagnoses] == [PERSISTENT_STRAGGLER]
        straggler = diagnoses[0]
        assert straggler.culprit_rank == 1
        assert straggler.evidence["reporters"] == [0, 2]
        assert straggler.confidence > 0.9

    def test_single_reporter_is_a_slow_link(self):
        snaps = [
            _dump(0),
            _dump(2, {"comm.recv_stall_s.from_rank_3": 0.6}),
        ]
        diagnoses = analyze_dumps(snaps)
        assert [d.kind for d in diagnoses] == [SLOW_LINK]
        assert diagnoses[0].culprit_edge == (3, 2)

    def test_stall_below_floor_or_dominance_stays_silent(self):
        # Under the absolute floor: silence.
        assert analyze_dumps(
            [_dump(0, {"comm.recv_stall_s.from_rank_1": 0.1})]
        ) == []
        # Over the floor but spread evenly across sources: silence.
        assert analyze_dumps(
            [
                _dump(0, {"comm.recv_stall_s.from_rank_1": 0.5,
                          "comm.recv_stall_s.from_rank_2": 0.45}),
            ]
        ) == []

    def test_desync_precursor_reads_the_live_event_frontier(self):
        for seq in range(20):
            recorder_for(0).add(_stamped(seq, t_start=float(seq)))
        recorder_for(1).add(_stamped(2, t_start=2.0))
        diagnoses = analyze_dumps()
        assert [d.kind for d in diagnoses] == [DESYNC_PRECURSOR]
        assert diagnoses[0].culprit_rank == 1
        assert diagnoses[0].evidence["spread"] == 17

    def test_render_and_as_dict(self):
        assert render_diagnoses([]) == "no anomalies detected\n"
        diagnosis = Diagnosis(
            kind=SLOW_LINK, summary="edge 0→2 is slow",
            culprit_edge=(0, 2), confidence=0.87654, evidence={"x": 1},
        )
        rendered = render_diagnoses([diagnosis])
        assert "slow_link" in rendered and "confidence 0.88" in rendered
        payload = diagnosis.as_dict()
        assert payload["culprit_edge"] == [0, 2]
        assert payload["confidence"] == 0.877
        json.dumps(payload)


# ----------------------------------------------------------------------
# efficiency accounting on a live healthy run
# ----------------------------------------------------------------------
class TestEfficiencyAccounting:
    def test_health_section_and_metrics_populated(self):
        telemetry.enable()
        health, depth = run_world(WORLD, _train_and_report, backend="gloo",
                                  timeout=60.0)[0]
        assert health["enabled"]
        assert health["collectives_accounted"] > 0
        busbw = health["achieved_busbw_gbps"]
        assert busbw is not None and busbw["mean"] > 0
        util = health["chunk_pipeline_utilization"]
        assert util is not None and 0 < util["mean"] <= 1.0
        latency = health["collective_latency_s"]
        assert latency["count"] == health["collectives_accounted"]
        assert health["recv_stall_s"] >= 0.0
        assert depth > 0
        # gloo has a cost model, so the expectation ratio rides along.
        assert health["model_efficiency"] is not None
        assert health["diagnoses"] == []  # healthy run stays silent
        json.dumps(health)

    def test_bucket_launches_fold_from_the_iterations(self):
        """``bucket.launches`` is folded at read from the retained
        iterations: every bucket launches once per synced iteration."""
        telemetry.enable()
        stats = run_world(WORLD, _train, backend="gloo", timeout=60.0)
        snaps = {snap["rank"]: snap["counters"] for snap in all_snapshots()}
        buckets = stats[0]["num_buckets"]
        assert buckets > 1
        for rank in range(WORLD):
            assert snaps[rank]["iterations.synced"] == 5
            assert snaps[rank]["bucket.launches"] == buckets * 5

    @pytest.mark.parametrize("algorithm", ["naive", "ring"])
    def test_record_priced_as_the_algorithm_that_ran(self, algorithm):
        """``comm.model_efficiency`` prices a record by its ``algorithm``
        fact (the one-round ``naive`` or the ``ring``)."""
        nbytes, wall = 1_600_000, 0.004
        record = CollectiveRecord(0, 0, {"op": "allreduce", "world": 2, "backend": "gloo",
                                         "algorithm": algorithm}, nbytes)
        record.t_start, record.t_end, record.stalls = 1.0, 1.0 + wall, {}
        recorder_for(0).add(record)
        efficiency = registry_for(0).snapshot()["histograms"]["comm.model_efficiency"]
        model = cost_model_for("gloo")
        assert efficiency["count"] == 1
        # The two shapes price this record apart, so a match is the fact's doing.
        assert model.allreduce_time(nbytes, 2, algorithm="naive") != pytest.approx(
            model.allreduce_time(nbytes, 2, algorithm="ring"))
        expected = model.allreduce_time(nbytes, 2, algorithm=algorithm)
        assert efficiency["sum"] == pytest.approx(expected / wall)

    def test_lifecycle_events_stitch_across_all_ranks(self):
        telemetry.enable()
        run_world(WORLD, _train, backend="gloo", timeout=60.0)
        timeline = merge_causal_timeline()
        assert timeline
        allreduces = [r for r in timeline if r["op"] == "allreduce"]
        assert allreduces
        for record in allreduces:
            assert record["ranks"] == list(range(WORLD))
            kinds = {e["kind"] for e in record["events"]}
            assert {"start", "complete"} <= kinds
            assert record["start_skew_s"] >= 0.0
            assert record["t_last"] >= record["t_first"]
        # Everyone finished the same collectives: frontier spread is 0.
        for per_rank in seq_frontier().values():
            assert len(set(per_rank.values())) == 1

    def test_prometheus_carries_the_health_metrics(self):
        from repro.telemetry.observatory import prometheus_text

        telemetry.enable()
        run_world(WORLD, _train, backend="gloo", timeout=60.0)
        text = prometheus_text()
        assert "repro_comm_achieved_busbw_gbps" in text
        assert "repro_comm_chunk_pipeline_utilization" in text
        assert "repro_health_collectives_accounted_total" in text

    def test_disabled_accounting_records_nothing(self):
        health, depth = run_world(WORLD, _train_and_report, backend="gloo",
                                  timeout=60.0)[0]
        assert not health["enabled"]
        assert health["collectives_accounted"] == 0
        assert health["achieved_busbw_gbps"] is None
        assert depth == 0
        assert health["diagnoses"] == []


# ----------------------------------------------------------------------
# the fold: series derived from the retained records when read
# ----------------------------------------------------------------------
#: Series only the fold publishes (nothing on the hot path writes them).
FOLDED = (
    "health.collectives_accounted", "comm.collective_latency_s",
    "comm.achieved_busbw_gbps", "comm.model_efficiency",
    "comm.chunk_pipeline_utilization", "comm.recv_stall_s",
    "allreduce.count", "allreduce.bytes", "broadcast.count",
    "iterations.synced", "iteration.overlap_ratio",
    "iteration.overlap_ratio_dist", "bucket.ready_to_launch_delay",
)


def _by_rank():
    return {snap["rank"]: snap for snap in telemetry.all_snapshots()}


def _count(snap, name):
    """A counter's value or a histogram's count (0 when absent)."""
    if name in snap["counters"]:
        return snap["counters"][name]
    return snap["histograms"].get(name, {}).get("count", 0)


def _timed_out_allreduce():
    """World 2: rank 1's sends to rank 0 are delayed 0.3 s, and rank 0's
    caller gives up on a ring AllReduce after 0.05 s, reads the
    registries while the ring is still unfinished, then carries it to its
    end with a second wait.  Returns every rank's snapshot and rank 0's
    record."""
    telemetry.enable()
    plan = FaultPlan([delay(0.3, rank=1, dst=0)], seed=0)

    def body(rank):
        from repro.comm import CollectiveTimeoutError, get_context

        group = get_context().default_group
        # (p − 1) · nbytes = 256 KiB: above the size rule, the ring.
        work = group.allreduce(np.ones(1 << 15), async_op=True)
        if rank == 0:
            with pytest.raises(CollectiveTimeoutError):
                work.wait(timeout=0.05)
            assert not work.is_completed()     # the ring is still unfinished
            telemetry.all_snapshots()          # a read in that window
            with pytest.raises(CollectiveTimeoutError):
                work.wait()                    # receives the rest, then re-raises
        else:
            work.wait()
        return work.record

    records = run_world(2, body, backend="gloo", timeout=30.0, fault_plan=plan)
    return _by_rank(), records[0]


class TestFoldAtRead:
    def test_hot_path_writes_no_derived_series(self):
        telemetry.enable()
        iterations = 3
        run_world(2, lambda rank: _train(rank, iterations, stats=False),
                  backend="gloo", timeout=60.0)
        for rank in range(2):
            assert not set(registry_for(rank).names()) & set(FOLDED)
        snaps = _by_rank()
        for rank in range(2):
            snap, records = snaps[rank], recorder_for(rank).records()
            assert set(FOLDED) <= set(snap["counters"]) | set(snap["gauges"]) | set(
                snap["histograms"])
            assert (_count(snap, "comm.collective_latency_s")
                    == _count(snap, "health.collectives_accounted") == len(records))
            allreduces = [r for r in records if r.op == "allreduce"]
            assert _count(snap, "allreduce.count") == len(allreduces)
            assert _count(snap, "allreduce.bytes") == sum(r.bytes for r in allreduces)
            assert _count(snap, "iterations.synced") == iterations

    def test_profile_is_built_by_its_first_reader(self):
        telemetry.enable()

        def body(rank):
            manual_seed(0)
            ddp = DistributedDataParallel(nn.Linear(8, 4))
            loss = ddp(Tensor(np.ones((2, 8)))).sum()
            loss.backward()
            stamps = ddp.reducer.recorder._last
            unbuilt = stamps._profile is None
            return unbuilt, ddp.reducer.recorder.last is stamps._profile

        assert run_world(2, body, backend="gloo") == [(True, True)] * 2

    @pytest.mark.parametrize("readers", [False, True])
    def test_racing_readers_fold_each_record_once(self, readers):
        """A thread calling ``all_snapshots()`` every 1 ms and
        ``ddp_stats()`` every iteration on every rank read while
        training, under a short switch interval: the counts are the
        records'."""
        import sys
        import threading

        telemetry.enable()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        stop = threading.Event()

        def read():
            while not stop.wait(0.001):
                all_snapshots()

        reader = threading.Thread(target=read, daemon=True)
        if readers:
            reader.start()
        try:
            run_world(2, lambda rank: _train(rank, iterations=8, stats=False,
                                             read=readers),
                      backend="gloo", timeout=60.0)
        finally:
            stop.set()
            if readers:
                reader.join()
            sys.setswitchinterval(previous)
        snaps = _by_rank()
        for rank in range(2):
            snap, records = snaps[rank], recorder_for(rank).records()
            assert (_count(snap, "comm.collective_latency_s")
                    == _count(snap, "health.collectives_accounted") == len(records))
            assert _count(snap, "allreduce.count") == sum(
                r.op == "allreduce" for r in records)
            assert _count(snap, "iterations.synced") == 8
            assert _count(snap, "iteration.overlap_ratio_dist") == 8
            assert "health.collectives_unaccounted" not in snap["counters"]
        # Reset leaves nothing behind: a second run folds from zero.
        telemetry.reset()
        run_world(2, lambda rank: _train(rank, iterations=2, stats=False),
                  backend="gloo", timeout=60.0)
        snaps = _by_rank()
        for rank in range(2):
            assert _count(snaps[rank], "health.collectives_accounted") == len(
                recorder_for(rank).records())
            assert _count(snaps[rank], "iterations.synced") == 2

    def test_concurrent_reads_fold_waiting_records_once(self):
        """Records a read took while in flight finish, then eight threads
        read at once: each record is published by exactly one of them."""
        import sys
        import threading

        start = threading.Barrier(8)

        def read():
            start.wait(timeout=10.0)
            registry_for(0).snapshot()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(1, 4):
                records = [_stamped(seq, t_start=0.0) for seq in range(2000)]
                for record in records:
                    recorder_for(0).add(record)
                registry_for(0).snapshot()  # takes them all while in flight
                for record in records:
                    record.t_end, record.stalls = 1.0, {1: 0.5}
                readers = [threading.Thread(target=read) for _ in range(8)]
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(timeout=10.0)
                    assert not reader.is_alive()
                snap = registry_for(0).snapshot()
                assert _count(snap, "health.collectives_accounted") == 2000 * round_
        finally:
            sys.setswitchinterval(previous)
        assert snap["counters"]["comm.recv_stall_s.from_rank_1"] == pytest.approx(3000.0)

    def test_stalls_after_a_caller_timeout_are_folded(self):
        """A wait after the caller's timeout keeps receiving; those waits
        are the late peer's signal, so a read before them must not fold
        the record early."""
        snaps, _ = _timed_out_allreduce()
        stalled = snaps[0]["counters"].get("comm.recv_stall_s.from_rank_1", 0.0)
        assert stalled >= 0.2
        assert _count(snaps[0], "health.collectives_accounted") == 1

    def test_failed_collective_keeps_latency_but_no_bandwidth(self):
        snaps, record = _timed_out_allreduce()
        assert record.state == "failed"
        assert _count(snaps[0], "comm.collective_latency_s") == 1
        assert _count(snaps[0], "comm.achieved_busbw_gbps") == 0
        assert _count(snaps[0], "comm.model_efficiency") == 0
        # The peer's completed AllReduce is measured as usual.
        assert _count(snaps[1], "comm.achieved_busbw_gbps") == 1

    def test_rings_that_drop_unread_records_count_the_gap(self, monkeypatch):
        from repro.debug import flight_recorder

        monkeypatch.setattr(flight_recorder, "ITERATION_CAPACITY", 2)
        for rank in range(2):
            monkeypatch.setitem(flight_recorder._recorders, rank,
                                FlightRecorder(rank, capacity=4))
        telemetry.enable()
        # One bucket: every collective completes before the next starts.
        run_world(2, lambda rank: _train(rank, iterations=6, bucket_cap_mb=1.0,
                                         stats=False),
                  backend="gloo", timeout=60.0)
        snaps = _by_rank()
        for rank in range(2):
            ring, snap = recorder_for(rank), snaps[rank]
            assert ring.dropped > 0
            assert _count(snap, "health.collectives_unaccounted") == ring.dropped
            assert _count(snap, "health.collectives_accounted") == ring.depth() == 4
            # Iterations the ring dropped still count as synced; only
            # their samples are gone.
            assert _count(snap, "iterations.synced") == 6
            assert _count(snap, "iteration.overlap_ratio_dist") == 2

    def test_debug_retention_without_telemetry_publishes_nothing(self):
        from repro.debug import get_debug_level, set_debug_level

        previous = get_debug_level()
        set_debug_level("INFO")
        try:
            run_world(2, lambda rank: _train(rank, stats=False),
                      backend="gloo", timeout=60.0)
        finally:
            set_debug_level(previous)
        for rank in range(2):
            assert recorder_for(rank).depth() and recorder_for(rank).iterations()
            snap = registry_for(rank).snapshot()
            assert not (snap["counters"] or snap["gauges"] or snap["histograms"])


# ----------------------------------------------------------------------
# the seeded fault matrix — injected fault => correct attribution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
class TestFaultMatrix:
    def test_slow_rank_attributed_as_persistent_straggler(self, seed):
        telemetry.enable()
        plan = FaultPlan([slow_rank(1, seconds=0.01)], seed=seed)
        run_world(WORLD, _train, backend="gloo", timeout=60.0, fault_plan=plan)
        diagnoses = analyze_dumps()
        assert {d.kind for d in diagnoses} == {PERSISTENT_STRAGGLER}
        assert diagnoses[0].culprit_rank == 1
        assert len(diagnoses[0].evidence["reporters"]) >= 2

    def test_fault_free_run_yields_zero_diagnoses(self, seed):
        telemetry.enable()
        run_world(WORLD, _train, backend="gloo", timeout=60.0)
        diagnoses = analyze_dumps()
        assert diagnoses == [], "; ".join(
            f"{d.kind}: rank {d.culprit_rank}, edge {d.culprit_edge}, evidence {d.evidence}"
            for d in diagnoses)


class TestSlowLinkAttribution:
    def test_single_reporter_delay_attributed_to_the_edge(self):
        # The injector's delay sleeps on the sender thread, so in a big
        # world an "edge" delay transitively slows every send from that
        # rank — correctly read as a straggler.  With one peer there is
        # only one possible reporter, and the engine must say *link*,
        # not rank: one witness cannot establish a rank-wide pattern.
        telemetry.enable()
        plan = FaultPlan([delay(0.02, rank=1, dst=0)], seed=0)
        run_world(2, _train, backend="gloo", timeout=60.0, fault_plan=plan)
        kinds = {d.kind: d for d in analyze_dumps()}
        assert SLOW_LINK in kinds
        assert kinds[SLOW_LINK].culprit_edge == (1, 0)
        assert PERSISTENT_STRAGGLER not in kinds


# ----------------------------------------------------------------------
# offline: the flight-recorder dump and the healthctl CLI
# ----------------------------------------------------------------------
def _straggler_dumps():
    return [
        _dump(0, {"comm.recv_stall_s.from_rank_2": 0.5}),
        _dump(1, {"comm.recv_stall_s.from_rank_2": 0.4}),
        _dump(2, {"comm.recv_stall_s.from_rank_0": 0.05}),
    ]


def _write_dump(path, dumps):
    path.write_text(json.dumps({"flight_recorders": dumps}))
    return str(path)


class TestOfflineAnalysis:
    def test_dump_reports_the_straggler(self):
        (straggler,) = analyze_dumps(json.loads(json.dumps(_straggler_dumps())))
        assert straggler.kind == PERSISTENT_STRAGGLER and straggler.culprit_rank == 2
        assert straggler.evidence["stall_from_culprit_s"] == 0.9
        assert straggler.evidence["reporters"] == [0, 1]

    def test_empty_input(self):
        assert analyze_dumps([]) == []


def _load_healthctl():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "healthctl.py")
    spec = importlib.util.spec_from_file_location("healthctl", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _verdicts(diagnoses):
    return [(d["kind"], d.get("culprit_rank"), d.get("culprit_edge"))
            for d in diagnoses]


class TestHealthctlCLI:
    def test_report_and_fail_on_diagnosis_gate(self, tmp_path, capsys):
        healthctl = _load_healthctl()
        dump = _write_dump(tmp_path / "flight_recorder.json", _straggler_dumps())
        out_json = tmp_path / "report.json"
        assert healthctl.main([dump, "--json", str(out_json)]) == 0
        printed = capsys.readouterr().out
        assert "persistent_straggler" in printed
        report = json.loads(out_json.read_text())
        assert report["ranks"] == [0, 1, 2]
        assert report["diagnoses"][0]["culprit_rank"] == 2
        # The CI gate: same dump, --fail-on-diagnosis exits 1.
        assert healthctl.main([dump, "--fail-on-diagnosis"]) == 1

    def test_clean_dump_passes_the_gate(self, tmp_path):
        healthctl = _load_healthctl()
        dump = _write_dump(tmp_path / "clean.json",
                           [_dump(0, {"health.collectives_accounted": 30.0})])
        assert healthctl.main([dump, "--fail-on-diagnosis"]) == 0

    def test_bad_inputs_exit_2(self, tmp_path):
        healthctl = _load_healthctl()
        assert healthctl.main([str(tmp_path / "missing.json")]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json\n")
        assert healthctl.main([str(garbage)]) == 2

    def test_recorder_dump_gives_the_live_verdicts(self, tmp_path):
        """``dump_json`` after a faulted run, read back by ``healthctl``:
        the same kinds and culprits as the live check."""
        telemetry.enable()
        plan = FaultPlan([slow_rank(1, seconds=0.01)], seed=0)
        run_world(3, lambda rank: _train(rank, stats=False),
                  backend="gloo", timeout=60.0, fault_plan=plan)
        live = [d.as_dict() for d in analyze_dumps()]
        assert _verdicts(live) == [(PERSISTENT_STRAGGLER, 1, None)]
        path = str(tmp_path / "flight_recorder.json")
        dump_json(path)
        out_json = tmp_path / "report.json"
        assert _load_healthctl().main([path, "--json", str(out_json)]) == 0
        report = json.loads(out_json.read_text())
        assert report["ranks"] == [0, 1, 2]
        assert _verdicts(report["diagnoses"]) == _verdicts(live)
