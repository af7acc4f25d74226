"""Telemetry subsystem: metrics, incidents, Chrome export, logging.

Covers the observability acceptance surface: thread-safe metric
recording, the bounded incident deque, a real (non-simulated) 4-rank
DDP run whose exported Chrome trace contains compute and comm bars for
every rank with comm bars landing inside the right iteration,
rank-aware logging, and the zero-overhead disabled path.
"""

from __future__ import annotations

import json
import logging
import threading

import numpy as np
import pytest

from conftest import run_world
from repro import nn, optim, telemetry
from repro.autograd import Tensor
from repro.core import DistributedDataParallel
from repro.debug import all_recorders, flight_recorder, recorder_for
from repro.debug.flight_recorder import record_incident
from repro.models import MLP
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots
from repro.utils import manual_seed
from repro.utils.logging import enable_logging, logger
from repro.utils.rank import get_current_rank


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry off and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _train_ddp(rank, iterations=3, bucket_cap_mb=0.02):
    """One rank of a real multi-bucket DDP training loop."""
    manual_seed(0)
    net = nn.Sequential(
        nn.Linear(32, 64), nn.ReLU(), nn.Linear(64, 64), nn.ReLU(), nn.Linear(64, 8)
    )
    ddp = DistributedDataParallel(net, bucket_cap_mb=bucket_cap_mb)
    opt = optim.SGD(ddp.parameters(), lr=0.01)
    rng = np.random.default_rng(rank)
    for _ in range(iterations):
        inp = Tensor(rng.standard_normal((16, 32)))
        exp = rng.integers(0, 8, 16)
        opt.zero_grad()
        nn.CrossEntropyLoss()(ddp(inp), exp).backward()
        opt.step()
    return ddp


class TestMetricsRegistry:
    def test_counter_thread_safety(self):
        registry = MetricsRegistry(rank=0)
        counter = registry.counter("hits")
        hist = registry.histogram("latency")

        def worker():
            for _ in range(1000):
                counter.add(1)
                hist.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000
        assert hist.count == 8000

    def test_instrument_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_summary_and_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("d")
        for v in range(100):
            hist.observe(float(v))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 0.0 and summary["max"] == 99.0
        assert 45 <= summary["p50"] <= 55
        assert 90 <= summary["p95"] <= 99

    def test_snapshot_merge_across_ranks(self):
        snaps = []
        for rank in range(3):
            registry = MetricsRegistry(rank=rank)
            registry.counter("allreduce.bytes").add(100 * (rank + 1))
            registry.gauge("depth").set(rank)
            registry.histogram("lat").observe(0.1 * (rank + 1))
            snaps.append(registry.snapshot())
        merged = merge_snapshots(snaps)
        assert merged["counters"]["allreduce.bytes"] == 600
        assert merged["gauges"]["depth"]["max"] == 2
        assert merged["histograms"]["lat"]["count"] == 3
        assert merged["histograms"]["lat"]["max"] == pytest.approx(0.3)


def _incident_count() -> int:
    return sum(len(ring.incidents()) for ring in all_recorders().values())


class TestIncidents:
    def test_incident_deque_is_bounded(self, monkeypatch):
        monkeypatch.setattr(flight_recorder, "INCIDENT_CAPACITY", 16)
        telemetry.enable()
        for i in range(100):
            record_incident(5, f"s{i}", "resilience", 0.0, 1.0)
        incidents = recorder_for(5).incidents()
        assert len(incidents) == 16
        assert incidents[-1].name == "s99"  # oldest dropped, newest kept
        assert incidents[-1].t_end == 1.0 and incidents[-1].row == "resilience"

    def test_disabled_incident_is_noop(self):
        assert not telemetry.is_enabled()
        record_incident(0, "ignored", "resilience", a=1)
        assert _incident_count() == 0


class TestRealRunTracing:
    def test_chrome_trace_of_real_4rank_run(self, tmp_path):
        telemetry.enable()
        iterations = 3
        run_world(4, lambda rank: (_train_ddp(rank, iterations), None)[1],
                  backend="gloo")
        path = telemetry.export_chrome_trace(str(tmp_path / "trace.json"))

        with open(path) as handle:
            doc = json.load(handle)  # valid Trace Event JSON
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        for rank in range(4):
            rank_events = [e for e in complete if e["pid"] == rank]
            cats = {e["cat"] for e in rank_events}
            assert "compute" in cats, f"rank {rank} missing compute bars"
            assert "comm" in cats, f"rank {rank} missing comm bars"
            # Every bucket AllReduce lands inside the right iteration:
            # its interval is contained in exactly the iteration span
            # whose index it served.
            iteration_windows = {
                e["args"]["iteration"]: (e["ts"], e["ts"] + e["dur"])
                for e in rank_events
                if e["cat"] == "iteration"
            }
            assert sorted(iteration_windows) == list(range(iterations))
            allreduces = [
                e for e in rank_events
                if e["cat"] == "comm" and e["args"].get("op") == "allreduce"
            ]
            assert len(allreduces) >= iterations  # >= one bucket per iteration
            for event in allreduces:
                inside = [
                    i for i, (start, end) in iteration_windows.items()
                    if start <= event["ts"] and event["ts"] + event["dur"] <= end
                ]
                assert len(inside) == 1, (
                    f"comm bar {event['name']} on rank {rank} not nested "
                    f"under exactly one iteration: {inside}"
                )
        # Metadata rows name every rank's process.
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names[2] == "rank 2"

    def test_ddp_stats_report(self):
        telemetry.enable()

        def body(rank):
            # Wide and deep enough that backward compute spans several
            # thread scheduling quanta, so early buckets' AllReduces
            # genuinely run concurrently with the remaining backward
            # (256-wide x 3 read an overlap of exactly 0 in one run of
            # seven once the fused Linear kernel halved its backward).
            manual_seed(0)
            ddp = DistributedDataParallel(MLP(64, [512] * 5, 8), bucket_cap_mb=1.2)
            opt = optim.SGD(ddp.parameters(), lr=0.01)
            rng = np.random.default_rng(rank)
            for _ in range(3):
                inp = Tensor(rng.standard_normal((128, 64)))
                exp = rng.integers(0, 8, 128)
                opt.zero_grad()
                nn.CrossEntropyLoss()(ddp(inp), exp).backward()
                opt.step()
            return ddp.ddp_stats()

        stats = run_world(2, body, backend="gloo")[0]
        assert stats["world_size"] == 2
        assert stats["num_buckets"] == len(stats["bucket_sizes_bytes"]) >= 2
        assert all(size > 0 for size in stats["bucket_sizes_bytes"])
        assert stats["unused_parameter_count"] == 0
        assert 0.0 < stats["comm_compute_overlap_ratio"] <= 1.0
        assert len(stats["per_bucket_allreduce_latency_s"]) == stats["num_buckets"]
        assert all(lat > 0 for lat in stats["per_bucket_allreduce_latency_s"])
        assert stats["profile"]["total_ms"] > 0

    def test_ddp_stats_counts_unused_parameters(self):
        def body(rank):
            from repro.models.dynamic import BranchedModel

            manual_seed(0)
            model = BranchedModel(num_branches=2)
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            X = np.random.default_rng(3).standard_normal((4, 8))
            # Both ranks route branch 0; branch 1 stays globally unused.
            out = ddp(Tensor(X), branch=0)
            nn.CrossEntropyLoss()(out, np.zeros(4, dtype=np.int64)).backward()
            return ddp.ddp_stats()

        stats = run_world(2, body, backend="gloo")[0]
        assert stats["unused_parameter_count"] == 2  # weight + bias of branch 1

    def test_forward_bar_ends_where_its_iteration_starts(self):
        """Each synced forward is one ``forward`` bar on its rank's
        ``compute`` row, ending at its ``iteration N`` bar's start; a
        forward under ``no_sync`` draws none."""
        telemetry.enable()
        iterations = 3

        def body(rank):
            ddp = _train_ddp(rank, iterations)
            with ddp.no_sync():
                ddp(Tensor(np.ones((4, 32))))

        run_world(2, body, backend="gloo")
        events = telemetry.trace_events()
        for rank in range(2):
            mine = [e for e in events if e["pid"] == rank]
            rows = {e["tid"]: e["args"]["name"] for e in mine if e["ph"] == "M"}
            forwards = {e["args"]["iteration"]: e for e in mine if e["name"] == "forward"}
            starts = {e["args"]["iteration"]: e["ts"] for e in mine
                      if e.get("cat") == "iteration"}
            assert sorted(forwards) == sorted(starts) == list(range(iterations))
            for iteration, bar in forwards.items():
                assert rows[bar["tid"]] == "compute" and bar["dur"] > 0
                assert bar["ts"] + bar["dur"] == pytest.approx(starts[iteration], abs=1e-3)

    def test_disabled_run_records_zero_spans_and_metrics(self):
        """With telemetry off nothing is retained: no incident, no
        collective record, no series."""
        assert not telemetry.is_enabled()
        run_world(2, lambda rank: (_train_ddp(rank, iterations=2), None)[1],
                  backend="gloo")
        assert _incident_count() == 0
        assert all(ring.depth() == 0 for ring in all_recorders().values())
        assert all(
            not snap["counters"] and not snap["histograms"]
            for snap in telemetry.all_snapshots()
        )

    def test_legacy_iteration_stats_still_populated_when_disabled(self):
        def body(rank):
            ddp = _train_ddp(rank, iterations=1)
            return ddp.ddp_stats()["profile"]

        stats = run_world(2, body, backend="gloo")[0]
        assert set(stats["attribution_ms"]) == {
            "prepare_ms", "backward_ms", "exposed_comm_ms", "finalize_other_ms",
        }
        assert stats["total_ms"] > 0


class TestRankAwareLogging:
    def test_enable_logging_is_idempotent(self):
        before = list(logger.handlers)
        enable_logging("info")
        enable_logging("debug")
        enable_logging("info")
        ours = [h for h in logger.handlers if getattr(h, "_repro_handler", False)]
        assert len(ours) == 1
        assert logger.level == logging.INFO
        # restore: drop the handler we added
        logger.handlers = before

    def test_log_records_carry_actual_rank(self):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append((record.rank, record.getMessage()))

        handler = Capture()
        from repro.utils.logging import RankFilter

        handler.addFilter(RankFilter())
        logger.addHandler(handler)
        old_level = logger.level
        logger.setLevel(logging.DEBUG)
        try:
            def body(rank):
                logger.debug("hello from %d", rank)

            run_world(2, body)
            logger.debug("outside")
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        by_message = {msg: rank for rank, msg in records}
        assert by_message["hello from 0"] == 0
        assert by_message["hello from 1"] == 1
        assert by_message["outside"] == "-"

    def test_rank_contextvar_set_inside_harness(self):
        ranks = run_world(2, lambda rank: get_current_rank())
        assert ranks == [0, 1]
        assert get_current_rank() is None


class TestTelemetryLifecycle:
    def test_enable_disable_reset(self):
        telemetry.enable()
        telemetry.enable()  # idempotent
        assert telemetry.is_enabled()
        record_incident(0, "x", "resilience", 0.0, 1.0)
        telemetry.registry_for(0).counter("c").add(1)
        telemetry.reset()
        assert telemetry.is_enabled()  # reset clears data, not the switch
        assert _incident_count() == 0
        assert telemetry.all_snapshots() == []
        telemetry.disable()
        assert not telemetry.is_enabled()

    def test_incidents_survive_disable_until_reset(self):
        telemetry.enable()
        record_incident(0, "kept", "resilience", 0.0, 1.0)
        telemetry.disable()
        assert _incident_count() == 1
        telemetry.reset()
        assert _incident_count() == 0

    def test_iteration_recorder_is_single_timing_source(self):
        """The legacy ad-hoc fields are gone; stats come from the recorder's
        one profile, and its phases tile the iteration."""
        from repro.core.reducer import Reducer

        assert not hasattr(Reducer, "_t_prepare")

        def body(rank):
            ddp = _train_ddp(rank, iterations=1)
            return ddp.ddp_stats()["profile"], ddp.reducer.recorder.last

        summary, profile = run_world(2, body, backend="gloo")[0]
        phases = summary["attribution_ms"]
        assert phases["backward_ms"] == profile.backward_s * 1e3
        assert summary["total_ms"] == profile.total_s * 1e3
        assert sum(phases.values()) == pytest.approx(summary["total_ms"], abs=1e-9)
