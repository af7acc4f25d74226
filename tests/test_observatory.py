"""Performance observatory: exporter, profiler, merged timeline.

Covers the observatory acceptance surface: pooled-sample percentile
merging, a Prometheus exposition that passes a line-format checker and a live
scrape, critical-path attribution that sums to measured iteration wall
time within 2% and agrees with the recorder's overlap ratio, and the
merged spans + flight-recorder + resilience Chrome trace.
"""

from __future__ import annotations

import json
import os
import re
import threading
import urllib.request

import numpy as np
import pytest

from conftest import run_world
from repro import nn, optim, telemetry
from repro.autograd import Tensor
from repro.core import DistributedDataParallel
from repro.debug import all_recorders
from repro.telemetry.metrics import (
    MetricsRegistry,
    merge_snapshots,
    percentile_of,
    registry_for,
)
from repro.telemetry.observatory import (
    CriticalPathProfiler,
    PrometheusExporter,
    prometheus_text,
    start_exporter,
)
from repro.utils import manual_seed


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry off and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _train_ddp(rank, iterations=3, width=64, bucket_cap_mb=0.02):
    """One rank of a real multi-bucket DDP training loop."""
    manual_seed(0)
    net = nn.Sequential(
        nn.Linear(32, width), nn.ReLU(), nn.Linear(width, width), nn.ReLU(),
        nn.Linear(width, 8)
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


# ----------------------------------------------------------------------
# interpolated percentiles + pooled cross-rank merge
# ----------------------------------------------------------------------
class TestPercentiles:
    def test_percentile_interpolates_between_samples(self):
        # Two samples: p50 must be the midpoint, not either endpoint.
        assert percentile_of([0.0, 10.0], 50) == pytest.approx(5.0)
        # Matches numpy's default (linear) method on a bigger pool.
        pool = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3])
        for q in (50, 90, 95, 99):
            assert percentile_of(pool, q) == pytest.approx(
                float(np.percentile(pool, q))
            )

    def test_histogram_summary_interpolates(self):
        registry = MetricsRegistry(rank=0)
        hist = registry.histogram("lat")
        for value in range(1, 11):  # 1..10
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["p50"] == pytest.approx(5.5)
        assert summary["p95"] == pytest.approx(float(np.percentile(range(1, 11), 95)))
        assert summary["p99"] == pytest.approx(float(np.percentile(range(1, 11), 99)))

    def test_merge_pools_samples_across_ranks(self):
        # Rank 0 sees only fast samples, rank 1 only slow ones.  The
        # merged p99 must come from the pooled data — averaging the two
        # per-rank p99s would land mid-gap where no sample exists.
        r0, r1 = MetricsRegistry(rank=0), MetricsRegistry(rank=1)
        for _ in range(50):
            r0.histogram("lat").observe(1.0)
            r1.histogram("lat").observe(100.0)
        merged = merge_snapshots([r0.snapshot(), r1.snapshot()])
        entry = merged["histograms"]["lat"]
        pooled = sorted([1.0] * 50 + [100.0] * 50)
        assert entry["p99"] == pytest.approx(float(np.percentile(pooled, 99)))
        assert entry["p50"] == pytest.approx(float(np.percentile(pooled, 50)))
        assert entry["samples_pooled"] == 100
        per_rank_mean_p99 = (1.0 + 100.0) / 2
        assert entry["p99"] != pytest.approx(per_rank_mean_p99)


# ----------------------------------------------------------------------
# Prometheus exporter
# ----------------------------------------------------------------------
#: One exposition line: metric name, optional labels, then a float.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (NaN|[+-]Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"
)
_TYPE_LINE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$")


def check_exposition_format(text: str):
    """Assert every line is a valid type comment or sample line."""
    lines = [line for line in text.split("\n") if line]
    assert lines, "empty exposition"
    for line in lines:
        if line.startswith("#"):
            assert _TYPE_LINE.match(line), f"bad TYPE line: {line!r}"
        else:
            assert _SAMPLE_LINE.match(line), f"bad sample line: {line!r}"
    return lines


class TestPrometheusExporter:
    def test_exposition_passes_line_format_checker(self):
        registry_for(0).counter("allreduce.calls").add(3)
        registry_for(1).counter("allreduce.calls").add(4)
        registry_for(0).gauge("iteration.overlap_ratio").set(0.75)
        for v in (0.01, 0.02, 0.05):
            registry_for(0).histogram("allreduce.latency").observe(v)
        text = prometheus_text()
        lines = check_exposition_format(text)
        assert 'repro_allreduce_calls_total{rank="0"} 3.0' in lines
        assert 'repro_allreduce_calls_total{rank="1"} 4.0' in lines
        assert 'repro_iteration_overlap_ratio{rank="0"} 0.75' in lines
        quantiles = [l for l in lines if "quantile=" in l]
        assert len(quantiles) == 3  # p50/p95/p99 for the one histogram
        assert any(l.startswith("repro_allreduce_latency_sum") for l in lines)
        assert any(l.startswith("repro_allreduce_latency_count") for l in lines)

    def test_metric_name_sanitization(self):
        from repro.telemetry.observatory.exporter import metric_name

        assert metric_name("bucket.ready_to_launch_delay") == \
            "repro_bucket_ready_to_launch_delay"
        assert metric_name("9lives!") == "repro__9lives_"

    def test_live_scrape_over_http(self):
        registry_for(0).counter("scrape.hits").add(2)
        exporter = start_exporter(port=0)
        try:
            with urllib.request.urlopen(exporter.url, timeout=5) as response:
                assert response.status == 200
                assert "version=0.0.4" in response.headers["Content-Type"]
                body = response.read().decode()
            lines = check_exposition_format(body)
            assert 'repro_scrape_hits_total{rank="0"} 2.0' in lines
            # Non-metrics paths 404.
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    exporter.url.replace("/metrics", "/nope"), timeout=5)
        finally:
            exporter.close()


# ----------------------------------------------------------------------
# critical-path profiler
# ----------------------------------------------------------------------
def _fig06_workload(world=4, width=192, depth=2, iterations=8,
                    find_unused_parameters=False, ddps=None):
    """The bench_fig06_breakdown measured workload, test-sized; each
    rank's DDP lands in ``ddps`` when a dict is given."""
    stats_by_rank = {}

    def body(rank):
        manual_seed(0)
        layers = [nn.Linear(64, width), nn.ReLU()]
        for _ in range(depth - 1):
            layers += [nn.Linear(width, width), nn.ReLU()]
        layers += [nn.Linear(width, 8)]
        ddp = DistributedDataParallel(
            nn.Sequential(*layers), bucket_cap_mb=0.25,
            find_unused_parameters=find_unused_parameters,
        )
        opt = optim.SGD(ddp.parameters(), lr=0.01)
        rng = np.random.default_rng(rank)
        loss_fn = nn.CrossEntropyLoss()
        for _ in range(iterations):
            inp = Tensor(rng.standard_normal((64, 64)))
            exp = rng.integers(0, 8, 64)
            opt.zero_grad()
            loss_fn(ddp(inp), exp).backward()
            opt.step()
        stats_by_rank[rank] = ddp.ddp_stats()
        if ddps is not None:
            ddps[rank] = ddp
        return None

    run_world(world, body, backend="gloo", timeout=60.0)
    return stats_by_rank


class TestCriticalPathProfiler:
    def test_attribution_sums_to_iteration_wall_time(self):
        telemetry.enable()
        stats_by_rank = _fig06_workload()
        profiler = CriticalPathProfiler()
        profiles = profiler.profiles()
        # Every retained (iteration, rank) pair gets a profile.
        assert len(profiles) == 4 * 8
        for profile in profiles:
            total = profile.total_s
            assert total > 0
            attributed = sum(profile.attribution().values())
            assert attributed == pytest.approx(total, rel=0.02), (
                f"attribution {attributed} vs wall {total} "
                f"(iteration {profile.iteration}, rank {profile.rank})"
            )

    @pytest.mark.parametrize("find_unused_parameters", [False, True])
    def test_overlap_ratio_agrees_with_recorder(self, find_unused_parameters):
        # With find_unused_parameters the bitmap AllReduce runs inside
        # the iteration too; it is not a bucket and must not count.
        telemetry.enable()
        stats_by_rank = _fig06_workload(
            iterations=4, find_unused_parameters=find_unused_parameters
        )
        profiler = CriticalPathProfiler()
        for rank, stats in stats_by_rank.items():
            profile = profiler.profile(rank=rank)  # latest iteration
            assert profile is not None
            assert all(b.bucket is not None for b in profile.buckets)
            assert profile.overlap_ratio == pytest.approx(
                stats["comm_compute_overlap_ratio"], abs=1e-9
            )

    def test_profiler_and_ddp_stats_read_the_recorders_profile(self):
        telemetry.enable()
        ddps = {}
        stats_by_rank = _fig06_workload(iterations=4, ddps=ddps)
        profiler = CriticalPathProfiler()
        for rank, ddp in ddps.items():
            last = ddp.reducer.recorder.last
            assert profiler.profile(rank=rank) is last
            assert stats_by_rank[rank]["profile"] == last.summary(top=3)
        prof = stats_by_rank[0]["profile"]
        att = prof["attribution_ms"]
        assert sum(att.values()) == pytest.approx(prof["total_ms"], rel=0.02)
        assert ddps[0].reducer.recorder.last.overlap_ratio == (
            stats_by_rank[0]["comm_compute_overlap_ratio"])
        assert 1 <= len(prof["blame"]) <= 3
        shares = [b["share_of_exposed"] for b in prof["blame"]]
        assert shares == sorted(shares, reverse=True)

    def test_profile_works_with_telemetry_disabled(self):
        # The recorder's coarse clock is always on, so ddp_stats carries
        # a profile even without spans.
        stats_by_rank = _fig06_workload(world=2, iterations=2)
        prof = stats_by_rank[0]["profile"]
        assert prof is not None
        assert sum(prof["attribution_ms"].values()) == pytest.approx(
            prof["total_ms"], rel=0.02
        )
        # But the span profiler has nothing.
        assert CriticalPathProfiler().profiles() == []

    def test_blame_table_and_straggler_summary(self):
        telemetry.enable()
        _fig06_workload(iterations=4)
        profiler = CriticalPathProfiler()
        table = profiler.last_profile().blame_table()
        assert "critical path" in table and "exposed" in table
        summary = profiler.straggler_summary()
        assert summary.iterations == 4
        assert sum(summary.finish_counts.values()) == 4
        assert re.match(r"rank \d+ is the straggler on \d+/4 iterations",
                        summary.describe())

    def test_racing_first_reads_share_one_profile(self):
        """The profile is built on first read; readers racing to build it
        (training thread, ``ddp_stats``, the profiler) get one object."""
        import sys

        from repro.telemetry.recorder import _Stamps

        comm = [(i, 8, 0.1 * i, 0.1 * i + 0.05) for i in range(12)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                stamps = _Stamps(0, 0, 0.0, 0.1, 1.0, 2.0, comm, {})
                seen = []
                readers = [threading.Thread(target=lambda: seen.append(stamps.profile()))
                           for _ in range(8)]
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(timeout=10.0)
                    assert not reader.is_alive()
                assert len(seen) == 8 and all(p is seen[0] for p in seen)
        finally:
            sys.setswitchinterval(previous)

    def test_profile_is_none_before_first_sync(self):
        def body(rank):
            ddp = DistributedDataParallel(nn.Linear(4, 2))
            return ddp.reducer.recorder.last, ddp.ddp_stats()["profile"]

        assert run_world(2, body, backend="gloo") == [(None, None), (None, None)]


# ----------------------------------------------------------------------
# one timeline: compute, comm and incident rows
# ----------------------------------------------------------------------
class TestMergedTimeline:
    def test_merged_trace_has_all_three_tracks(self, tmp_path):
        from repro.comm import Store
        from repro.comm.liveness import RankMonitor
        from repro.debug.levels import get_debug_level, set_debug_level

        telemetry.enable()
        previous = get_debug_level()
        set_debug_level("INFO")
        try:
            # Iterations + collective records from a real 2-rank DDP run...
            run_world(2, lambda rank: (_train_ddp(rank, iterations=2), None)[1],
                      backend="gloo")
            # ...and a resilience instant: rank 1's liveness monitor
            # publishing its first heartbeat.
            monitor = RankMonitor(1)
            try:
                monitor.beat(Store(), "observatory")
            finally:
                monitor.stop()

            from repro.telemetry import export_chrome_trace, trace_events

            events = trace_events()
            categories = {e.get("cat") for e in events if e.get("cat")}
            assert {"compute", "comm", "iteration"} <= categories
            assert "resilience" in categories

            # Resilience events are instant markers, finished records bars.
            resilience = [e for e in events if e.get("cat") == "resilience"]
            assert resilience and all(e["ph"] == "i" for e in resilience)
            assert "heartbeat" in {e["name"] for e in resilience}
            comm = [e for e in events if e.get("cat") == "comm"]
            assert comm and all(e["ph"] == "X" for e in comm)
            assert any(re.match(r"allreduce#\d+", e["name"]) for e in comm)
            # One comm mark per retained record, each a completed one.
            records = {(rank, record.group_id, record.name): record
                       for rank, ring in all_recorders().items()
                       for record in ring.records()}
            assert len(comm) == len(records)
            assert all(records[(e["pid"], e["args"]["group"], e["name"])].state
                       == "completed" for e in comm if e["name"].startswith("allreduce"))

            # Distinct named rows: compute, comm, resilience per rank.
            thread_names = {
                (e["pid"], e["args"]["name"])
                for e in events if e.get("name") == "thread_name"
            }
            assert (0, "compute") in thread_names
            assert (0, "comm") in thread_names
            assert (1, "resilience") in thread_names

            # The export round-trips as Perfetto-loadable JSON.
            path = export_chrome_trace(str(tmp_path / "merged.json"))
            document = json.load(open(path))
            assert document["traceEvents"]
            timestamps = [e["ts"] for e in document["traceEvents"]
                          if e["ph"] != "M"]
            assert min(timestamps) >= 0.0  # rebased to the shared epoch
        finally:
            set_debug_level(previous)
            from repro.debug.flight_recorder import clear_recorders

            clear_recorders()

    def test_merged_trace_empty_when_nothing_recorded(self):
        from repro.telemetry import trace_events

        assert trace_events() == []

    def test_unfinished_record_is_an_instant_with_its_state(self):
        """A record not finished is drawn on the comm row as an instant
        at its start, its state in the args; finished, it is a bar."""
        from repro.debug import CollectiveRecord, fingerprint, recorder_for
        from repro.telemetry import trace_events

        record = CollectiveRecord(0, 0, fingerprint("allreduce"))
        recorder_for(0).add(record)
        (mark,) = [e for e in trace_events() if e.get("cat") == "comm"]
        assert (mark["name"], mark["ph"], mark["ts"]) == ("allreduce#0", "i", 0.0)
        assert mark["args"]["state"] == "started"
        record.finish(RuntimeError("peer vanished"))
        (bar,) = [e for e in trace_events() if e.get("cat") == "comm"]
        assert bar["ph"] == "X" and bar["dur"] >= 0.0
        assert bar["args"]["error"] == "RuntimeError" and "state" not in bar["args"]

    def test_reset_drops_retained_records(self):
        """Regression: ``telemetry.reset()`` left the record rings full,
        so a trace exported after a reset drew the previous run's
        collectives.  The retained iteration profiles go with them."""
        from repro.comm import get_context
        from repro.debug import all_recorders, get_debug_level, set_debug_level
        from repro.telemetry import trace_events

        previous = get_debug_level()
        set_debug_level("INFO")
        try:
            def body(rank):
                pg = get_context().default_group
                for _ in range(3):
                    pg.allreduce(np.ones(4))
                _train_ddp(rank, iterations=2)

            run_world(2, body, backend="gloo")
            events = trace_events()
            assert events
            # The compute row is drawn only from iterations that finished
            # with telemetry on.
            assert not [e for e in events if e.get("cat") in ("iteration", "bucket")]
            assert len(CriticalPathProfiler().profiles()) == 2 * 2
            telemetry.disable()
            telemetry.reset()
            assert trace_events() == []
            assert all(ring.depth() == 0 for ring in all_recorders().values())
            assert CriticalPathProfiler().profiles() == []
        finally:
            set_debug_level(previous)


# ----------------------------------------------------------------------
# the metric catalog is what a run publishes
# ----------------------------------------------------------------------
_DOCS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "docs", "observability.md")

#: Catalog rows a 2-rank DDP run cannot produce, and why.
_CATALOG_EXEMPT = {
    "health.collectives_unaccounted": "only once a ring dropped unread records "
                                      "(tests/test_health.py::TestFoldAtRead)",
}


def _catalog_names():
    """The dotted names in the first cell of each Metric-table row."""
    with open(_DOCS) as handle:
        lines = handle.read().split("| Metric |", 1)[1].splitlines()[2:]
    names = []
    for line in lines:
        if not line.startswith("|"):
            break
        cell = line.split("|")[1]
        names.extend(name for name in re.findall(r"`([^`]+)`", cell) if "." in name)
    return names


class TestMetricCatalog:
    def test_every_catalog_row_is_published_by_a_ddp_run(self):
        def body(rank):
            _train_ddp(rank, iterations=2)

        telemetry.enable()
        run_world(2, body, backend="gloo")
        published = set()
        for snap in telemetry.all_snapshots():
            for kind in ("counters", "gauges", "histograms"):
                published.update(snap[kind])
        issued = {record.op for ring in all_recorders().values()
                  for record in ring.records() if record.bytes is not None}
        assert issued >= {"allreduce", "broadcast"}
        names = _catalog_names()
        assert "comm.recv_stall_s.from_rank_N" in names
        for name in names:
            if any(name.startswith(prefix) for prefix in _CATALOG_EXEMPT):
                continue
            if name.endswith(".*"):  # the op counters, per issued collective
                op = name[:-2]
                if op in issued:
                    assert {f"{op}.count", f"{op}.bytes"} <= published, name
                continue
            pattern = re.compile(re.escape(name).replace("_N", r"_\d+") + "$")
            assert any(pattern.match(series) for series in published), name


# ----------------------------------------------------------------------
# histogram edge cases: empty, single-sample, NaN guard
# ----------------------------------------------------------------------
class TestHistogramEdgeCases:
    def test_empty_histogram_summary_is_all_zeros(self):
        hist = MetricsRegistry(rank=0).histogram("empty")
        summary = hist.summary()
        assert summary["count"] == 0 and summary["sum"] == 0.0
        assert summary["min"] == 0.0 and summary["max"] == 0.0
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.0
        assert hist.percentile(99) is None
        with pytest.raises(ValueError):
            percentile_of([], 50)

    def test_single_sample_serves_itself_at_every_percentile(self):
        hist = MetricsRegistry(rank=0).histogram("one")
        hist.observe(7.5)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["mean"] == summary["min"] == summary["max"] == 7.5
        assert summary["p50"] == summary["p95"] == summary["p99"] == 7.5
        assert percentile_of([7.5], 99) == 7.5

    def test_nan_observations_are_dropped_not_poisonous(self):
        hist = MetricsRegistry(rank=0).histogram("guarded")
        hist.observe(1.0)
        hist.observe(float("nan"))
        hist.observe(3.0)
        assert hist.count == 2
        assert hist.nan_ignored == 1
        summary = hist.summary()
        assert summary["sum"] == 4.0 and summary["mean"] == 2.0
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        # Every served number is a number.
        assert all(v == v for k, v in summary.items() if k != "samples")

    def test_zero_capacity_ring_serves_mean_for_percentiles(self):
        from repro.telemetry.metrics import Histogram

        hist = Histogram("ringless", sample_capacity=0)
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["p50"] == summary["p99"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# merge_snapshots over ragged keysets (shrink recovery)
# ----------------------------------------------------------------------
class TestMergeRaggedSnapshots:
    def test_ranks_need_not_share_a_keyset(self):
        # Rank 1 died before ever touching the histogram or the counter
        # (shrink-to-survive recovery): it must not zero out or poison
        # the survivors' aggregates.
        r0, r1 = MetricsRegistry(rank=0), MetricsRegistry(rank=1)
        r0.counter("steps").add(5)
        r0.histogram("lat").observe(0.5)
        r1.gauge("alive").set(0.0)
        merged = merge_snapshots([r0.snapshot(), r1.snapshot()])
        assert merged["ranks"] == [0, 1]
        assert merged["counters"]["steps"] == 5
        assert merged["histograms"]["lat"]["count"] == 1
        assert merged["histograms"]["lat"]["p99"] == pytest.approx(0.5)
        assert merged["gauges"]["alive"]["per_rank"] == {1: 0.0}

    def test_tick_style_summaries_without_samples_merge(self):
        # A summary without its raw sample list: the merge must still
        # pool count/sum/min/max and fall back cleanly on percentiles.
        tick_hist = {"count": 4, "sum": 8.0, "min": 1.0, "max": 3.0}
        live = MetricsRegistry(rank=0)
        live.histogram("lat").observe(10.0)
        merged = merge_snapshots([
            live.snapshot(),
            {"rank": 1, "counters": {}, "gauges": {},
             "histograms": {"lat": tick_hist}},
        ])
        entry = merged["histograms"]["lat"]
        assert entry["count"] == 5 and entry["sum"] == 18.0
        assert entry["min"] == 1.0 and entry["max"] == 10.0
        # Percentiles come from the one retained sample pool.
        assert entry["samples_pooled"] == 1
        assert entry["p50"] == pytest.approx(10.0)

    def test_malformed_histogram_entries_are_skipped(self):
        merged = merge_snapshots([
            {"rank": 0, "counters": {}, "gauges": {},
             "histograms": {"lat": "garbage"}},
        ])
        assert merged["histograms"] == {}


# ----------------------------------------------------------------------
# exporter lifecycle: concurrent scrapes, idempotent close, env opt-in
# ----------------------------------------------------------------------
class TestExporterLifecycle:
    def test_concurrent_scrapes_all_succeed(self):
        registry_for(0).counter("busy.metric").add(1)
        exporter = start_exporter(port=0)
        results, errors = [], []

        def scrape():
            try:
                with urllib.request.urlopen(exporter.url, timeout=10) as resp:
                    results.append((resp.status, resp.read().decode()))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        try:
            threads = [threading.Thread(target=scrape) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not errors
            assert len(results) == 8
            for status, body in results:
                assert status == 200
                assert "repro_busy_metric_total" in body
        finally:
            exporter.close()

    def test_close_is_idempotent_and_releases_the_port(self):
        exporter = start_exporter(port=0)
        assert not exporter.closed
        exporter.close()
        assert exporter.closed
        exporter.close()  # second close is a no-op, not an error
        with pytest.raises(Exception):
            urllib.request.urlopen(exporter.url, timeout=2)
        # The port is free again: a new exporter can bind it.
        rebound = PrometheusExporter("127.0.0.1", exporter.port)
        try:
            assert rebound.port == exporter.port
        finally:
            rebound.close()

    def test_env_opt_in_lifecycle(self, monkeypatch):
        from repro.telemetry.observatory import (
            maybe_start_from_env,
            stop_env_exporter,
        )

        monkeypatch.delenv("REPRO_METRICS_PORT", raising=False)
        assert maybe_start_from_env() is None
        monkeypatch.setenv("REPRO_METRICS_PORT", "not-a-port")
        assert maybe_start_from_env() is None
        monkeypatch.setenv("REPRO_METRICS_PORT", "0")
        exporter = maybe_start_from_env()
        try:
            assert exporter is not None
            # Asking for a scrape endpoint implies enabling telemetry.
            assert telemetry.is_enabled()
            # Idempotent: a second call returns the same running server.
            assert maybe_start_from_env() is exporter
            with urllib.request.urlopen(exporter.url, timeout=5) as resp:
                assert resp.status == 200
        finally:
            stop_env_exporter()
        assert exporter.closed
        # The slate is clean: a later opt-in starts a fresh server.
        monkeypatch.setenv("REPRO_METRICS_PORT", "0")
        fresh = maybe_start_from_env()
        assert fresh is not None and fresh is not exporter
        stop_env_exporter()
        assert fresh.closed
