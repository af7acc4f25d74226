"""Telemetry smoke: trace a real multi-rank DDP run end to end.

Enables ``repro.telemetry``, trains a small MLP on rank threads, then:

* exports a Chrome trace (``telemetry_trace.json``) with one process
  per rank and compute/comm rows — load it in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
* prints ``ddp_stats()`` (bucket layout, overlap ratio, per-bucket
  AllReduce latency, autograd hooks fired), the transport hub's
  always-on message counters and the merged cross-rank metric
  counters, which every read folds from the per-rank record rings;
* prints the critical-path profiler's straggler summary, read from the
  per-rank record rings (no extra collective);
* validates the exported trace: parseable JSON, events from every
  rank, and ``comm`` rows nested inside an iteration window — so CI can
  use this script as a telemetry smoke test;
* checks the debug layer: with telemetry on the collective record ring
  (``recorder_for(rank).depth()``) must hold records at every level;
  with ``REPRO_DEBUG=INFO`` (or higher) the rank's liveness thread
  (``get_context().monitor.status()``) must be watching for hangs, and
  when OFF there must be no watch.

Run:
    python examples/telemetry_demo.py
    REPRO_DEBUG=INFO python examples/telemetry_demo.py
"""

import json
import os
import tempfile

import numpy as np

from repro import nn, optim, telemetry
from repro.autograd import Tensor
from repro.comm import TransportHub, get_context, run_distributed
from repro.core import DistributedDataParallel
from repro.debug import debug_level_name, recorder_for
from repro.telemetry.observatory import CriticalPathProfiler
from repro.utils import manual_seed

WORLD_SIZE = int(os.environ.get("REPRO_DEMO_WORLD", "4"))
ITERATIONS = 3


def train(rank: int):
    manual_seed(7)
    net = nn.Sequential(
        nn.Linear(32, 128), nn.ReLU(), nn.Linear(128, 128), nn.ReLU(),
        nn.Linear(128, 8),
    )
    ddp = DistributedDataParallel(net, bucket_cap_mb=0.05)
    opt = optim.SGD(ddp.parameters(), lr=0.01)
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(rank)

    for _ in range(ITERATIONS):
        inp = Tensor(rng.standard_normal((32, 32)))
        exp = rng.integers(0, 8, 32)
        opt.zero_grad()
        loss_fn(ddp(inp), exp).backward()
        opt.step()

    # The hang watch runs only while the rank does: read it here.
    return ddp.ddp_stats(), get_context().monitor.status()


def validate_trace(path: str) -> dict:
    """Assert the exported trace is well-formed; return summary numbers."""
    with open(path) as fh:
        trace = json.load(fh)
    events = trace["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    ranks_seen = {e["pid"] for e in complete}
    assert ranks_seen == set(range(WORLD_SIZE)), f"missing ranks: {ranks_seen}"
    cats_by_rank = {
        rank: {e["cat"] for e in complete if e["pid"] == rank}
        for rank in sorted(ranks_seen)
    }
    for rank, cats in cats_by_rank.items():
        assert "comm" in cats, f"rank {rank} has no comm rows"
        assert {"compute", "iteration"} & cats, f"rank {rank} has no compute rows"
    # every gradient AllReduce falls inside some iteration window on its
    # rank (construction-time broadcasts legitimately precede iteration 0)
    iterations = [e for e in complete if e["cat"] == "iteration"]
    for comm in (e for e in complete
                 if e["cat"] == "comm" and e["name"].startswith("allreduce")):
        assert any(
            it["pid"] == comm["pid"]
            and it["ts"] <= comm["ts"]
            and comm["ts"] + comm["dur"] <= it["ts"] + it["dur"]
            for it in iterations
        ), f"comm row outside iteration window: {comm['name']}"
    return {"events": len(complete), "ranks": len(ranks_seen)}


def main() -> None:
    telemetry.enable()
    print(f"tracing a {WORLD_SIZE}-rank DDP run ({ITERATIONS} iterations)...\n")
    hub = TransportHub(WORLD_SIZE, default_timeout=60)
    results = run_distributed(WORLD_SIZE, train, backend="gloo", timeout=60, hub=hub)

    trace_path = os.path.join(tempfile.gettempdir(), "telemetry_trace.json")
    telemetry.export_chrome_trace(trace_path)
    summary = validate_trace(trace_path)
    print(f"chrome trace: {trace_path} "
          f"({summary['events']} bars from {summary['ranks']} ranks) — "
          "open it in https://ui.perfetto.dev\n")

    stats, watch = results[0]
    print("ddp_stats() on rank 0:")
    for key in ("world_size", "backend", "num_buckets", "bucket_sizes_bytes",
                "unused_parameter_count", "comm_compute_overlap_ratio",
                "per_bucket_allreduce_latency_s"):
        print(f"  {key}: {stats[key]}")
    assert 0.0 <= stats["comm_compute_overlap_ratio"] <= 1.0
    hooks = stats["grad_copy_count"] + stats["zero_copy_hits"]
    print(f"  autograd hooks fired (grad_copy_count + zero_copy_hits): {hooks}")
    # Each of the MLP's six parameters fires its hook once per iteration.
    assert hooks == ITERATIONS * 6, hooks

    print(f"\ntransport hub: {sum(hub.messages_sent)} messages, "
          f"{sum(hub.bytes_sent)} bytes sent (per rank {hub.messages_sent})")
    assert all(hub.messages_sent), "a rank sent no message"

    merged = telemetry.merge_snapshots(telemetry.all_snapshots())
    print("\nmerged cross-rank counters:")
    for name in ("allreduce.bytes", "allreduce.count", "bucket.launches",
                 "iterations.synced"):
        print(f"  {name}: {merged['counters'][name]}")
    assert merged["counters"]["iterations.synced"] == WORLD_SIZE * ITERATIONS
    assert merged["counters"]["bucket.launches"] == (
        WORLD_SIZE * ITERATIONS * stats["num_buckets"])

    print(f"\n{CriticalPathProfiler().straggler_summary().describe()}")

    level, depth = debug_level_name(), recorder_for(0).depth()
    print(f"\ndebug layer (REPRO_DEBUG={level}): {depth} records retained, "
          f"hang watch {watch}")
    assert depth > 0, (
        "telemetry is on, but the record ring retained no collectives at "
        f"REPRO_DEBUG={level}"
    )
    if level == "OFF":
        assert not watch["active"], "no hang watch expected when OFF"
    else:
        assert watch["active"], "the liveness thread was not running"
        assert watch["alarms_raised"] == 0, "healthy run raised a desync alarm"

    telemetry.disable()
    print("\ntelemetry smoke passed.")


if __name__ == "__main__":
    main()
