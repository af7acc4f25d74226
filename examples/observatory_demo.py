"""Observatory smoke: live metrics, critical-path blame, one trace.

Runs a short multi-rank DDP job with the full performance observatory
attached:

* a Prometheus exporter serving the same registries on ``/metrics`` —
  the demo scrapes itself once over HTTP and prints a few lines;
* the critical-path profiler's per-bucket blame table for the last
  iteration (where did the wall time go: prepare, backward, exposed
  communication, finalize) and the cross-rank straggler summary;
* the Chrome trace (``observatory_timeline.json``): the ``compute``
  row and the ``comm`` row, one mark per retained collective record,
  both drawn from the per-rank record rings — load it at
  https://ui.perfetto.dev;
* the run's post-mortem artefact, the flight-recorder dump
  (``observatory_flight_recorder.json``): per rank the records, the
  incidents and the folded metrics that ``tools/healthctl.py`` reads.

The script validates its own outputs (exposition scrapes, attribution
sums to the iteration wall time, trace parses and draws every retained
record, every rank's dump holds its records and metrics) so CI can run
it as the observatory smoke
test.

Run:
    python examples/observatory_demo.py
    REPRO_DEBUG=INFO python examples/observatory_demo.py
"""

import json
import os
import urllib.request

import numpy as np

from repro import nn, optim, telemetry
from repro.autograd import Tensor
from repro.comm import run_distributed
from repro.core import DistributedDataParallel
from repro.debug import all_recorders, dump_json
from repro.telemetry.observatory import CriticalPathProfiler, start_exporter
from repro.utils import manual_seed

WORLD_SIZE = int(os.environ.get("REPRO_DEMO_WORLD", "4"))
ITERATIONS = 6
DUMP_PATH = os.environ.get("REPRO_DEMO_DUMP", "observatory_flight_recorder.json")
TIMELINE_PATH = os.environ.get("REPRO_DEMO_TIMELINE", "observatory_timeline.json")


def train(rank: int):
    manual_seed(7)
    net = nn.Sequential(
        nn.Linear(64, 192), nn.ReLU(), nn.Linear(192, 192), nn.ReLU(),
        nn.Linear(192, 8),
    )
    ddp = DistributedDataParallel(net, bucket_cap_mb=0.25)
    opt = optim.SGD(ddp.parameters(), lr=0.01)
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(rank)
    for _ in range(ITERATIONS):
        inp = Tensor(rng.standard_normal((64, 64)))
        exp = rng.integers(0, 8, 64)
        opt.zero_grad()
        loss_fn(ddp(inp), exp).backward()
        opt.step()
    return ddp.ddp_stats()


def main() -> int:
    telemetry.enable()
    exporter = start_exporter(port=int(os.environ.get("REPRO_METRICS_PORT", 0)))

    print(f"== training: {WORLD_SIZE} ranks x {ITERATIONS} iterations ==")
    stats = run_distributed(WORLD_SIZE, train, backend="gloo", timeout=60.0)

    # -- live scrape (what a real Prometheus would pull) ----------------
    with urllib.request.urlopen(exporter.url, timeout=5) as response:
        exposition = response.read().decode()
    interesting = [
        line for line in exposition.splitlines()
        if line.startswith(("repro_iterations_synced", "repro_iteration_overlap"))
    ]
    print(f"\n== scraped {exporter.url}: {len(exposition.splitlines())} lines ==")
    print("\n".join(interesting[: WORLD_SIZE * 2]))
    assert "repro_iterations_synced_total" in exposition

    # -- post-mortem artefact ------------------------------------------
    dumps = json.loads(dump_json(DUMP_PATH))["flight_recorders"]
    print(f"\n== flight-recorder dump: ranks {[d['rank'] for d in dumps]} ==")
    for dump in dumps:
        counters = dump["metrics"]["counters"]
        assert dump["records"] and counters["iterations.synced"] == ITERATIONS
        print(f"rank {dump['rank']}: {len(dump['records'])} records, "
              f"{len(dump['incidents'])} incidents, "
              f"{counters['health.collectives_accounted']:.0f} collectives accounted")
    print(f"wrote {DUMP_PATH} — analyze with: python tools/healthctl.py {DUMP_PATH}")

    # -- critical-path blame -------------------------------------------
    profiler = CriticalPathProfiler()
    profile = profiler.last_profile()
    print("\n== critical path (last iteration) ==")
    print(profile.blame_table())
    attributed = sum(profile.attribution().values())
    assert abs(attributed - profile.total_s) <= 0.02 * profile.total_s
    print(f"\n{profiler.straggler_summary().describe()}")
    ddp_profile = stats[0]["profile"]
    assert ddp_profile is not None and ddp_profile["blame"]
    print(f"ddp_stats profile: overlap {stats[0]['comm_compute_overlap_ratio']:.3f}, "
          f"exposed comm {ddp_profile['attribution_ms']['exposed_comm_ms']:.3f} ms")

    # -- trace ----------------------------------------------------------
    path = telemetry.export_chrome_trace(TIMELINE_PATH)
    document = json.load(open(path))
    events = document["traceEvents"]
    categories = {e.get("cat") for e in events if e.get("cat")}
    print(f"\n== trace: {len(events)} events, tracks: {sorted(categories)} ==")
    assert {"compute", "comm", "iteration"} <= categories
    # The comm row draws every retained record, one mark each.
    for rank, ring in sorted(all_recorders().items()):
        marks = sum(1 for e in events if e.get("cat") == "comm" and e["pid"] == rank)
        assert marks == ring.depth(), (rank, marks, ring.depth())
    print(f"comm row: one mark per retained record "
          f"({sum(ring.depth() for ring in all_recorders().values())} records)")
    print(f"wrote {path} — open at https://ui.perfetto.dev")

    exporter.close()
    print("\nobservatory demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
