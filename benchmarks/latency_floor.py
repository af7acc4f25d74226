"""Where a latency-bound DDP iteration goes: the floor under ``cnn_ddp_lat_w4``.

Runs the repo benchmark's own training loop (``benchmarks/e2e/harness.py::
train``: same model, batches, optimizer, four rank threads) under four
configurations and prints ``iter p50`` and process CPU per iteration for
each, raw milliseconds, and the voluntary / involuntary context switches
per rank-iteration (``getrusage(RUSAGE_THREAD)`` in each rank thread
around the timed loop): under one GIL a voluntary switch is mostly a
rank thread giving the GIL up — a numpy call that releases it, or a
wait:

* ``local``      — four threads training locally: no DDP, no collectives.
  The GIL-serialised compute nothing in ``repro.comm`` can touch.
* ``one_bucket_no_bcast`` — DDP, ``bucket_cap_mb=25``, no buffer
  broadcast: one collective per iteration.  What wrapping costs.
* ``one_bucket`` — the same with the per-forward buffer broadcast: two.
* ``workload``   — ``bucket_cap_mb=0``: 12 AllReduces + 1 broadcast.

``workload − one_bucket`` over eleven collectives is the per-collective
fixed cost; ``local`` is the share no communication change can win back.
Run it before touching ``repro.comm`` for latency, and alternate it with
a clone of the parent commit — this box drifts more between minutes than
most changes move (docs/performance.md, "Latency path").

    python benchmarks/latency_floor.py [row ...] [--iters 150]
"""

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import threading
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # as benchmarks/e2e/run.py pins them

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "e2e")]

from harness import Replica, iteration_times, train  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.comm import get_context, run_distributed  # noqa: E402

#: row -> DDP keyword arguments (None: no DDP at all).
ROWS = {
    "local": None,
    "one_bucket_no_bcast": {"bucket_cap_mb": 25, "broadcast_buffers": False},
    "one_bucket": {"bucket_cap_mb": 25, "broadcast_buffers": True},
    "workload": dict(WORKLOADS["cnn_ddp_lat_w4"].ddp_kwargs),
}
WARMUP, SEED, TIMEOUT_S = 10, 7, 40.0


def measure(row: str, iters: int) -> dict:
    ddp_kwargs = ROWS[row]
    workload = dataclasses.replace(WORKLOADS["cnn_ddp_lat_w4"], ddp_kwargs=ddp_kwargs or {})
    dataset = workload.dataset(SEED)
    gate = threading.Barrier(workload.world)
    cpu = [0.0, 0.0]

    def body(rank):
        # No backend, no group: ``default_group`` is None on the local row.
        replica = Replica(workload, workload.model(SEED), get_context().default_group)
        batches = workload.batches(dataset, SEED, rank)
        train(replica, batches, WARMUP, NullTracer())
        if gate.wait() == 0:
            cpu[0] = time.process_time()
        before = resource.getrusage(resource.RUSAGE_THREAD)
        start = time.perf_counter()
        ends, _ = train(replica, batches, iters, NullTracer())
        after = resource.getrusage(resource.RUSAGE_THREAD)
        if gate.wait() == 0:
            cpu[1] = time.process_time()
        return start, ends, (after.ru_nvcsw - before.ru_nvcsw, after.ru_nivcsw - before.ru_nivcsw)

    results = run_distributed(
        workload.world, body, backend=None if ddp_kwargs is None else "gloo",
        timeout=TIMEOUT_S,
    )
    starts, ends, switches = zip(*results)
    voluntary, involuntary = (sum(counts) / (workload.world * iters) for counts in zip(*switches))
    return {
        "row": row,
        "iter_p50_ms": round(1e3 * statistics.median(iteration_times(starts, ends)), 2),
        "cpu_ms_per_iter": round(1e3 * (cpu[1] - cpu[0]) / iters, 2),
        "vol_csw_per_rank_iter": round(voluntary, 1),
        "invol_csw_per_rank_iter": round(involuntary, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rows", nargs="*", help=f"any of {', '.join(ROWS)} (default: all)")
    parser.add_argument("--iters", type=int, default=150)
    args = parser.parse_args()
    if set(args.rows) - set(ROWS):
        parser.error(f"unknown row(s) {sorted(set(args.rows) - set(ROWS))}")
    for row in args.rows or ROWS:
        print(json.dumps(measure(row, args.iters)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
