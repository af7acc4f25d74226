"""Microbenchmarks: real wall-clock cost of the threaded collectives.

Unlike the figure benches (which run on the calibrated cost models),
these time the *actual* in-process implementations — the ring and the
one-round (naive) AllReduce over the thread transport, and a full
threaded DDP training iteration.  Useful for tracking regressions in the
library itself.

The two ``<algorithm>`` rows time rank-thread start-up plus one 512 KB
call, which is the latency regime.  The ``*_16mb_w2`` rows are the
bandwidth regime the DDP buckets of a large model live in: the median of
N calls on a 16 MiB buffer inside two *live* rank threads (no start-up in
the window), for ``sum`` and for the fused ``avg``; the
``reduce_scatter_flat`` / ``all_gather_flat`` rows call the group op,
one round at every size.  The
``allreduce_<size>_w<world>`` rows are the fixed cost of one collective:
the median *synchronous* call through a gloo ``ProcessGroup`` — issue,
worker hand-off, signature check, protocol chosen by size, completion —
again inside live rank threads.  ``small_allreduce_x12_w4`` is the
reducer's pattern on ``cnn_ddp_lat_w4``'s bucket sizes: twelve async
``AVG`` AllReduces issued back to back, then waited, at world 4; it
reports rank-thread CPU per collective and rank (report-only).
"""

import os
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro import nn
from repro.autograd import Tensor
from repro.comm import algorithms as alg
from repro.comm import get_context, run_distributed
from repro.comm.transport import TransportHub
from repro.core import DistributedDataParallel
from repro.optim import SGD
from repro.utils import manual_seed

WORLD = 4
PAYLOAD = 65_536  # fp64 elements per rank


def _join_ranks(row, body, world, timeout):
    """Run ``body(rank)`` on one thread per rank and join them; a rank
    still running ``timeout`` seconds after the start fails the row."""
    threads = [threading.Thread(target=body, args=(r,), daemon=True) for r in range(world)]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    stuck = [rank for rank, t in enumerate(threads) if t.is_alive()]
    if stuck:
        raise TimeoutError(f"{row}: ranks {stuck} did not finish within {timeout} s")


def _run_collective(algorithm_name):
    fn = alg.ALLREDUCE_ALGORITHMS[algorithm_name]
    hub = TransportHub(WORLD, default_timeout=10)
    rng = np.random.default_rng(0)
    inputs = [rng.standard_normal(PAYLOAD) for _ in range(WORLD)]
    outputs = [None] * WORLD

    def body(rank):
        buf = inputs[rank].copy()
        fn(hub, list(range(WORLD)), rank, buf, "sum", tag="b")
        outputs[rank] = buf

    _join_ranks(algorithm_name, body, WORLD, 30)
    return outputs


BW_WORLD = 2
BW_ELEMS = 2 * 1024 * 1024  # fp64 elements: 16 MiB, far above RENDEZVOUS_BYTES
BW_TIMEOUT = 30


def _allreduce_call(name, op):
    fn = alg.ALLREDUCE_ALGORITHMS[name]
    return lambda hub, ranks, rank, buf, tag: fn(hub, ranks, rank, buf, op, tag, BW_TIMEOUT)


def _group_call(name, *args):
    """The rank's gloo group's collective ``name`` (one round at any size)."""
    return lambda hub, ranks, rank, buf, tag: getattr(
        get_context().default_group, name)(buf, *args)


#: row name -> call(hub, ranks, rank, buf, tag) on a 16 MiB buffer.
BANDWIDTH_ROWS = {
    "ring_16mb_w2": _allreduce_call("ring", "sum"),
    "ring_16mb_w2_avg": _allreduce_call("ring", "avg"),
    "reduce_scatter_flat_16mb_w2": _group_call("reduce_scatter_flat", "sum"),
    "reduce_scatter_flat_16mb_w2_avg": _group_call("reduce_scatter_flat", "avg"),
    "all_gather_flat_16mb_w2": _group_call("all_gather_flat"),
}


def _median_in_live_threads(name, calls, warmup=2):
    """Median seconds of row ``name``'s call over ``calls`` back-to-back
    invocations inside running rank threads (the slower rank's median);
    every rank has a gloo group over the hub for the group rows."""
    call = BANDWIDTH_ROWS[name]
    hub = TransportHub(BW_WORLD, default_timeout=BW_TIMEOUT)
    ranks = list(range(BW_WORLD))
    gate = threading.Barrier(BW_WORLD)

    def body(rank):
        buf = np.ones(BW_ELEMS)
        samples = []
        for i in range(warmup + calls):
            gate.wait()
            start = time.perf_counter()
            call(hub, ranks, rank, buf, ("bw", i))
            samples.append(time.perf_counter() - start)
            buf.fill(1.0)  # sums would otherwise double every call
        return sorted(samples[warmup:])[calls // 2]

    medians = run_distributed(BW_WORLD, body, backend="gloo", timeout=BW_TIMEOUT, hub=hub)
    assert hub.pending_messages() == 0
    return max(medians)


#: row name -> (world, buffer bytes) of one sync AllReduce through the group.
LATENCY_ROWS = {
    "allreduce_64b_w4": (4, 64),
    "allreduce_8kb_w4": (4, 8 * 1024),
    "allreduce_64kb_w4": (4, 64 * 1024),
    "allreduce_64b_w2": (2, 64),
}


def _median_group_allreduce(world, nbytes, calls, warmup=20):
    """Median seconds of ``calls`` back-to-back ``group.allreduce`` calls
    (the slowest rank's median)."""

    def body():
        group = get_context().default_group
        buf = np.ones(nbytes // 8)
        samples = []
        for _ in range(warmup + calls):
            start = time.perf_counter()
            group.allreduce(buf)
            samples.append(time.perf_counter() - start)
            buf.fill(1.0)
        return sorted(samples[warmup:])[calls // 2]

    return max(run_distributed(world, body, backend="gloo", timeout=BW_TIMEOUT))


#: ``cnn_ddp_lat_w4``'s bucket sizes in float64 elements, the worker-path
#: 401 KB bucket replaced by one under the size rule.
SMALL_BUCKETS = (10, 640, 64, 4096, 16, 16, 16, 1152, 8, 8, 8, 72)


def _cpu_per_small_allreduce(rounds, warmup=30):
    """Rank-thread CPU seconds per collective and rank: every round issues
    one async ``AVG`` AllReduce per bucket, then waits for all of them."""

    def body():
        group = get_context().default_group
        buffers = [np.ones(n) for n in SMALL_BUCKETS]

        def one_round():
            for work in [group.allreduce(b, "avg", async_op=True) for b in buffers]:
                work.wait()

        for _ in range(warmup):
            one_round()
        start = time.thread_time()
        for _ in range(rounds):
            one_round()
        return time.thread_time() - start

    cpu = run_distributed(WORLD, body, backend="gloo", timeout=BW_TIMEOUT)
    return sum(cpu) / (WORLD * rounds * len(SMALL_BUCKETS))


def bench_micro_allreduce_ring(benchmark):
    outputs = benchmark(_run_collective, "ring")
    assert np.allclose(outputs[0], outputs[-1])


def bench_micro_allreduce_naive(benchmark):
    outputs = benchmark(_run_collective, "naive")
    assert np.allclose(outputs[0], outputs[-1])


def bench_micro_ddp_iteration(benchmark):
    """One full threaded DDP iteration (2 ranks, small MLP)."""
    rng = np.random.default_rng(1)
    X, Y = rng.standard_normal((8, 16)), rng.integers(0, 4, 8)

    def one_run():
        def body(rank):
            manual_seed(0)
            model = nn.Sequential(nn.Linear(16, 64), nn.ReLU(), nn.Linear(64, 4))
            ddp = DistributedDataParallel(model, bucket_cap_mb=0.01)
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(3):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            return True

        return run_distributed(2, body, backend="gloo")

    results = benchmark.pedantic(one_run, rounds=3, iterations=1)
    assert all(results)


def bench_micro_bucket_assignment(benchmark):
    """Bucket assignment over a realistic (ResNet50-sized) param list."""
    from repro.core.bucket import compute_bucket_assignment
    from repro.simulation.models import resnet50_profile

    params = list(resnet50_profile().params)
    buckets = benchmark(compute_bucket_assignment, params, 25 * 1024 * 1024)
    assert buckets


def main(argv=None):
    """Standalone mode: time each row and write
    ``benchmarks/results/collectives_micro.txt``, without pytest-benchmark."""
    from common import report

    iters = 3 if (argv and "--smoke" in argv) else 7
    rows = []
    for name in ["ring", "naive"]:
        samples = []
        for _ in range(iters):
            start = time.perf_counter()
            outputs = _run_collective(name)
            samples.append(time.perf_counter() - start)
            assert np.allclose(outputs[0], outputs[-1])
        rows.append([name, sorted(samples)[len(samples) // 2]])
    calls = 5 if iters == 3 else 15
    for name in BANDWIDTH_ROWS:
        rows.append([name, _median_in_live_threads(name, calls)])
    latency_calls = 100 if iters == 3 else 400
    rows = [[name, value, "s"] for name, value in rows]
    for name, (world, nbytes) in LATENCY_ROWS.items():
        seconds = _median_group_allreduce(world, nbytes, latency_calls)
        rows.append([name, f"{1e6 * seconds:.1f}", "us"])
    rounds = 100 if iters == 3 else 300
    rows.append(["small_allreduce_x12_w4", f"{1e6 * _cpu_per_small_allreduce(rounds):.1f}",
                 "us rank-thread CPU per collective-rank"])
    report(
        "collectives_micro",
        f"AllReduce microbench ({WORLD} ranks, {PAYLOAD} fp64 elems, median of {iters}; "
        f"*_16mb_w2: {BW_WORLD} live ranks, {BW_ELEMS} fp64 elems, median of {calls} calls; "
        f"allreduce_*: sync call through a gloo group, median of {latency_calls}; "
        f"small_allreduce_x12_w4: {rounds} rounds of 12)",
        ["row", "value", "unit"],
        rows,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
