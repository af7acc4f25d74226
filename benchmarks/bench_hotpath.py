#!/usr/bin/env python
"""Hot-path benchmark: seed vs. optimized gradient communication.

Measures the three layers the hot-path overhaul touched, and writes one
machine-readable ``BENCH_hotpath.json`` at the repo root:

1. **AllReduce data path** — the seed ring (index-array chunks, Python
   lambda reductions; embedded below verbatim as ``seed_allreduce_ring``)
   against the current vectorized/chunked ring, halving-doubling, and
   the naive all-to-all baseline, across world sizes and buffer sizes —
   the paper's Fig. 7/8 bucket-size axis.
2. **Chunk-size sweep** — the ``chunk_bytes`` pipelining knob on a
   large bucket.
3. **End-to-end DDP iteration** — ``gradient_as_bucket_view`` on/off,
   with the reducer's always-on phase telemetry (and zero-copy
   counters) attached so the JSON shows *where* the time went, not
   just how much there was.
4. **Optimizer step** — rows ``optim_step_adam_830k`` and
   ``optim_step_sgd_4m``: the median ``optimizer.step()`` of real DDP
   training, timed **inside two live rank threads** (both leave the
   same AllReduce and step at the same moment; alone on the machine the
   step prefers a block size that loses under contention), with each
   bucket stepped as one flat (view mode) against one parameter at a
   time (copy mode), and the numpy calls per step of each.

Run ``python benchmarks/bench_hotpath.py --smoke`` for the CI-sized
version.  Exits non-zero if the optimized path loses to the seed path
or the naive path on the large-bucket AllReduce (the regression gate).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import emit_json, report  # noqa: E402

from repro import nn  # noqa: E402
from repro.autograd import Tensor  # noqa: E402
from repro.autograd.profiler import _workload as profiler_workload  # noqa: E402
from repro.autograd.profiler import count_numpy_calls  # noqa: E402
from repro.comm import algorithms as alg  # noqa: E402
from repro.comm import run_distributed  # noqa: E402
from repro.comm.transport import TransportHub  # noqa: E402
from repro.core import DistributedDataParallel  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.utils import manual_seed  # noqa: E402

MB = 1024 * 1024


# ----------------------------------------------------------------------
# The seed data path, embedded as the labeled baseline: index-array
# chunking (np.array_split of an arange → fancy-indexing gathers) and a
# Python lambda reduction that allocates a fresh array per step.
# ----------------------------------------------------------------------
def seed_allreduce_ring(hub, ranks, me, buffer, op="sum", tag="ring", timeout=None):
    """The pre-overhaul ring AllReduce, verbatim from the seed tree."""
    fn = {"sum": lambda a, b: a + b}[op]
    world = len(ranks)
    if world == 1:
        return
    flat = buffer.reshape(-1)
    chunks = np.array_split(np.arange(flat.size), world)
    right = ranks[(me + 1) % world]
    left = ranks[(me - 1) % world]
    for step in range(world - 1):
        send_idx = (me - step) % world
        recv_idx = (me - step - 1) % world
        hub.send(ranks[me], right, (tag, "rs", step), flat[chunks[send_idx]].copy())
        incoming = hub.recv(ranks[me], left, (tag, "rs", step), timeout)
        flat[chunks[recv_idx]] = fn(flat[chunks[recv_idx]], incoming)
    for step in range(world - 1):
        send_idx = (me - step + 1) % world
        recv_idx = (me - step) % world
        hub.send(ranks[me], right, (tag, "ag", step), flat[chunks[send_idx]].copy())
        incoming = hub.recv(ranks[me], left, (tag, "ag", step), timeout)
        flat[chunks[recv_idx]] = incoming
    buffer.reshape(-1)[...] = flat


def time_allreduce(fn, world, nelems, iters, chunk_bytes=None, check_against=None):
    """Median over ``iters`` of one collective's max-across-ranks wall time.

    Every rank thread synchronizes on a barrier, runs the collective
    ``iters`` times (distinct tags), and reports per-iteration wall
    time; the slowest rank defines each iteration (collectives finish
    together or not at all).
    """
    hub = TransportHub(world, default_timeout=60)
    rng = np.random.default_rng(7)
    inputs = [rng.standard_normal(nelems) for _ in range(world)]
    expected = np.sum(inputs, axis=0)
    per_rank_times = [None] * world
    outputs = [None] * world
    barrier = threading.Barrier(world)
    ranks = list(range(world))

    def body(rank):
        buf = inputs[rank].copy()
        times = []
        for i in range(iters):
            barrier.wait()
            t0 = time.perf_counter()
            if chunk_bytes is None:
                fn(hub, ranks, rank, buf, "sum", ("bench", i), 60.0)
            else:
                fn(hub, ranks, rank, buf, "sum", ("bench", i), 60.0, chunk_bytes)
            times.append(time.perf_counter() - t0)
            if i < iters - 1:
                buf[...] = inputs[rank]
        per_rank_times[rank] = times
        outputs[rank] = buf

    threads = [threading.Thread(target=body, args=(r,), daemon=True) for r in ranks]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    if any(t.is_alive() for t in threads):
        raise TimeoutError("benchmark rank threads did not finish")
    for rank in ranks:
        np.testing.assert_allclose(outputs[rank], expected, rtol=1e-9)
    worst_per_iter = [max(ts[i] for ts in per_rank_times) for i in range(iters)]
    return statistics.median(worst_per_iter)


def bench_allreduce_sweep(worlds, sizes_mb, iters):
    """Seed ring vs. optimized ring/halving-doubling vs. naive."""
    rows = []
    for world in worlds:
        for size_mb in sizes_mb:
            nelems = int(size_mb * MB // 8)
            seed_s = time_allreduce(seed_allreduce_ring, world, nelems, iters)
            ring_s = time_allreduce(alg.allreduce_ring, world, nelems, iters)
            hd_s = time_allreduce(alg.allreduce_halving_doubling, world, nelems, iters)
            naive_s = time_allreduce(alg.allreduce_naive, world, nelems, iters)
            rows.append(
                {
                    "world": world,
                    "size_mb": size_mb,
                    "elements": nelems,
                    "seed_ring_s": seed_s,
                    "ring_s": ring_s,
                    "halving_doubling_s": hd_s,
                    "naive_s": naive_s,
                    "ring_speedup_vs_seed": seed_s / ring_s if ring_s else 0.0,
                    "ring_speedup_vs_naive": naive_s / ring_s if ring_s else 0.0,
                }
            )
    return rows


def bench_chunk_sweep(world, size_mb, chunk_kbs, iters):
    """The chunk_bytes pipelining knob on one large bucket."""
    nelems = int(size_mb * MB // 8)
    rows = []
    for chunk_kb in chunk_kbs:
        elapsed = time_allreduce(
            alg.allreduce_ring, world, nelems, iters, chunk_bytes=chunk_kb * 1024
        )
        rows.append({"chunk_kb": chunk_kb, "world": world, "size_mb": size_mb,
                     "ring_s": elapsed})
    return rows


def bench_ddp_iteration(hidden, iters, configs):
    """Full DDP training iterations under different data-path configs.

    Each config runs 2 ranks over gloo; reports the median iteration
    wall time (after one warmup), the reducer's zero-copy counters, and
    the always-on phase breakdown of the last iteration (the telemetry
    evidence of where time went).
    """
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, hidden))
    Y = rng.integers(0, 8, 8)
    results = []
    for config in configs:
        view = config["gradient_as_bucket_view"]
        cap_mb = config["bucket_cap_mb"]

        def body(rank):
            manual_seed(0)
            model = nn.Sequential(
                nn.Linear(hidden, hidden),
                nn.ReLU(),
                nn.Linear(hidden, hidden),
                nn.ReLU(),
                nn.Linear(hidden, 8),
            )
            ddp = DistributedDataParallel(
                model,
                bucket_cap_mb=cap_mb,
                gradient_as_bucket_view=view,
            )
            opt = SGD(ddp.parameters(), lr=0.01)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            times = []
            for _ in range(iters + 1):
                t0 = time.perf_counter()
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
                times.append(time.perf_counter() - t0)
            stats = ddp.ddp_stats()
            return {
                "iter_s": statistics.median(times[1:]),  # drop warmup
                "zero_copy_hits": stats["zero_copy_hits"],
                "grad_copy_count": stats["grad_copy_count"],
                "layout_allocations": stats["layout_allocations"],
                "num_buckets": stats["num_buckets"],
                "overlap_ratio": stats["comm_compute_overlap_ratio"],
                "phases": dict(ddp.reducer.recorder.last_detail.get("phases", {})),
            }

        per_rank = run_distributed(2, body, backend="gloo", timeout=120.0)
        worst = max(per_rank, key=lambda r: r["iter_s"])
        results.append(
            {
                "mode": "view" if view else "copy",
                # A group has one communication worker; the field keeps
                # rows keyed as in the recorded baselines.
                "num_streams": 1,
                "bucket_cap_mb": cap_mb,
                **worst,
            }
        )
    return results


#: Row name -> the profiler CLI's workload of that name: the models,
#: batches and optimizers of the repo benchmark's tfm_ddp_w2 and
#: mlp_ddp_bw_w2.
OPTIM_STEP_ROWS = {"optim_step_adam_830k": "transformer", "optim_step_sgd_4m": "mlp"}


def bench_optim_step(iters):
    """Median ``optimizer.step()`` inside two live DDP rank threads."""
    rows = {}
    for name, workload in OPTIM_STEP_ROWS.items():
        row = {}
        for layout, view in (("flat", True), ("per_param", False)):
            with count_numpy_calls() as counts:

                def body(rank):
                    model, inputs, labels, loss_fn, optimizer = profiler_workload(workload)
                    ddp = DistributedDataParallel(model, gradient_as_bucket_view=view)
                    me = threading.get_ident()
                    spans = []
                    for _ in range(iters + 2):
                        optimizer.zero_grad()
                        loss_fn(ddp(inputs), labels).backward()
                        calls = counts[me]
                        t0 = time.perf_counter()
                        optimizer.step()
                        spans.append(time.perf_counter() - t0)
                    elements = sum(p.numel() for p in ddp.parameters())
                    return statistics.median(spans[2:]), counts[me] - calls, elements

                per_rank = run_distributed(2, body, backend="gloo", timeout=120.0)
            row[f"{layout}_ms"] = max(r[0] for r in per_rank) * 1e3
            row[f"{layout}_numpy_calls"] = per_rank[0][1]
            row["elements"] = per_rank[0][2]
        rows[name] = row
    return rows


def bench_sampler_overhead(hidden, iters, interval=0.1):
    """Iteration-time cost of the observatory's background sampler.

    Runs the same 2-rank DDP loop twice with telemetry enabled — once
    bare, once with a :class:`MetricsSampler` ticking at ``interval`` —
    and reports the relative median-iteration overhead.  The sampler
    runs on its own daemon thread, so at the default 100 ms interval the
    overhead should be noise (< 2%); the exit gate is deliberately
    looser so scheduler jitter on loaded CI runners can't flake it.
    """
    from repro import telemetry
    from repro.telemetry.observatory import MetricsSampler

    def run_once(with_sampler):
        sampler = MetricsSampler(interval=interval).start() if with_sampler else None

        def body(rank):
            manual_seed(0)
            model = nn.Sequential(
                nn.Linear(hidden, hidden), nn.ReLU(), nn.Linear(hidden, 8)
            )
            ddp = DistributedDataParallel(model, bucket_cap_mb=1.0)
            opt = SGD(ddp.parameters(), lr=0.01)
            loss_fn = nn.CrossEntropyLoss()
            rng = np.random.default_rng(rank)
            X = rng.standard_normal((4, hidden))
            Y = rng.integers(0, 8, 4)
            times = []
            for _ in range(iters + 1):
                t0 = time.perf_counter()
                opt.zero_grad()
                loss_fn(ddp(Tensor(X)), Y).backward()
                opt.step()
                times.append(time.perf_counter() - t0)
            return statistics.median(times[1:])

        per_rank = run_distributed(2, body, backend="gloo", timeout=120.0)
        if sampler is not None:
            sampler.stop()
        return max(per_rank)

    telemetry.enable()
    try:
        base_s = run_once(False)
        sampled_s = run_once(True)
    finally:
        telemetry.disable()
        telemetry.reset()
    overhead_pct = 100.0 * (sampled_s - base_s) / base_s if base_s > 0 else 0.0
    return {
        "interval_s": interval,
        "iters": iters,
        "base_iter_s": base_s,
        "sampled_iter_s": sampled_s,
        "overhead_pct": overhead_pct,
    }


def bench_health_overhead(hidden, iters):
    """Iteration-time cost of the comm health engine's accounting.

    Telemetry stays enabled for both runs; only the health kill switch
    flips.  The delta isolates what the per-collective efficiency
    accounting (stall bracketing, busbw/utilization observations) adds
    on top of spans and retained records — the acceptance bound is < 5%.

    The schedule is ABBA (off, on, on, off) with each arm averaged:
    background load on a shared runner drifts over the measurement
    window, and a naive A-then-B comparison silently charges the drift
    to whichever arm ran second.  ABBA cancels linear drift exactly.
    """
    from repro import telemetry
    from repro.telemetry.health import accounting

    def run_once(with_health):
        accounting.set_enabled(with_health)

        def body(rank):
            manual_seed(0)
            model = nn.Sequential(
                nn.Linear(hidden, hidden), nn.ReLU(), nn.Linear(hidden, 8)
            )
            ddp = DistributedDataParallel(model, bucket_cap_mb=1.0)
            opt = SGD(ddp.parameters(), lr=0.01)
            loss_fn = nn.CrossEntropyLoss()
            rng = np.random.default_rng(rank)
            X = rng.standard_normal((4, hidden))
            Y = rng.integers(0, 8, 4)
            # One warm-up, then the timed block as one wall-clock span:
            # per-iteration medians are too coarse for a percent-level
            # delta at millisecond iteration times.
            opt.zero_grad()
            loss_fn(ddp(Tensor(X)), Y).backward()
            opt.step()
            t0 = time.perf_counter()
            for _ in range(iters):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X)), Y).backward()
                opt.step()
            return (time.perf_counter() - t0) / iters

        per_rank = run_distributed(2, body, backend="gloo", timeout=120.0)
        return max(per_rank)

    iters = max(iters, 50)
    telemetry.enable()
    try:
        base_a = run_once(False)
        health_a = run_once(True)
        health_b = run_once(True)
        base_b = run_once(False)
    finally:
        accounting.set_enabled(True)
        telemetry.disable()
        telemetry.reset()
    base_s = (base_a + base_b) / 2.0
    health_s = (health_a + health_b) / 2.0
    overhead_pct = 100.0 * (health_s - base_s) / base_s if base_s > 0 else 0.0
    return {
        "iters": iters,
        "schedule": "ABBA",
        "base_iter_s": base_s,
        "health_iter_s": health_s,
        "overhead_pct": overhead_pct,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: fewer worlds/sizes/iters")
    parser.add_argument("--iters", type=int, default=None,
                        help="timed repetitions per data point")
    parser.add_argument("--out", default=None, help="output JSON path override")
    args = parser.parse_args(argv)

    if args.smoke:
        worlds, sizes_mb = [2, 4], [1, 25]
        chunk_kbs = [64, 1024, 8192]
        iters = args.iters or 3
        hidden, ddp_iters, step_iters = 256, 4, 8
    else:
        worlds, sizes_mb = [2, 4, 8], [1, 8, 25, 50]
        chunk_kbs = [16, 64, 256, 1024, 4096, 8192, 32768]
        iters = args.iters or 5
        hidden, ddp_iters, step_iters = 512, 8, 40

    print(f"[bench_hotpath] allreduce sweep: worlds={worlds} sizes_mb={sizes_mb}")
    allreduce_rows = bench_allreduce_sweep(worlds, sizes_mb, iters)
    report(
        "hotpath_allreduce",
        "AllReduce: seed ring vs optimized (seconds, worst rank, median)",
        ["world", "MB", "seed_ring", "ring", "halving_dbl", "naive", "speedup_vs_seed"],
        [
            [r["world"], r["size_mb"], r["seed_ring_s"], r["ring_s"],
             r["halving_doubling_s"], r["naive_s"], r["ring_speedup_vs_seed"]]
            for r in allreduce_rows
        ],
    )

    print("[bench_hotpath] chunk-size sweep")
    chunk_world = max(worlds)
    chunk_size_mb = max(sizes_mb)
    chunk_rows = bench_chunk_sweep(chunk_world, chunk_size_mb, chunk_kbs, iters)
    report(
        "hotpath_chunks",
        f"Ring AllReduce {chunk_size_mb} MB, world {chunk_world}: chunk size sweep",
        ["chunk_kb", "seconds"],
        [[r["chunk_kb"], r["ring_s"]] for r in chunk_rows],
    )

    print("[bench_hotpath] DDP iteration: copy vs view")
    ddp_rows = bench_ddp_iteration(
        hidden,
        ddp_iters,
        [
            {"gradient_as_bucket_view": False, "bucket_cap_mb": 1.0},
            {"gradient_as_bucket_view": True, "bucket_cap_mb": 1.0},
        ],
    )
    report(
        "hotpath_ddp",
        f"DDP iteration (2 ranks, 3-layer MLP hidden={hidden})",
        ["mode", "iter_ms", "zero_copy", "grad_copies", "overlap"],
        [
            [r["mode"], r["iter_s"] * 1e3, r["zero_copy_hits"],
             r["grad_copy_count"], r["overlap_ratio"]]
            for r in ddp_rows
        ],
    )

    print("[bench_hotpath] optimizer step inside two live rank threads")
    optim_rows = bench_optim_step(step_iters)
    report(
        "hotpath_optim_step",
        "optimizer.step() in 2 live DDP rank threads (ms, slower rank, median)",
        ["row", "elements", "flat_ms", "per_param_ms", "flat_calls", "per_param_calls"],
        [
            [name, r["elements"], r["flat_ms"], r["per_param_ms"],
             r["flat_numpy_calls"], r["per_param_numpy_calls"]]
            for name, r in optim_rows.items()
        ],
    )

    print("[bench_hotpath] observatory sampler overhead at 100 ms")
    sampler_row = bench_sampler_overhead(hidden, ddp_iters * 4)
    report(
        "hotpath_sampler",
        "MetricsSampler overhead (2 ranks, median iteration)",
        ["interval_s", "base_ms", "sampled_ms", "overhead_pct"],
        [[sampler_row["interval_s"], sampler_row["base_iter_s"] * 1e3,
          sampler_row["sampled_iter_s"] * 1e3, sampler_row["overhead_pct"]]],
    )

    print("[bench_hotpath] comm health accounting overhead")
    health_row = bench_health_overhead(hidden, ddp_iters * 4)
    report(
        "hotpath_health",
        "Health accounting overhead (2 ranks, median iteration)",
        ["base_ms", "health_ms", "overhead_pct"],
        [[health_row["base_iter_s"] * 1e3, health_row["health_iter_s"] * 1e3,
          health_row["overhead_pct"]]],
    )

    # Regression gates on the largest (≥25 MB) bucket case.
    large = [r for r in allreduce_rows if r["size_mb"] >= 25] or allreduce_rows
    gate = max(large, key=lambda r: (r["size_mb"], r["world"]))
    view_row = next(r for r in ddp_rows if r["mode"] == "view")
    checks = {
        "large_bucket_case": {"world": gate["world"], "size_mb": gate["size_mb"]},
        "optimized_beats_seed_large_bucket": gate["ring_s"] < gate["seed_ring_s"],
        "optimized_beats_naive_large_bucket": gate["ring_s"] < gate["naive_s"],
        "large_bucket_speedup_vs_seed": gate["ring_speedup_vs_seed"],
        "large_bucket_speedup_vs_naive": gate["ring_speedup_vs_naive"],
        "ddp_view_mode_zero_copies": view_row["grad_copy_count"] == 0
        and view_row["zero_copy_hits"] > 0,
        "sampler_overhead_pct": sampler_row["overhead_pct"],
        # The measured number documents the <2% claim; the hard gate is
        # an order of magnitude looser so CI scheduler noise can't trip it.
        "sampler_overhead_sane": sampler_row["overhead_pct"] < 10.0,
        "health_overhead_pct": health_row["overhead_pct"],
        # The health-engine acceptance bound: accounting adds < 5% to
        # the median DDP iteration.
        "health_overhead_sane": health_row["overhead_pct"] < 5.0,
    }

    emit_json(
        "hotpath",
        {
            "smoke": args.smoke,
            "iters": iters,
            "allreduce": allreduce_rows,
            "chunk_sweep": chunk_rows,
            "ddp": ddp_rows,
            "optim_step": optim_rows,
            "sampler_overhead": sampler_row,
            "health_overhead": health_row,
            "checks": checks,
        },
        path=args.out,
    )

    failed = [
        name
        for name in (
            "optimized_beats_seed_large_bucket",
            "optimized_beats_naive_large_bucket",
            "ddp_view_mode_zero_copies",
            "sampler_overhead_sane",
            "health_overhead_sane",
        )
        if not checks[name]
    ]
    if failed:
        print(f"[bench_hotpath] FAILED checks: {failed}")
        return 1
    print(
        f"[bench_hotpath] OK — ring beats seed by "
        f"{checks['large_bucket_speedup_vs_seed']:.2f}x and naive by "
        f"{checks['large_bucket_speedup_vs_naive']:.2f}x on the "
        f"{gate['size_mb']} MB / world {gate['world']} case"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
