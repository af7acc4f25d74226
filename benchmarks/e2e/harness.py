"""The phases of one workload run and the metrics computed from them.

Order inside one run: set-up (repeated ``SETUP_REPEATS`` times, the last
one carries on), timed window with tracing off, traced pass, isolated
calls into ``repro.comm``, parameter checksums; then, with the rank
threads gone, the single-thread local pass.  ``--trace 0`` stops after
the window, ``--trace 1`` shortens the window to a quarter.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import statistics
import time
from typing import List

import numpy as np

from repro import nn
from repro.autograd import Tensor
from repro.checkpoint import CheckpointEngine
from repro.comm import Store, TransportHub, algorithms, get_context, run_distributed
from repro.core import DistributedDataParallel
from repro.sharded import FullyShardedDataParallel, measure_ddp_bytes

from calibrate import Calibrator
from tracing import (
    NullTracer, Tracer, bind_tracer, self_times, trace_collectives, traced_waits,
    untrace_collectives, write_trace,
)
from workloads import WARMUP_ITERS, Workload

#: Set-up is run this many times and ``setup_s`` reports the median, as the
#: benchmark contract asks; results/*.md show the first set-up next to it.
SETUP_REPEATS = 3
#: Async checkpoint saves interleaved in the traced pass of the ZeRO-3 workload.
CHECKPOINT_SAVES = 5
#: Relative loss deviation allowed against single-process training.
LOSS_RTOL = 1e-8
#: Collective timeout; ``run_distributed`` joins for four times as long.
TIMEOUT_S = 40.0

SPAN_NAMES = ("data", "zero_grad", "fwd", "bwd", "step", "checkpoint",
              "comm.submit", "comm.wait")


class Replica:
    """What the training loop drives: local, DDP or ZeRO-3 alike."""

    def __init__(self, workload: Workload, module, group=None):
        self.wrapper = self.optimizer = None
        if group is None:
            self.forward = module
            self.optimizer = workload.make_optimizer(module.parameters())
        elif workload.wrapper == "zero3":
            self.wrapper = self.forward = FullyShardedDataParallel(
                module, workload.make_optimizer, process_group=group
            )
        else:
            self.wrapper = self.forward = DistributedDataParallel(
                module, process_group=group, **workload.ddp_kwargs
            )
            self.optimizer = workload.make_optimizer(self.wrapper.parameters())
        stepper = self.optimizer if self.optimizer is not None else self.wrapper
        self.step, self.zero_grad = stepper.step, stepper.zero_grad

    def peak_bytes(self) -> int:
        if self.optimizer is None:
            return self.wrapper.ddp_stats()["sharded"]["peak_bytes_per_rank"]
        return measure_ddp_bytes(self.wrapper, self.optimizer)


def train(replica: Replica, batches, iters: int, tracer, after_step=None):
    """The closed training loop; returns per-iteration end stamps and losses."""
    loss_fn = nn.CrossEntropyLoss()
    span = tracer.span
    ends, losses = [0.0] * iters, [0.0] * iters
    for i in range(iters):
        tracer.iteration = i
        with span("data"):
            inputs, labels = next(batches)
        with span("zero_grad"):
            replica.zero_grad()
        with span("fwd"):
            loss = loss_fn(replica.forward(inputs), labels)
        with span("bwd"):
            loss.backward()
        with span("step"):
            replica.step()
        if after_step is not None:
            after_step(i)
        ends[i] = time.perf_counter()
        losses[i] = loss.item()
    return ends, losses


def reference_losses(workload: Workload, dataset, seed: int) -> List[float]:
    """Single-process training on the concatenated ``world × batch`` input."""
    streams = [workload.batches(dataset, seed, r) for r in range(workload.world)]

    def concatenated():
        while True:
            inputs, labels = zip(*(next(stream) for stream in streams))
            if isinstance(inputs[0], Tensor):  # the loader wraps float inputs
                yield Tensor(np.concatenate([x.data for x in inputs])), np.concatenate(labels)
            else:
                yield np.concatenate(inputs), np.concatenate(labels)

    replica = Replica(workload, workload.model(seed))
    return train(replica, concatenated(), WARMUP_ITERS, NullTracer())[1]


def checksum(replica: Replica) -> str:
    """Digest of every parameter's bytes (ZeRO-3 gathers them first)."""
    digest = hashlib.blake2b(digest_size=16)
    sharded = replica.optimizer is None
    with replica.wrapper.summon_full_params() if sharded else contextlib.nullcontext():
        for param in replica.wrapper.module.parameters():
            digest.update(np.ascontiguousarray(param.data))
    return digest.hexdigest()


def iteration_times(start_stamps, end_stamps) -> np.ndarray:
    """``max_r end[r][i] − max_r end[r][i−1]``, the first from the latest start."""
    boundaries = np.concatenate(
        [[max(start_stamps)], np.max(np.asarray(end_stamps), axis=0)]
    )
    return np.diff(boundaries)


def median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def isolated_calls(group, bare_hub, bare_store, largest_bytes: int, sharded: bool):
    """Phase 4: calls into ``repro.comm`` with no compute running.

    The bare algorithm is the group's own (halving-doubling under gloo),
    run over a hub no ProcessGroup uses, so each pg/alg pair differs by
    what ``ProcessGroup`` adds: signature check, submit, worker hand-off.
    """
    rank, ranks = group.group_rank, group.ranks
    allreduce = algorithms.ALLREDUCE_ALGORITHMS[group.algorithm]
    counter = iter(range(1 << 30))
    out = {}

    def pair(nbytes, reps):
        buffer = np.zeros(max(1, nbytes // 8))
        group.barrier()
        pg = median_time(lambda: group.allreduce(buffer), reps)
        group.barrier()
        alg = median_time(
            lambda: allreduce(bare_hub, ranks, rank, buffer, "sum",
                              ("bare", next(counter)), TIMEOUT_S, group.chunk_bytes),
            reps,
        )
        return pg, alg

    pg, alg = pair(largest_bytes, 7)
    out["comm.pg_allreduce_ms"], out["comm.alg_allreduce_ms"] = pg * 1e3, alg * 1e3
    pg, alg = pair(1024, 300)
    out["comm.pg_overhead_us"] = (pg - alg) * 1e6
    if sharded:
        flat = np.zeros(max(1, largest_bytes // 8))
        group.barrier()
        out["comm.pg_reduce_scatter_ms"] = 1e3 * median_time(
            lambda: group.reduce_scatter_flat(flat), 7)
        group.barrier()
        out["comm.pg_all_gather_ms"] = 1e3 * median_time(
            lambda: group.all_gather_flat(flat), 7)

    # Ping-pong between ranks 0 and 1; any other rank waits at the barrier.
    ping = np.zeros(1)
    group.barrier()
    if rank < 2:
        peer = ranks[1 - rank]
        me = ranks[rank]

        def transport_rtt():
            n = next(counter)
            if rank == 0:
                bare_hub.send(me, peer, ("ping", n), ping)
                bare_hub.recv(me, peer, ("pong", n), TIMEOUT_S)
            else:
                bare_hub.recv(me, peer, ("ping", n), TIMEOUT_S)
                bare_hub.send(me, peer, ("pong", n), ping)

        def store_rtt():
            n = next(counter)
            if rank == 0:
                bare_store.set(f"ping/{n}", n)
                bare_store.get(f"pong/{n}", TIMEOUT_S)
            else:
                bare_store.get(f"ping/{n}", TIMEOUT_S)
                bare_store.set(f"pong/{n}", n)

        out["comm.transport_rtt_us"] = 1e6 * median_time(transport_rtt, 500)
        out["comm.store_rtt_us"] = 1e6 * median_time(store_rtt, 500)
    group.barrier()
    return out


def traced_pass(workload: Workload, replica: Replica, group, batches, iters: int,
                ckpt_dir: str) -> dict:
    """Phase 3 of one rank: the training loop under benchmark-side spans,
    with counters read at the same boundaries."""
    hub, me = group.hub, group.global_rank
    tracer = Tracer(group.group_rank)
    stats0 = replica.wrapper.ddp_stats()
    engine, saves, after_step = None, [], None
    if workload.wrapper == "zero3":
        engine = CheckpointEngine(ckpt_dir, group.group_rank, group.size, async_write=True)
        every = max(1, iters // CHECKPOINT_SAVES)

        def after_step(i):
            if i % every or len(saves) >= CHECKPOINT_SAVES:
                return
            with tracer.span("checkpoint"):
                t0 = time.perf_counter()
                engine.save_sharded(replica.wrapper, iteration=i)
                t1 = time.perf_counter()
                engine.wait(TIMEOUT_S)
                saves.append((t1 - t0, time.perf_counter() - t0))

    def counters():
        return hub.bytes_sent[me], hub.messages_sent[me], group.bytes_communicated

    group.barrier()
    trace_collectives(group, tracer)
    bind_tracer(tracer)
    counts0 = counters()
    cpu0, thread0 = time.process_time(), time.thread_time()
    start = time.perf_counter()
    try:
        ends, _ = train(replica, batches, iters, tracer, after_step)
        thread_cpu = time.thread_time() - thread0
    finally:
        bind_tracer(None)
        untrace_collectives(group)
        if engine is not None:
            engine.close()
    counts1 = counters()
    group.barrier()
    return {
        "traced": (start, ends), "traced_cpu": time.process_time() - cpu0,
        "thread_cpu": thread_cpu, "tracer": tracer, "saves": saves,
        "counts": [b - a for a, b in zip(counts0, counts1)],
        "stats": (stats0, replica.wrapper.ddp_stats()),
    }


def run_workload(workload: Workload, seed: int, iters: int, want_e2e: bool,
                 want_layers: bool, out_dir: str, launch_s: float) -> dict:
    """Run every phase; returns metrics, notes, problems, attempted and failed.

    Every duration is reported multiplied by the speed factor of the
    stretch it was measured in (see calibrate.py); counts and ratios of
    durations are as measured, and ``notes["raw"]`` keeps the unscaled values.
    """
    quarter = max(2, iters // 4)
    window_iters = iters if want_e2e else quarter
    world = workload.world
    bare_hub, bare_store = TransportHub(world, TIMEOUT_S), Store(TIMEOUT_S)
    ckpt_dir = os.path.join(out_dir, f"ckpt-{os.getpid()}")

    def body(rank: int, dataset, last: bool):
        group = get_context().default_group
        replica = Replica(workload, workload.model(seed), group)
        batches = workload.batches(dataset, seed, rank)
        losses = train(replica, batches, WARMUP_ITERS, NullTracer())[1]
        group.barrier()
        result = {"losses": losses, "ready": time.perf_counter()}
        if not last:
            return result

        # Phase 2: timed window, tracing off.
        group.barrier()
        cpu0, start = time.process_time(), time.perf_counter()
        ends, window_losses = train(replica, batches, window_iters, NullTracer())
        group.barrier()
        result.update(
            window=(start, ends), window_cpu=time.process_time() - cpu0,
            losses=losses + window_losses, peak_bytes=replica.peak_bytes(),
        )
        if want_layers:
            result.update(traced_pass(workload, replica, group, batches, quarter, ckpt_dir))
            # Phase 4: isolated calls at this workload's largest bucket.
            result["isolated"] = isolated_calls(
                group, bare_hub, bare_store,
                max(result["stats"][1]["bucket_sizes_bytes"]), workload.wrapper == "zero3",
            )
        result["checksum"] = checksum(replica)
        return result

    raw_setups, setups = [], []  # seconds as measured / at nominal speed
    with Calibrator() as calibrator:
        try:
            with traced_waits() if want_layers else contextlib.nullcontext():
                for repeat in range(SETUP_REPEATS):
                    t0 = time.perf_counter()
                    dataset = workload.dataset(seed)
                    ref = (reference_losses(workload, dataset, seed)
                           if workload.reference else None)
                    ranks = run_distributed(
                        world, lambda rank: body(rank, dataset, repeat == SETUP_REPEATS - 1),
                        backend="gloo", timeout=TIMEOUT_S,
                    )
                    ready = max(r["ready"] for r in ranks)
                    raw_setups.append(ready - t0)
                    setups.append((ready - t0) * calibrator.factor(t0, ready))
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
    starts, ends = zip(*(r["window"] for r in ranks))
    speed = calibrator.factor(max(starts), max(e[-1] for e in ends))

    # ---- correctness verdict --------------------------------------------
    problems = []
    if len({r["checksum"] for r in ranks}) != 1:
        problems.append("parameters differ between ranks after training")
    losses = np.mean([r["losses"] for r in ranks], axis=0)
    if not np.all(np.isfinite(losses)):
        problems.append("non-finite loss")
    warm, final = losses[:WARMUP_ITERS], float(losses[-WARMUP_ITERS:].mean())
    rel_err = 0.0
    if ref is not None:
        rel_err = float(np.max(np.abs(warm - ref) / np.abs(ref)))
        if not rel_err <= LOSS_RTOL:
            problems.append(f"first losses deviate from single-process training by {rel_err:.3e}")
    elif not final < float(warm.mean()):
        problems.append(f"loss did not fall: {warm.mean():.4f} -> {final:.4f}")

    # ---- end-to-end metrics (timed window) ------------------------------
    window_times = iteration_times(starts, ends) * speed
    samples_per_s = world * workload.batch * window_iters / float(window_times.sum())
    metrics = {}
    if want_e2e:
        metrics = {
            "samples_per_s": samples_per_s,
            "iter_ms_p50": float(np.median(window_times)) * 1e3,
            "cpu_ms_per_iter": ranks[0]["window_cpu"] * speed / window_iters * 1e3,
            "peak_mb_per_rank": max(r["peak_bytes"] for r in ranks) / 1e6,
            "setup_s": launch_s + statistics.median(setups),
        }
    notes = {
        "loss_warmup_mean": float(warm.mean()), "loss_final_mean": final,
        "timed_iters": window_iters, "speed_factor": speed,
        # The same quantities as the clocks gave them, before any scaling.
        "raw": {
            "samples_per_s": samples_per_s * speed,
            "iter_ms_p50": float(np.median(window_times)) * 1e3 / speed,
            "cpu_ms_per_iter": ranks[0]["window_cpu"] / window_iters * 1e3,
            "setup_s": launch_s + statistics.median(raw_setups),
            "setup_s, first of three": launch_s + raw_setups[0],
        },
    }

    if want_layers:
        # Phase 5, with the rank threads gone: one thread, rank 0's batches.
        replica = Replica(workload, workload.model(seed))
        tracer = Tracer(0)
        batches = workload.batches(dataset, seed, 0)
        train(replica, batches, WARMUP_ITERS, NullTracer())
        start = time.perf_counter()
        local_ends = train(replica, batches, quarter, tracer)[0]
        metrics.update(layer_metrics(
            workload, ranks, calibrator, speed, window_times, samples_per_s,
            np.diff([start] + local_ends) * speed, self_times(tracer.spans), notes,
        ))
        metrics["run.speed_factor"] = speed
        metrics["run.loss_rel_err"] = rel_err
        write_trace(os.path.join(out_dir, f"{workload.name}.trace.json"),
                    workload.name, [r["tracer"] for r in ranks])

    return {
        "metrics": metrics, "notes": notes, "problems": problems,
        "attempted": window_iters, "failed": window_iters if problems else 0,
    }


def tail(times_s: np.ndarray):
    """Highest percentile with at least ten samples beyond it, and its value in ms."""
    percentile = max(50.0, 100.0 * (1.0 - 10.0 / len(times_s)))
    return percentile, float(np.percentile(times_s, percentile)) * 1e3


def layer_metrics(workload, ranks, calibrator, speed, window_times, samples_per_s,
                  local_times, local_self, notes) -> dict:
    """Per-layer metrics from the traced pass, the local pass and phase 4;
    ``window_times`` and ``local_times`` arrive scaled by ``speed``.

    The traced pass runs in the state the window ran in (every rank
    training), so it is scaled by the kernel's median over its own
    stretch; the single-thread and idle phases take the window's factor.
    """
    world = workload.world
    per_rank = [self_times(r["tracer"].spans) for r in ranks]
    starts, ends = zip(*(r["traced"] for r in ranks))
    raw_traced = iteration_times(starts, ends)
    traced_speed = calibrator.factor(max(starts), max(e[-1] for e in ends))
    # Shares below divide raw CPU and wait seconds by the raw wall of the traced pass.
    traced_times, traced_wall = raw_traced * traced_speed, float(raw_traced.sum())
    iters = len(raw_traced)

    def median_ms(name, sources=per_rank, factor=traced_speed):
        """Median over iterations of the rank-mean self time of ``name``."""
        return 1e3 * factor * statistics.median(
            statistics.fmean(s[i].get(name, 0.0) for s in sources) for i in range(iters)
        )

    def local_ms(name):
        return median_ms(name, [local_self], speed)

    traced_p50, window_p50 = float(np.median(traced_times)), float(np.median(window_times))
    local_iter_s = float(np.median(local_times))
    # How much of each rank's own iteration its spans account for.
    cover = []
    for r, spans in zip(ranks, per_rank):
        own = np.diff([r["traced"][0]] + r["traced"][1])
        cover.append(statistics.median(sum(spans[i].values()) / own[i] for i in range(iters)))
    wait_total = [sum(s[i].get("comm.wait", 0.0) for i in range(iters)) for s in per_rank]
    rank_cpu = [r["thread_cpu"] for r in ranks]
    # Exact per-rank counts, of the busiest rank where ranks differ (tree broadcast).
    wire_bytes, messages, payload_bytes = np.max([r["counts"] for r in ranks], axis=0) / iters
    stats0, stats1 = ranks[0]["stats"]
    percentile, tail_ms = tail(window_times)
    q1, _, q3 = statistics.quantiles(window_times, n=4)

    where = {name: median_ms(name) for name in SPAN_NAMES}
    notes["where_ms"] = where
    notes["traced_iter_ms_p50"] = traced_p50 * 1e3

    m = {
        "data.wait_ms": where["data"],
        "autograd.local_fwd_ms": local_ms("fwd"),
        "autograd.local_bwd_ms": local_ms("bwd"),
        "optim.local_step_ms": local_ms("step"),
        "optim.step_ms": where["step"],
        "optim.zero_grad_ms": where["zero_grad"],
        "core.fwd_overhead_ms": where["fwd"] - local_ms("fwd"),
        "core.bwd_overhead_ms": where["bwd"] - local_ms("bwd"),
        "comm.exposed_wait_ms": where["comm.wait"],
        "comm.submit_ms": where["comm.submit"],
        "comm.calls_per_iter": max(r["tracer"].calls for r in ranks) / iters,
        "comm.wire_mb_per_iter": wire_bytes / 1e6,
        "comm.msgs_per_iter": messages,
        "comm.payload_mb_per_iter": payload_bytes / 1e6,
        "run.local_iter_ms": local_iter_s * 1e3,
        "run.scaling_eff": (samples_per_s / world) / (workload.batch / local_iter_s),
        "run.iter_ms_tail": tail_ms,
        "run.tail_percentile": percentile,
        "run.timed_iters": len(window_times),
        "run.iter_ms_iqr_pct": 100.0 * (q3 - q1) / window_p50,
        "run.rank_cpu_share": statistics.fmean(rank_cpu) / traced_wall,
        "run.offthread_cpu_ms":
            1e3 * traced_speed * (ranks[0]["traced_cpu"] - sum(rank_cpu)) / iters,
        "run.unaccounted_share":
            1.0 - statistics.fmean(c + w for c, w in zip(rank_cpu, wait_total)) / traced_wall,
        "run.trace_overhead_pct": 100.0 * (traced_p50 / window_p50 - 1.0),
        "run.span_cover_pct": 100.0 * statistics.fmean(cover),
    }
    # Zero stands for "this layer does not run on this workload".
    m.update(dict.fromkeys((
        "core.num_buckets", "core.grad_copy_count", "core.overlap_ratio",
        "sharded.gathers_per_iter", "sharded.ag_mb_per_iter", "sharded.rs_mb_per_iter",
        "checkpoint.stall_ms", "checkpoint.commit_ms",
        "comm.pg_reduce_scatter_ms", "comm.pg_all_gather_ms",
    ), 0))
    if workload.wrapper == "zero3":
        sharded0, sharded1 = stats0["sharded"], stats1["sharded"]
        for name, key, scale in (("gathers_per_iter", "gather_count", 1),
                                 ("ag_mb_per_iter", "all_gather_bytes", 1e6),
                                 ("rs_mb_per_iter", "reduce_scatter_bytes", 1e6)):
            m[f"sharded.{name}"] = (sharded1[key] - sharded0[key]) / iters / scale
        stalls, commits = zip(*(s for r in ranks for s in r["saves"]))
        m["checkpoint.stall_ms"] = 1e3 * traced_speed * statistics.median(stalls)
        m["checkpoint.commit_ms"] = 1e3 * traced_speed * statistics.median(commits)
    else:
        m["core.num_buckets"] = stats1["num_buckets"]
        m["core.grad_copy_count"] = (
            stats1["grad_copy_count"] - stats0["grad_copy_count"]) / iters
        m["core.overlap_ratio"] = stats1["comm_compute_overlap_ratio"]
    m.update({name: value * speed for name, value in ranks[0]["isolated"].items()})
    return m
