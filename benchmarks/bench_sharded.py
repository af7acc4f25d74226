"""Sharded data parallelism: the memory crossover against DDP.

The paper's §7 positions ZeRO as trading communication for memory:
optimizer state (stage 1), gradients (stage 2), and parameters
(stage 3) shrink by ~world_size while step time grows with the extra
gathers.  This bench makes the memory side concrete with *measured*
per-rank peak bytes (walked over unique ndarray storages, not
estimated) from the real in-process implementations of ddp/zero1/
zero2/zero3 at each world size, plus the analytic crossover table from
``repro.simulation.memory`` for paper-scale models where the in-process
harness cannot go.  The time side is the repo benchmark's
``tfm_zero3_w2`` against ``tfm_ddp_w2`` (``benchmarks/e2e``).

The acceptance gate (exit 1 on failure): measured ZeRO-3 and ZeRO-2
per-rank peak bytes must undercut DDP's at world 4.

Run ``python benchmarks/bench_sharded.py --smoke`` for the CI-sized
run; the tables land in ``benchmarks/results/sharded*.txt``.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro import nn
from repro.autograd import Tensor
from repro.comm import run_distributed
from repro.core import DistributedDataParallel
from repro.optim import Adam
from repro.sharded import (
    FullyShardedDataParallel,
    ShardedDataParallel,
    ShardedOptimizer,
    measure_ddp_bytes,
    storage_bytes,
)
from repro.utils import manual_seed

IN_FEATURES = 64
CLASSES = 10
BATCH = 16  # per rank
LR = 1e-3
MODES = ["ddp", "zero1", "zero2", "zero3"]

_rng = np.random.default_rng(0)
X = _rng.standard_normal((BATCH * 8, IN_FEATURES))
Y = _rng.integers(0, CLASSES, BATCH * 8)


def _model(hidden):
    manual_seed(0)
    return nn.Sequential(
        nn.Linear(IN_FEATURES, hidden), nn.ReLU(),
        nn.Linear(hidden, hidden), nn.ReLU(),
        nn.Linear(hidden, CLASSES),
    )


def _build(mode, model):
    """(forward, step, zero_grad, peak_bytes) for one replica."""
    if mode == "ddp":
        ddp = DistributedDataParallel(model)
        opt = Adam(ddp.parameters(), lr=LR)
        return ddp, opt.step, opt.zero_grad, lambda: measure_ddp_bytes(ddp, opt)
    if mode == "zero1":
        ddp = DistributedDataParallel(model)
        opt = ShardedOptimizer(list(ddp.parameters()), lambda ps: Adam(ps, lr=LR))

        def step():
            opt.set_grads_from_params()
            opt.step()

        def peak():
            # Full params + full grads + reducer buckets (the DDP part)
            # plus this rank's shard tensors and optimizer state.
            return (
                measure_ddp_bytes(ddp)
                + storage_bytes(s.data for s in opt.shards)
                + opt.state_bytes()
            )

        return ddp, step, opt.zero_grad, peak
    if mode == "zero2":
        sdp = ShardedDataParallel(model, lambda ps: Adam(ps, lr=LR))
        return sdp, sdp.step, sdp.zero_grad, (
            lambda: sdp.ddp_stats()["sharded"]["peak_bytes_per_rank"]
        )
    fsdp = FullyShardedDataParallel(model, lambda ps: Adam(ps, lr=LR))
    return fsdp, fsdp.step, fsdp.zero_grad, (
        lambda: fsdp.ddp_stats()["sharded"]["peak_bytes_per_rank"]
    )


def bench_mode(mode, world, hidden, iters):
    """One measured configuration: the worst per-rank peak bytes."""
    peaks = [0] * world
    loss_fn = nn.CrossEntropyLoss()

    def body(rank):
        model = _model(hidden)
        forward, step, zero_grad, peak = _build(mode, model)
        shard = slice(rank * BATCH, (rank + 1) * BATCH)
        for _ in range(iters):
            zero_grad()
            loss_fn(forward(Tensor(X[shard])), Y[shard]).backward()
            step()
        peaks[rank] = int(peak())
        return True

    run_distributed(world, body, backend="gloo", timeout=120)
    return {"mode": mode, "world": world, "peak_mb": max(peaks) / 1e6}


def analytic_crossover(worlds):
    """Paper-scale (ResNet-50 / Adam) per-GPU totals from the §7 memory
    model — the regime the threaded harness cannot reach directly."""
    from repro.simulation.memory import memory_breakdown
    from repro.simulation.models import resnet50_profile

    profile = resnet50_profile()
    rows = []
    for world in worlds:
        row = {"world": world}
        for mode in MODES:
            breakdown = memory_breakdown(profile, world, mode, optimizer="adam")
            row[f"{mode}_total_mb"] = round(breakdown.total / 1e6, 1)
        rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: smaller model, fewer iters")
    parser.add_argument("--iters", type=int, default=None,
                        help="training iterations per configuration")
    args = parser.parse_args(argv)

    from common import report

    if args.smoke:
        worlds, hidden, iters = [2, 4], 128, args.iters or 3
    else:
        worlds, hidden, iters = [2, 4], 256, args.iters or 6

    print(f"[bench_sharded] measured sweep: worlds={worlds} hidden={hidden}")
    rows = []
    for world in worlds:
        for mode in MODES:
            row = bench_mode(mode, world, hidden, iters)
            rows.append(row)
            print(f"  world={world} {mode:>5}: peak {row['peak_mb']:.3f} MB")
    report(
        "sharded",
        f"ZeRO stages vs DDP (hidden={hidden}, {iters} iters, per-rank peak)",
        ["world", "mode", "peak_mb"],
        [[r["world"], r["mode"], r["peak_mb"]] for r in rows],
    )

    analytic = analytic_crossover([2, 4, 8, 16, 64, 256])
    report(
        "sharded_analytic",
        "Analytic per-GPU totals, ResNet-50 + Adam (MB; paper §7 model)",
        ["world"] + [f"{mode}_total_mb" for mode in MODES],
        [[r["world"]] + [r[f"{mode}_total_mb"] for mode in MODES] for r in analytic],
    )

    by_key = {(r["world"], r["mode"]): r for r in rows}
    gate_world = max(worlds)
    ddp_mb = by_key[(gate_world, "ddp")]["peak_mb"]
    checks = {
        "zero3_peak_below_ddp_at_world4": by_key[(gate_world, "zero3")]["peak_mb"] < ddp_mb,
        "zero2_peak_below_ddp_at_world4": by_key[(gate_world, "zero2")]["peak_mb"] < ddp_mb,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"[bench_sharded] FAILED checks: {failed}")
        return 1
    print(
        f"[bench_sharded] OK — at world {gate_world} ZeRO-3 peaks at "
        f"{by_key[(gate_world, 'zero3')]['peak_mb'] / ddp_mb:.2f}x DDP memory"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
