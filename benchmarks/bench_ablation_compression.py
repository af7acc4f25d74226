#!/usr/bin/env python
"""Ablation: gradient compression, measured (paper §6.2.3 future work).

Sweeps every compression hook family × {plain, error-feedback} through a
real 2-rank threaded DDP training run and *measures* — wire bytes per
iteration from the transport hub's byte accounting, median iteration
wall time of the slower rank, and convergence (first/final full-batch
loss) — instead of asserting projections.  The analytic wire-volume
projection for ResNet50/BERT at 32 GPUs (``repro.experiments.ablations``)
rides along for context, and every measured wire ratio is checked
against its hook's own ``wire_ratio``.

Writes ``benchmarks/results/ablation_compression_measured.txt`` (and the
projection as ``ablation_compression.txt``).  Run
``python benchmarks/bench_ablation_compression.py --smoke`` for the
CI-sized version; exits non-zero if a compressed hook fails to shrink
the wire or sends other than its ``wire_ratio``, or an error-feedback
run fails to converge.

Also collectable under pytest-benchmark
(``pytest benchmarks/bench_ablation_compression.py --benchmark-only``).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import report  # noqa: E402

from repro import nn  # noqa: E402
from repro.autograd import Tensor  # noqa: E402
from repro.comm import run_distributed  # noqa: E402
from repro.core import DistributedDataParallel, comm_hooks  # noqa: E402
from repro.experiments import ablations  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.utils import manual_seed  # noqa: E402

TOPK_DENSITY = 0.05
POWERSGD_RANK = 2

#: hook family × variant → factory.  ``mode`` "ef" carries the rank's
#: compression error into its next contribution; "plain" drops it.
#: onebit has error feedback baked into the algorithm (no plain form),
#: and the dense hooks (native reducer path, allreduce_hook) are exact,
#: so error feedback is meaningless for them.
HOOK_MATRIX = [
    ("native", "plain", None),
    ("allreduce", "plain", lambda: comm_hooks.allreduce_hook),
    ("fp16", "plain", lambda: comm_hooks.Fp16Hook(use_error_feedback=False)),
    ("fp16", "ef", lambda: comm_hooks.Fp16Hook(use_error_feedback=True)),
    ("quantize8", "plain", lambda: comm_hooks.Quantize8Hook(use_error_feedback=False)),
    ("quantize8", "ef", lambda: comm_hooks.Quantize8Hook(use_error_feedback=True)),
    ("onebit", "ef", lambda: comm_hooks.OneBitSGDHook()),
    ("topk", "plain",
     lambda: comm_hooks.TopKHook(density=TOPK_DENSITY, use_error_feedback=False)),
    ("topk", "ef",
     lambda: comm_hooks.TopKHook(density=TOPK_DENSITY, use_error_feedback=True)),
    ("powersgd", "plain",
     lambda: comm_hooks.PowerSGDHook(rank=POWERSGD_RANK, use_error_feedback=False)),
    ("powersgd", "ef",
     lambda: comm_hooks.PowerSGDHook(rank=POWERSGD_RANK, use_error_feedback=True)),
]


def measure_hook(hook_factory, hidden, iters, X, Y):
    """One 2-rank training run; returns measured metrics.

    Wire bytes come from the hub's per-rank send accounting —
    ``bytes_sent[rank]`` is only written by that rank's own sends, so a
    per-rank delta over the timed loop is race-free — divided by the
    iteration count for a per-iteration figure.  ``wire_ratio`` is what
    the hook says it sends per gradient byte, over the run's buckets.
    """

    def body(rank):
        manual_seed(0)
        model = nn.Sequential(
            nn.Linear(X.shape[1], hidden), nn.ReLU(), nn.Linear(hidden, 8)
        )
        hook = hook_factory() if hook_factory else None
        ddp = DistributedDataParallel(model, comm_hook=hook)
        opt = SGD(ddp.parameters(), lr=0.05)
        loss_fn = nn.CrossEntropyLoss()
        hub = ddp.process_group.hub
        shard = slice(rank * 4, (rank + 1) * 4)

        # warmup iteration: bucket layout allocation, hook state init
        opt.zero_grad()
        loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
        opt.step()

        bytes_before = hub.bytes_sent[rank]
        times, losses = [], []
        for _ in range(iters):
            t0 = time.perf_counter()
            opt.zero_grad()
            loss = loss_fn(ddp(Tensor(X[shard])), Y[shard])
            loss.backward()
            opt.step()
            times.append(time.perf_counter() - t0)
            losses.append(loss.item())
        wire = (hub.bytes_sent[rank] - bytes_before) / iters
        grads = {n: p.grad.data.copy() for n, p in model.named_parameters()}
        flats = [bucket.flat for bucket in ddp.reducer.buckets]
        return {
            "wire_bytes_per_iter": wire,
            "wire_ratio": sum(
                comm_hooks.hook_wire_ratio(hook, f.dtype, f.size) * f.nbytes for f in flats
            ) / sum(f.nbytes for f in flats),
            "iter_s": statistics.median(times),
            "first_loss": losses[0],
            "final_loss": losses[-1],
            "grads": grads,
        }

    per_rank = run_distributed(2, body, backend="gloo", timeout=120.0)
    # Compression must never desynchronize the replicas: both ranks see
    # the identical decompressed gradient.
    for name in per_rank[0]["grads"]:
        np.testing.assert_allclose(
            per_rank[0]["grads"][name], per_rank[1]["grads"][name], atol=1e-9
        )
    # Each rank's loss is its own shard's; the shards are equal in size,
    # so the mean over ranks is the full-batch loss.  Time is the
    # slower rank's: a synchronous iteration waits for it.
    return {
        "wire_bytes_per_iter": max(r["wire_bytes_per_iter"] for r in per_rank),
        "wire_ratio": per_rank[0]["wire_ratio"],
        "iter_s": max(r["iter_s"] for r in per_rank),
        "first_loss": statistics.fmean(r["first_loss"] for r in per_rank),
        "final_loss": statistics.fmean(r["final_loss"] for r in per_rank),
    }


def run_sweep(hidden, iters):
    """The full hook × error-feedback matrix, measured."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 16))
    Y = rng.integers(0, 8, 8)
    rows = []
    for name, mode, factory in HOOK_MATRIX:
        measured = measure_hook(factory, hidden, iters, X, Y)
        rows.append({"hook": name, "mode": mode, **measured})
        print(
            f"[bench_compression] {name}/{mode}: "
            f"{measured['wire_bytes_per_iter'] / 1024:.1f} KiB/iter, "
            f"{measured['iter_s'] * 1e3:.2f} ms/iter, "
            f"loss {measured['first_loss']:.3f} -> {measured['final_loss']:.3f}"
        )
    return rows


def gate_checks(rows):
    """The exit gates: compression must compress, EF must converge."""
    by_key = {(r["hook"], r["mode"]): r for r in rows}
    dense = by_key[("native", "plain")]["wire_bytes_per_iter"]
    fp16 = by_key[("fp16", "ef")]["wire_bytes_per_iter"]
    checks = {
        # the hook overlay itself must not inflate the wire
        "allreduce_hook_matches_native_wire":
            by_key[("allreduce", "plain")]["wire_bytes_per_iter"] <= dense * 1.01,
        "fp16_shrinks_wire": fp16 < dense,
        "onebit_beats_fp16": by_key[("onebit", "ef")]["wire_bytes_per_iter"] < fp16,
        "topk_beats_fp16": by_key[("topk", "ef")]["wire_bytes_per_iter"] < fp16,
        "powersgd_beats_fp16":
            by_key[("powersgd", "ef")]["wire_bytes_per_iter"] < fp16,
        # every hook sends what its wire_ratio says (at world 2 each
        # rank sends one copy of each payload, so the match is exact
        # up to rounding)
        "wire_ratios_match_hooks": all(
            abs(r["wire_bytes_per_iter"] / dense - r["wire_ratio"]) < 0.01 for r in rows
        ),
        # every error-feedback (or exact) run converges
        "all_ef_runs_converge": all(
            r["final_loss"] < r["first_loss"]
            for r in rows
            if r["mode"] == "ef" or r["hook"] in ("native", "allreduce")
        ),
        # error feedback never costs wire volume vs its plain sibling
        "ef_wire_matches_plain": all(
            abs(by_key[(h, "ef")]["wire_bytes_per_iter"]
                - by_key[(h, "plain")]["wire_bytes_per_iter"])
            <= by_key[(h, "plain")]["wire_bytes_per_iter"] * 0.05
            for h in ("fp16", "quantize8", "topk", "powersgd")
        ),
    }
    return checks


def projection_rows():
    """Analytic ResNet50/BERT @ 32 GPUs projection (context table)."""
    return ablations.compression_projection()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: smaller model, fewer iterations")
    parser.add_argument("--iters", type=int, default=None,
                        help="timed iterations per hook config")
    args = parser.parse_args(argv)

    hidden = 32 if args.smoke else 128
    iters = args.iters or (20 if args.smoke else 60)

    print(f"[bench_compression] measured sweep: hidden={hidden} iters={iters}")
    rows = run_sweep(hidden, iters)
    report(
        "ablation_compression_measured",
        "Ablation: measured wire bytes, iteration time, convergence per hook "
        "(2 ranks, threaded backend)",
        ["hook", "mode", "KiB_per_iter", "iter_ms", "first_loss", "final_loss"],
        [
            [r["hook"], r["mode"], r["wire_bytes_per_iter"] / 1024,
             r["iter_s"] * 1e3, r["first_loss"], r["final_loss"]]
            for r in rows
        ],
    )

    projections = projection_rows()
    report(
        "ablation_compression",
        "Ablation: communication volume & projected AllReduce time per hook (32 GPUs)",
        ["model", "hook", "wire_MB", "allreduce_s", "volume_ratio"],
        projections,
    )

    checks = gate_checks(rows)
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"[bench_compression] FAILED checks: {failed}")
        return 1
    dense = next(r for r in rows if r["hook"] == "native")
    best = min(rows, key=lambda r: r["wire_bytes_per_iter"])
    print(
        f"[bench_compression] OK — best wire ratio "
        f"{best['wire_bytes_per_iter'] / dense['wire_bytes_per_iter']:.3f} "
        f"({best['hook']}/{best['mode']}); every error-feedback run converged"
    )
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry points (pytest benchmarks/ --benchmark-only)
# ----------------------------------------------------------------------
def bench_compression_measured_sweep(benchmark):
    rows = benchmark.pedantic(lambda: run_sweep(32, 20), rounds=1, iterations=1)
    checks = gate_checks(rows)
    assert all(checks.values()), checks


def bench_compression_wire_volume_projection(benchmark):
    rows = benchmark(projection_rows)
    by_key = {(r[0], r[1]): r[3] for r in rows}
    assert by_key[("bert", "onebit_int8")] < by_key[("bert", "fp32_allreduce")] / 2


if __name__ == "__main__":
    sys.exit(main())
