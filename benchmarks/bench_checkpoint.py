"""Checkpoint engine: async-save stall vs synchronous save.

The engine's contract is that the training thread pays only for the
in-memory snapshot; serialization, CRC trailer, manifest commit, and
replication ride a background writer.  This bench measures, per world
size:

* ``sync_save_ms`` — wall time of a full synchronous engine save
  (``async_write=False``): snapshot + serialize + write + commit.
* ``async_stall_ms`` — training-thread blocked time of the same save
  with ``async_write=True`` (snapshot only).
* ``stall_pct`` — their ratio.

The acceptance gate (exit 1 on failure): the async stall must stay
under 20% of the synchronous save.

Run ``python benchmarks/bench_checkpoint.py --smoke`` for the CI-sized
run; the table lands in ``benchmarks/results/checkpoint.txt``.
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro import nn
from repro.autograd import Tensor
from repro.checkpoint import CheckpointEngine
from repro.comm import run_distributed
from repro.optim import Adam
from repro.utils import manual_seed

IN_FEATURES = 64
CLASSES = 10
BATCH = 16
LR = 1e-3

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


def bench_world(world, hidden, saves, replication):
    """Median sync vs async save-stall per rank at one world size."""
    loss_fn = nn.CrossEntropyLoss()
    results = {}

    def body(rank):
        from repro.comm.distributed import get_context

        model = _model(hidden)
        opt = Adam(model.parameters(), lr=LR)
        shard = slice(rank * BATCH, (rank + 1) * BATCH)
        loss_fn(model(Tensor(X[shard])), Y[shard]).backward()
        opt.step()
        hub = get_context().default_group.hub if replication > 1 else None

        sync_ms, stall_ms = [], []
        for mode in ("sync", "async"):
            root = tempfile.mkdtemp(prefix=f"ckpt-bench-{mode}-")
            engine = CheckpointEngine(
                root, rank=rank, world=world, hub=hub,
                replication_factor=replication,
                async_write=(mode == "async"),
            )
            times = sync_ms if mode == "sync" else stall_ms
            for i in range(saves):
                t0 = time.perf_counter()
                engine.save_full(model, opt, iteration=i + 1)
                times.append((time.perf_counter() - t0) * 1000.0)
            engine.wait(timeout=30.0)
            engine.close()
            shutil.rmtree(root, ignore_errors=True)
        return float(np.median(sync_ms)), float(np.median(stall_ms))

    medians = run_distributed(world, body, backend="gloo", timeout=120)
    results["sync_save_ms"] = max(m[0] for m in medians)
    results["async_stall_ms"] = max(m[1] for m in medians)
    results["stall_pct"] = (
        100.0 * results["async_stall_ms"] / results["sync_save_ms"]
        if results["sync_save_ms"] > 0 else 0.0
    )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: smaller model, fewer saves")
    parser.add_argument("--saves", type=int, default=None,
                        help="save operations per configuration")
    args = parser.parse_args(argv)

    from common import report

    if args.smoke:
        worlds, hidden, saves = [2], 256, args.saves or 5
    else:
        worlds, hidden, saves = [2, 4], 512, args.saves or 9

    print(f"[bench_checkpoint] worlds={worlds} hidden={hidden} saves={saves}")
    rows = []
    for world in worlds:
        for replication in (1, 2):
            row = {"mode": f"rf{replication}", "world": world,
                   **bench_world(world, hidden, saves, replication)}
            rows.append(row)
            print(
                f"  world={world} rf={replication}: sync "
                f"{row['sync_save_ms']:.2f} ms, async stall "
                f"{row['async_stall_ms']:.2f} ms "
                f"({row['stall_pct']:.1f}%)"
            )
    report(
        "checkpoint",
        f"Async checkpoint stall vs synchronous save (hidden={hidden})",
        ["world", "mode", "sync_save_ms", "async_stall_ms", "stall_pct"],
        [[r["world"], r["mode"], r["sync_save_ms"], r["async_stall_ms"],
          r["stall_pct"]] for r in rows],
    )

    if not all(r["stall_pct"] < 20.0 for r in rows):
        print("[bench_checkpoint] FAILED: an async stall is 20 % or more of the sync save")
        return 1
    worst = max(rows, key=lambda r: r["stall_pct"])
    print(
        f"[bench_checkpoint] OK — worst async stall is "
        f"{worst['stall_pct']:.1f}% of the synchronous save "
        f"(world={worst['world']}, {worst['mode']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
