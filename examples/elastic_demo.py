"""Elastic fault-tolerant training demo: chaos in, convergence out.

The acceptance scenario for ``repro.resilience`` end to end:

1. A seeded :class:`FaultPlan` crashes rank 2 mid-run (as it issues a
   bucket AllReduce of iteration 3).
2. The heartbeat monitor detects the dead rank in fractions of a
   second; :func:`run_elastic` aborts the generation, re-rendezvouses
   the survivors into a smaller world, restores model + optimizer state
   from the last checkpoint, and finishes the iteration budget.
3. The final loss matches a no-fault run at the shrunken world size.
4. A second scenario grows back: rank 2 is killed, *rejoins two
   generations later* via :func:`rejoin_rank`, and the supervisor
   re-admits it at the boundary — with the replicated
   :class:`~repro.checkpoint.CheckpointEngine` carrying state.  The
   loss trajectory is **bitwise identical** to a composed baseline
   running the same world schedule without faults.

Each claim is asserted; the script exits non-zero if any fails, and on
failure writes the collective flight-recorder dump (when REPRO_DEBUG is
enabled) next to the checkpoint for postmortem.  The working directory
(``$TMPDIR/elastic_demo_*``) is removed once every check passes and kept
after an exception or a failed check.

Run:
    python examples/elastic_demo.py
"""

import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro import nn
from repro.autograd import Tensor
from repro.optim import SGD
from repro.resilience import (
    ElasticConfig,
    FaultPlan,
    crash_rank,
    rejoin_rank,
    run_elastic,
)
from repro.utils import manual_seed

WORLD = 3
ITERATIONS = 10
BUCKETS = 4  # one per parameter tensor at the tiny bucket cap below
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

rng = np.random.default_rng(0)
X = rng.standard_normal((24, 6))
Y = rng.integers(0, 4, 24)
loss_fn = nn.CrossEntropyLoss()


def setup(ctx):
    manual_seed(7)
    model = nn.Sequential(nn.Linear(6, 16), nn.ReLU(), nn.Linear(16, 4))
    return model, SGD(model.parameters(), lr=0.05)


def step(ctx, model, opt, iteration):
    shard = slice(ctx.rank * 4, (ctx.rank + 1) * 4)
    opt.zero_grad()
    loss = loss_fn(model(Tensor(X[shard])), Y[shard])
    loss.backward()
    opt.step()
    # Keep each iteration longer than the supervisor's poll tick so a
    # generation cannot end before a pending rejoin is noticed (loss
    # numerics untouched — the baselines run this same step).
    time.sleep(0.01)
    return float(loss.data)


def dump_flight_recorder(directory):
    from repro.debug import flight_recorder

    path = os.path.join(directory, "flight_recorder.json")
    flight_recorder.dump_json(path)
    print(f"flight recorder dump written to {path}", file=sys.stderr)


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="elastic_demo_")
    plan = FaultPlan(
        [
            crash_rank(2, scope="collective", op="allreduce",
                       after=3 * BUCKETS + 1, times=1),  # dies iteration 3
        ],
        seed=SEED,
    )
    config = ElasticConfig(
        policy="shrink",
        checkpoint_dir=workdir,
        checkpoint_every=1,
        timeout=10.0,
        ddp_kwargs={"bucket_cap_mb": 0.0001},
    )

    print(f"=== elastic run: world={WORLD}, {ITERATIONS} iterations, "
          f"rank 2 crash (seed {SEED}) ===")
    try:
        result = run_elastic(WORLD, setup, step, ITERATIONS,
                             config=config, fault_plan=plan)
    except Exception:
        dump_flight_recorder(workdir)
        raise
    for gen in result.generations:
        print(f"generation {gen['generation']}: world={gen['world_size']} "
              f"iterations→{gen['end_iteration']} died={gen['died']}")
    print(f"losses: {[round(l, 4) for l in result.losses]}")

    print(f"\n=== baseline: no faults at the shrunken world size "
          f"({WORLD - 1} ranks) ===")
    baseline = run_elastic(
        WORLD - 1, setup, step, ITERATIONS,
        config=ElasticConfig(
            policy="shrink",
            checkpoint_dir=os.path.join(workdir, "baseline"),
            checkpoint_every=1,
            timeout=10.0,
            ddp_kwargs={"bucket_cap_mb": 0.0001},
        ),
    )
    print(f"baseline losses: {[round(l, 4) for l in baseline.losses]}")

    print(f"\n=== grow run: rank 2 killed, rejoins two generations later "
          f"(replication_factor=2) ===")
    grow_plan = FaultPlan(
        [
            crash_rank(2, scope="collective", op="allreduce",
                       after=2 * BUCKETS + 1, times=1),  # dies iteration 2
            rejoin_rank(2, generation=1),  # matures during generation 1
        ],
        seed=SEED,
    )
    grow = run_elastic(
        WORLD, setup, step, ITERATIONS,
        config=ElasticConfig(
            policy="shrink",
            checkpoint_dir=os.path.join(workdir, "grow"),
            checkpoint_every=1,
            timeout=10.0,
            ddp_kwargs={"bucket_cap_mb": 0.0001},
            allow_grow=True,
            max_world_size=WORLD,
            replication_factor=2,
        ),
        fault_plan=grow_plan,
    )
    for gen in grow.generations:
        ckpt = (gen.get("checkpoint") or {}).get(0, {})
        print(f"generation {gen['generation']}: world={gen['world_size']} "
              f"iterations→{gen['end_iteration']} died={gen['died']} "
              f"admitted={gen.get('admitted', [])} "
              f"replicas_sent={ckpt.get('replicas_sent', 0)}")
    print(f"grow losses: {[round(l, 4) for l in grow.losses]}")

    # Composed baseline: replay the observed world schedule without
    # faults through one shared checkpoint dir — bitwise comparable.
    schedule = [(g["world_size"], g["end_iteration"])
                for g in grow.generations]
    composed_dir = os.path.join(workdir, "grow_baseline")
    composed_losses = []
    cursor = 0
    for world, end in schedule:
        if end <= cursor:
            continue
        segment = run_elastic(
            world, setup, step, end,
            config=ElasticConfig(
                policy="shrink",
                checkpoint_dir=composed_dir,
                checkpoint_every=1,
                timeout=10.0,
                ddp_kwargs={"bucket_cap_mb": 0.0001},
            ),
        )
        composed_losses += segment.losses
        cursor = end

    checks = [
        ("run completed", result.completed),
        ("all iterations ran", result.iterations == ITERATIONS),
        ("rank 2 detected dead", result.deaths == [2]),
        ("world shrank to survivors",
         result.final_world_size == WORLD - 1),
        ("loss kept improving", result.losses[-1] < result.losses[0]),
        ("final loss matches no-fault shrunken-world baseline",
         abs(result.final_loss - baseline.final_loss) < 0.05),
        ("grow run completed", grow.completed),
        ("grow ran all iterations", grow.iterations == ITERATIONS),
        ("killed rank rejoined at a boundary",
         grow.deaths == [2] and grow.admissions == [2]),
        ("world grew back to full size",
         grow.final_world_size == WORLD),
        # A generation the supervisor cut short to admit the returning
        # rank may lose its last push to the closing hub (its local
        # commit carries the state); every other generation replicated.
        ("checkpoint engine replicated shards",
         all((g.get("checkpoint") or {}).get(0, {}).get("replicas_sent", 0)
             > 0 for g in grow.generations if not g["grow_ready"])),
        ("grow losses bitwise-match the composed same-schedule baseline",
         composed_losses == grow.losses),
    ]
    print()
    failed = False
    for label, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
        failed = failed or not ok
    if failed:
        dump_flight_recorder(workdir)
        return 1
    print("\nall checks passed")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
