"""Online autotuner demo: a seeded slow link, retuned live.

Trains a 2-rank DDP model over a wire where **every send pays a fixed
injected delay** (a seeded :class:`~repro.resilience.FaultPlan`
``delay`` rule — the slow-interconnect scenario).  Under that cost
model, the deliberately bad starting config — 1 MB buckets, so the
model shatters into many tiny AllReduces, each eating the per-send
tax — is the worst possible choice, and the autotuner's job is to
discover that *from measurements alone*: widen the buckets, fatten the
chunks, and converge, all while training runs.

What the demo asserts (the CI autotune-smoke gate):

* the tuner **moved off the bad starting config** (convergence away
  from the default is observable in ``ddp_stats()["autotune"]``);
* **every config it ever applied is inside the documented safe
  ranges** (``repro.autotune.knobs.KNOBS`` — the same table rendered
  in ``docs/autotuning.md``);
* every rank made the **identical decisions** (the 1-element
  MAX-AllReduce agreement protocol), and training still learned.

The final report is written as JSON for ``tools/autotunectl.py``:

    python examples/autotune_demo.py --report autotune_report.json
    python tools/autotunectl.py autotune_report.json --check-safe-ranges
"""

import argparse
import json

import numpy as np

from repro import nn, optim
from repro.autograd import Tensor
from repro.autotune import TunedConfig, validate_config
from repro.comm import run_distributed
from repro.core import DistributedDataParallel
from repro.resilience import FaultPlan
from repro.resilience.faults import delay
from repro.utils import manual_seed

WORLD_SIZE = 2
BAD_BUCKET_CAP_MB = 1.0  # smallest safe-range point: worst under a slow link
SEND_DELAY_S = 0.002


def train(iterations, autotune_seed):
    def body(rank):
        manual_seed(4)
        # ~3.6 MB of float64 parameters: at the bad 1 MB bucket cap the
        # model shatters into 4+ buckets, each AllReduce paying the
        # injected per-send tax — the signal the tuner must pick up.
        net = nn.Sequential(
            nn.Linear(32, 384), nn.ReLU(), nn.Linear(384, 384), nn.ReLU(),
            nn.Linear(384, 384), nn.ReLU(), nn.Linear(384, 384), nn.ReLU(),
            nn.Linear(384, 4),
        )
        ddp = DistributedDataParallel(
            net,
            bucket_cap_mb=BAD_BUCKET_CAP_MB,
            autotune=True,
            autotune_options={
                "window_iters": 2,
                "warmup_windows": 1,
                "sweep_keep": 4,
                "seed": autotune_seed,
            },
        )
        opt = optim.SGD(ddp.parameters(), lr=0.01)
        loss_fn = nn.CrossEntropyLoss()
        rng = np.random.default_rng(rank)
        # one fixed batch per rank: the loss then decreases monotonically
        # enough that "training still learned" is a stable gate
        inp = Tensor(rng.standard_normal((16, 32)))
        exp = rng.integers(0, 4, 16)
        losses = []
        for _ in range(iterations):
            opt.zero_grad()
            loss = loss_fn(ddp(inp), exp)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        return losses, ddp.ddp_stats()["autotune"]

    return body


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for both the fault plan and the tuner")
    parser.add_argument("--iters", type=int, default=48,
                        help="training iterations")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the rank-0 autotune report JSON here")
    args = parser.parse_args()

    # The slow link: a flat per-send tax on every wire message.  More
    # buckets / more chunks => more sends => more injected delay, so the
    # measurement signal genuinely favors the coarse layouts the
    # analytic prior also predicts.
    plan = FaultPlan([delay(SEND_DELAY_S)], seed=args.seed)

    print(f"== autotune demo: {WORLD_SIZE} ranks x {args.iters} iterations, "
          f"{SEND_DELAY_S * 1e3:.0f} ms/send slow link, "
          f"start bucket_cap={BAD_BUCKET_CAP_MB} MB ==")
    results = run_distributed(
        WORLD_SIZE, train(args.iters, args.seed), backend="gloo",
        timeout=120.0, fault_plan=plan,
    )

    losses0, report0 = results[0]
    reports = [r for _, r in results]

    print(f"\ntuner state: {report0['state']} after "
          f"{report0['windows_closed']} windows "
          f"({report0['applied_changes']} config changes applied, "
          f"{report0['rollbacks']} rollbacks)")
    for entry in report0["applied_log"]:
        cfg = entry["config"]
        print(f"  window {entry['window']:>3} [{entry['state']:>10}] "
              f"{'+'.join(entry['changes'])}: "
              f"bucket_cap={cfg['bucket_cap_mb']} MB "
              f"chunk={cfg['chunk_bytes'] // 1024} KiB "
              f"alg={cfg['algorithm']}")
    print(f"active config: {report0['active_config']}")
    print(f"best window time: {report0['best_time_s'] * 1e3:.1f} ms")

    # -- gate 1: it moved off the deliberately bad start ----------------
    # The start config is whatever the first (warmup) window measured;
    # the tuner must both leave it and beat its measured window time.
    # (Which knob it moves is its call — on this scenario it may widen
    # the buckets *or* coarsen the chunks, both of which cut sends.)
    assert report0["applied_changes"] >= 1, "tuner never applied a change"
    active = report0["active_config"]
    start_entry = report0["history"][0]
    assert active != start_entry["config"], (
        f"tuner converged back onto the bad starting config: {active}"
    )
    baseline_s = start_entry["measured_s"]
    assert report0["best_time_s"] < baseline_s, (
        f"no measured improvement: best {report0['best_time_s'] * 1e3:.1f} ms "
        f"vs start {baseline_s * 1e3:.1f} ms"
    )
    print(f"improvement: start {baseline_s * 1e3:.1f} ms -> "
          f"best {report0['best_time_s'] * 1e3:.1f} ms "
          f"({baseline_s / report0['best_time_s']:.2f}x)")

    # -- gate 2: everything ever applied was inside the safe ranges -----
    for entry in report0["applied_log"] + [{"config": active}]:
        validate_config(TunedConfig(**entry["config"]))
    print("safe-range compliance: every applied config validated")

    # -- gate 3: every rank took the identical decision path ------------
    for other in reports[1:]:
        assert other["applied_log"] == report0["applied_log"], (
            "ranks diverged in applied configs"
        )
        assert other["active_config"] == report0["active_config"]
    print("cross-rank agreement: identical applied_log on all ranks")

    # -- training still learned through the live relayouts --------------
    assert losses0[-1] < losses0[0], (
        f"loss did not improve: {losses0[0]:.3f} -> {losses0[-1]:.3f}"
    )
    print(f"training: loss {losses0[0]:.3f} -> {losses0[-1]:.3f}")

    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report0, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.report} — inspect with: "
              f"python tools/autotunectl.py {args.report}")

    print("\nautotune demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
