"""Comm health engine demo: inject faults, get attributed diagnoses.

Trains a small DDP model on 4 ranks while a seeded
:class:`~repro.resilience.FaultPlan` slows the wire:
``slow_rank(1, ...)`` delays every send from rank 1, the paper's
persistent-straggler scenario.

The health engine watches the same run through its efficiency metrics
(per-source receive stalls, achieved bus bandwidth, chunk-pipeline
utilization) and the cross-rank causal timeline stitched from every
rank's collective records, then prints what a human would
have had to dig out of a Chrome trace: ``persistent_straggler`` naming
rank 1, with confidence and the evidence numbers behind the verdict.  The
offline path is exercised too: the flight-recorder dump (``dump_json``,
what ``tools/healthctl.py`` reads) is reloaded from JSON and must give
exactly the live verdicts.

Run:
    python examples/health_demo.py                  # faulty run
    python examples/health_demo.py --fault-free     # CI false-positive gate
    python examples/health_demo.py --dump health_faulty.json
"""

import argparse
import json

import numpy as np

from repro import nn, optim, telemetry
from repro.autograd import Tensor
from repro.comm import Store, run_distributed
from repro.core import DistributedDataParallel
from repro.debug import dump_json, recorder_for
from repro.resilience import FaultPlan, slow_rank
from repro.telemetry.health import (
    PERSISTENT_STRAGGLER,
    analyze_dumps,
    health_report,
    merge_causal_timeline,
    render_diagnoses,
)
from repro.utils import manual_seed

WORLD_SIZE = 4
ITERATIONS = 8
SLOW_RANK = 1


def train(rank: int):
    manual_seed(11)
    net = nn.Sequential(
        nn.Linear(32, 96), nn.ReLU(), nn.Linear(96, 96), nn.ReLU(),
        nn.Linear(96, 4),
    )
    ddp = DistributedDataParallel(net, bucket_cap_mb=0.05)
    opt = optim.SGD(ddp.parameters(), lr=0.01)
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(rank)
    for _ in range(ITERATIONS):
        inp = Tensor(rng.standard_normal((16, 32)))
        exp = rng.integers(0, 4, 16)
        opt.zero_grad()
        loss_fn(ddp(inp), exp).backward()
        opt.step()
    return ddp.ddp_stats(), health_report(rank)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fault-free", action="store_true",
                        help="run without any injected fault (gate mode: "
                        "asserts zero diagnoses)")
    parser.add_argument("--dump", metavar="PATH", default=None,
                        help="write the flight-recorder dump here "
                        "(feed it to tools/healthctl.py)")
    parser.add_argument("--seed", type=int, default=0,
                        help="chaos seed for the fault plan")
    args = parser.parse_args()

    telemetry.enable()
    plan = None
    if not args.fault_free:
        plan = FaultPlan([slow_rank(SLOW_RANK, seconds=0.008)], seed=args.seed)

    mode = "fault-free" if args.fault_free else f"slow rank {SLOW_RANK}"
    print(f"== training: {WORLD_SIZE} ranks x {ITERATIONS} iterations "
          f"({mode}) ==")
    stats, health = run_distributed(
        WORLD_SIZE, train, backend="gloo", timeout=60.0,
        store=Store(timeout=30.0), fault_plan=plan,
    )[0]

    # -- live health report ---------------------------------------------
    print("\n== health_report(0) at the end of rank 0's run ==")
    busbw = health["achieved_busbw_gbps"]
    util = health["chunk_pipeline_utilization"]
    print(f"collectives accounted: {health['collectives_accounted']}, "
          f"overlap ratio {stats['comm_compute_overlap_ratio']:.3f}")
    print(f"achieved bus bandwidth: mean {busbw['mean']:.3f} GB/s "
          f"(p50 {busbw['p50']:.3f})")
    print(f"chunk pipeline utilization: mean {util['mean']:.3f}")
    print(f"receive stall: {health['recv_stall_s']:.3f}s, "
          f"records retained {recorder_for(0).depth()}")
    assert health["collectives_accounted"] > 0
    json.dumps(health)  # must be JSON-serializable end to end

    # -- causal timeline ------------------------------------------------
    timeline = merge_causal_timeline()
    worst = max(timeline, key=lambda r: r["start_skew_s"], default=None)
    if worst is not None:
        print(f"\ncausal timeline: {len(timeline)} collectives stitched; "
              f"worst start skew {worst['start_skew_s'] * 1e3:.1f} ms "
              f"(op {worst['op']} seq {worst['seq']})")

    # -- live diagnoses -------------------------------------------------
    diagnoses = analyze_dumps()
    print("\n== live anomaly attribution ==")
    print(render_diagnoses(diagnoses), end="")

    kinds = {d.kind: d for d in diagnoses}
    if args.fault_free:
        assert not diagnoses, (
            f"false positive: fault-free run produced {kinds.keys()}"
        )
        print("fault-free run: zero diagnoses, as required")
    else:
        straggler = kinds.get(PERSISTENT_STRAGGLER)
        assert straggler is not None and straggler.culprit_rank == SLOW_RANK, (
            f"expected persistent_straggler on rank {SLOW_RANK}, got {kinds.keys()}"
        )
        print(f"attribution correct: straggler=rank {straggler.culprit_rank}")

    # -- offline path (healthctl over the flight-recorder dump) ---------
    dumps = json.loads(dump_json(args.dump))["flight_recorders"]
    offline = analyze_dumps(dumps)
    print(f"\noffline check over the dump of ranks "
          f"{[d['rank'] for d in dumps]}: "
          f"{sorted(d.kind for d in offline) or 'no anomalies'}")
    assert [d.as_dict() for d in offline] == [d.as_dict() for d in diagnoses], (
        "the dump's verdicts differ from the live ones"
    )
    if args.dump:
        print(f"wrote {args.dump} — analyze with: "
              f"python tools/healthctl.py {args.dump}")

    print("\nhealth demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
