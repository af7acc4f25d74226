"""Figure 6: per-iteration latency breakdown at 32 GPUs.

Expected shape: backward dominates; communication is more than half the
backward delay and grows with model size; NCCL beats Gloo; overlap
yields double-digit-percent speedups everywhere (paper: 38.0% / 35.2%
NCCL, 26.8% / 21.5% Gloo).

Two benches: the original *simulated* 32-GPU breakdown, and a
*measured* breakdown of a real 4-rank threaded run instrumented by
``repro.telemetry`` — the reducer's iteration profiles (its recorder's
stamps and the Work-handle comm timestamps) supply the same fwd/bwd/exposed-comm
decomposition the simulator predicts, plus a measured comm/compute
overlap ratio.
"""

import statistics

import numpy as np

from repro import nn, telemetry
from repro.autograd import Tensor
from repro.comm import run_distributed
from repro.core import DistributedDataParallel
from repro.experiments import figures
from repro.optim import SGD
from repro.utils import manual_seed

from common import report


def bench_fig06_latency_breakdown(benchmark):
    rows = benchmark(figures.fig06_breakdown)
    report(
        "fig06_breakdown",
        "Fig 6: per-iteration latency breakdown, 32 GPUs "
        "(normalized: no-overlap total = 1)",
        ["model", "backend", "fwd", "bwd_comp", "comm_exposed", "opt",
         "overlap_total", "comm_total", "overlap_speedup"],
        rows,
    )
    by_key = {(r[0], r[1]): r for r in rows}
    for row in rows:
        assert float(row[8].rstrip("%")) > 8.0  # overlap helps everywhere
    # Gloo's communication dominates more than NCCL's
    assert by_key[("resnet50", "gloo")][7] > by_key[("resnet50", "nccl")][7]
    assert by_key[("bert", "gloo")][7] > by_key[("bert", "nccl")][7]
    # communication share grows with model size (per backend)
    assert by_key[("bert", "nccl")][7] > by_key[("resnet50", "nccl")][7]


# ----------------------------------------------------------------------
# measured variant: real 4-rank run through repro.telemetry
# ----------------------------------------------------------------------
MEASURED_WORLD = 4
MEASURED_ITERS = 12

#: (name, hidden width, hidden depth) — two sizes so the comm share's
#: growth with model size shows up in the measured numbers too.
MEASURED_MODELS = [("mlp-small", 192, 2), ("mlp-wide", 384, 3)]


def _measured_run(width: int, depth: int, overlap: bool):
    """Real threaded DDP training; per-rank phase stats via telemetry."""

    def body(rank):
        manual_seed(0)
        layers = [nn.Linear(64, width), nn.ReLU()]
        for _ in range(depth - 1):
            layers += [nn.Linear(width, width), nn.ReLU()]
        layers += [nn.Linear(width, 8)]
        ddp = DistributedDataParallel(
            nn.Sequential(*layers), bucket_cap_mb=0.25, overlap=overlap
        )
        opt = SGD(ddp.parameters(), lr=0.01)
        rng = np.random.default_rng(rank)
        loss_fn = nn.CrossEntropyLoss()
        per_iteration = []
        for _ in range(MEASURED_ITERS):
            inp = Tensor(rng.standard_normal((64, 64)))
            exp = rng.integers(0, 8, 64)
            opt.zero_grad()
            loss_fn(ddp(inp), exp).backward()
            opt.step()
            per_iteration.append(ddp.reducer.recorder.last)
        return per_iteration, ddp.ddp_stats()

    results = run_distributed(MEASURED_WORLD, body, backend="gloo", timeout=120)

    def phase_median(phase):
        # median over post-warmup iterations, mean over ranks
        return statistics.mean(
            statistics.median(phase(profile) for profile in per_iter[1:])
            for per_iter, _ in results
        )

    phases = {
        "prepare_to_first_grad": phase_median(lambda p: p.prepare_s),
        "backward_compute": phase_median(lambda p: p.backward_s),
        "comm_exposed_wait": phase_median(
            lambda p: p.exposed_comm_s + p.finalize_other_s
        ),
        "total": phase_median(lambda p: p.total_s),
    }
    overlap_ratio = statistics.mean(
        stats["comm_compute_overlap_ratio"] for _, stats in results
    )
    return phases, overlap_ratio, results[0][1]


def _measured_rows():
    telemetry.enable()
    try:
        rows = []
        for name, width, depth in MEASURED_MODELS:
            with_overlap, ratio, stats = _measured_run(width, depth, overlap=True)
            without, _, _ = _measured_run(width, depth, overlap=False)
            speedup = 1.0 - with_overlap["total"] / without["total"]
            rows.append(
                (
                    name,
                    "gloo",
                    stats["num_buckets"],
                    round(with_overlap["prepare_to_first_grad"] * 1e3, 3),
                    round(with_overlap["backward_compute"] * 1e3, 3),
                    round(with_overlap["comm_exposed_wait"] * 1e3, 3),
                    round(with_overlap["total"] * 1e3, 3),
                    round(without["total"] * 1e3, 3),
                    round(ratio, 3),
                    f"{speedup * 100:.1f}%",
                )
            )
        return rows
    finally:
        telemetry.disable()
        telemetry.reset()


def bench_fig06_breakdown_measured(benchmark):
    """Fig. 6 analog *measured* from real 4-rank runs (not simulated).

    Caveat on the speedup column: ranks are threads sharing one GIL, so
    "overlapped" communication still contends with backward compute for
    the interpreter — the wall-clock overlap speedup hovers near zero
    here even though the measured overlap *ratio* (fraction of comm time
    hidden under backward) is substantial.  On real multi-device
    hardware the hidden fraction translates into the paper's
    double-digit speedups; in this harness the ratio is the meaningful
    measurement and the speedup column is noise.
    """
    rows = benchmark.pedantic(_measured_rows, rounds=1, iterations=1)
    report(
        "fig06_breakdown_measured",
        f"Fig 6 (measured): real {MEASURED_WORLD}-rank threaded run, ms/iter "
        "(phases from repro.telemetry; overlap run vs no-overlap run)",
        ["model", "backend", "buckets", "fwd+prep_ms", "bwd_comp_ms",
         "comm_exposed_ms", "overlap_total_ms", "no_overlap_total_ms",
         "overlap_ratio", "overlap_speedup"],
        rows,
    )
    for row in rows:
        assert row[2] >= 2              # multi-bucket, or overlap is moot
        assert row[6] > 0 and row[7] > 0
        assert 0.0 <= row[8] <= 1.0     # measured comm/compute overlap ratio
    # the largest model's backward is long enough that early buckets'
    # AllReduces genuinely overlap with compute (the small model's whole
    # backward can fit inside one GIL scheduling quantum, so its measured
    # overlap may legitimately round to zero).
    assert rows[-1][8] > 0.0
    # the wider model moves more gradient bytes, hence a longer iteration
    assert rows[1][6] > rows[0][6]
