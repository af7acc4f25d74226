"""Ablation: gradient-exchange architectures (paper §2.3, §7).

Compares the per-iteration gradient-exchange cost of:

* flat ring AllReduce (DDP's default path),
* hierarchical AllReduce (BlueConnect/Blink-style decomposition along
  the network hierarchy, paper §7; priced by the cost model, not run),
* a synchronous parameter server (every gradient crosses one server
  link twice — the §2.3 contrast).

Expected shape: the parameter server's server-link bottleneck scales
linearly with worker count while AllReduce's per-rank volume is bounded
by 2(p−1)/p ≈ 2 — so the PS gap widens with scale.  On this cluster
model the hierarchical variant tracks the flat ring (same inter-server
bottleneck) and wins mainly on hop latency.
"""

from repro.experiments import ablations

from common import report


def bench_architecture_comparison(benchmark):
    rows = benchmark(ablations.architecture_comparison)
    report(
        "ablation_architectures",
        "Ablation: gradient exchange cost (ResNet50, 102MB grads, nccl model)",
        ["workers", "flat_ring_s", "hierarchical_s", "param_server_s", "ps_vs_ring"],
        rows,
    )
    # the PS bottleneck widens with scale
    ratios = [r[3] / r[1] for r in rows]
    assert ratios[-1] > ratios[0]
    assert rows[-1][3] > rows[-1][1] * 2  # PS clearly loses at 32 workers
