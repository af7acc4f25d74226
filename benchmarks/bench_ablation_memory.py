"""Ablation: per-GPU memory, DDP replication vs ZeRO partitioning (§7).

The paper's related work positions ZeRO as trading training speed for
memory by partitioning parameters, gradients, and optimizer states
across DDP instances.  This bench quantifies the per-GPU footprint of
each stage for both evaluation models with Adam (the measured
counterpart is ``bench_sharded.py``, over ``repro.sharded``).
"""

from repro.simulation.memory import memory_report
from repro.simulation.models import bert_profile, resnet50_profile

from common import report


def bench_memory_partitioning(benchmark):
    def rows_for_all():
        rows = []
        for model in (resnet50_profile(), bert_profile()):
            for world in (8, 64, 256):
                for row in memory_report(model, world):
                    rows.append((model.name, world) + row)
        return rows

    rows = benchmark(rows_for_all)
    report(
        "ablation_memory",
        "Ablation: per-GPU memory (MB) by strategy (Adam, fp32, act≈2x params)",
        ["model", "gpus", "strategy", "params_MB", "grads_MB", "opt_MB",
         "act_MB", "total_MB"],
        rows,
    )
    by_key = {(r[0], r[1], r[2]): r[-1] for r in rows}
    # ZeRO-3 at 256 GPUs nearly eliminates replicated state for BERT
    assert by_key[("bert", 256, "zero3")] < by_key[("bert", 256, "ddp")] / 2
    # DDP footprint is world-size independent
    assert by_key[("bert", 8, "ddp")] == by_key[("bert", 256, "ddp")]
