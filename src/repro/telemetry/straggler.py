"""Cross-rank straggler detection.

Synchronous data parallelism runs at the pace of its slowest rank: one
replica with a slow input pipeline, a thermally throttled device, or a
congested link stretches *every* iteration (the paper's §6.1 shared-
entitlement slowdowns are exactly this at cluster scale).  The detector
AllGathers each rank's local timing sample — typically the
``backward_compute`` phase from ``ddp_stats()`` — and flags ranks whose
time exceeds ``threshold ×`` the cross-rank median.

This is a **collective**: every rank in the group must call it at the
same point, and every rank receives the identical report, so any rank
can act on it (log, shed load, re-shard) without further coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.debug.levels import DEBUG
from repro.telemetry.metrics import registry_for
from repro.utils.logging import logger


@dataclass
class StragglerReport:
    """Outcome of one cross-rank timing exchange (identical on all ranks)."""

    times: List[float]
    median: float
    threshold: float
    stragglers: List[int] = field(default_factory=list)
    rank: int = 0

    @property
    def is_straggler(self) -> bool:
        return self.rank in self.stragglers

    @property
    def max_slowdown(self) -> float:
        """Slowest rank's time relative to the median (1.0 = balanced)."""
        if self.median <= 0:
            return 1.0
        return max(self.times) / self.median

    def describe(self) -> str:
        lines = [
            f"straggler report (threshold {self.threshold:.2f}× median "
            f"{self.median * 1e3:.3f} ms):"
        ]
        for rank, t in enumerate(self.times):
            flag = "  <-- straggler" if rank in self.stragglers else ""
            lines.append(f"  rank {rank}: {t * 1e3:.3f} ms{flag}")
        return "\n".join(lines)


def detect_stragglers(
    process_group, local_time: float, threshold: float = 1.5
) -> StragglerReport:
    """AllGather ``local_time`` across the group and flag outliers.

    Every rank must call this with its own sample; the returned report
    is identical everywhere.  ``threshold`` is the multiple of the
    cross-rank median beyond which a rank counts as straggling.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must exceed 1.0, got {threshold}")
    sample = np.array([float(local_time)], dtype=np.float64)
    gathered = process_group.allgather(sample)
    times = [float(row[0]) for row in gathered]
    median = float(np.median(times))
    stragglers = [
        rank for rank, t in enumerate(times) if median > 0 and t > threshold * median
    ]
    report = StragglerReport(
        times=times,
        median=median,
        threshold=threshold,
        stragglers=stragglers,
        rank=process_group.group_rank,
    )
    if stragglers:
        logger.info(
            "straggler(s) detected: ranks %s (max slowdown %.2fx median)",
            stragglers,
            report.max_slowdown,
        )
    if DEBUG.telemetry:
        registry = registry_for()
        registry.counter("straggler.checks").add(1)
        if report.is_straggler:
            registry.counter("straggler.flagged").add(1)
        registry.gauge("straggler.max_slowdown").set(report.max_slowdown)
    return report
