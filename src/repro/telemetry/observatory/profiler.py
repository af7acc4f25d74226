"""Critical-path attribution of iteration wall time, across ranks.

The DAG model of synchronous SGD (Li et al., arXiv:1805.03812) frames
an iteration as a critical path over compute and communication tasks.
The reducer's :class:`~repro.telemetry.recorder.IterationRecorder`
walks that path through its own stamps and serves each synchronized
iteration as one :class:`IterationProfile` — ``prepare_s``,
``backward_s``, ``exposed_comm_s`` and ``finalize_other_s``, which tile
the iteration exactly, plus the overlap ratio and a per-bucket blame
list.  ``ddp_stats()["profile"]`` is the last one's summary.

:class:`CriticalPathProfiler` reads the same profiles for *every*
retained iteration on *every* rank: while ``REPRO_DEBUG`` ≥ INFO or
telemetry is on, each rank's flight recorder keeps them (the gate that
retains collective records; ``telemetry.reset()`` clears both).  A
profile the profiler returns for a rank's latest iteration *is* that
rank's ``recorder.last``, so the two can never disagree.  Across ranks
it adds the straggler summary ("rank 2 finished last on 7/10
iterations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.debug.flight_recorder import all_recorders
from repro.telemetry.recorder import IterationProfile


@dataclass
class StragglerSummary:
    """Which rank finished its iterations last, and how often."""

    iterations: int
    finish_counts: Dict[int, int]

    @property
    def straggler(self) -> Optional[int]:
        if not self.finish_counts:
            return None
        return max(self.finish_counts, key=lambda r: (self.finish_counts[r], r))

    def describe(self) -> str:
        if not self.iterations:
            return "no profiled iterations"
        rank = self.straggler
        return (
            f"rank {rank} is the straggler on "
            f"{self.finish_counts.get(rank, 0)}/{self.iterations} iterations"
        )


class CriticalPathProfiler:
    """Reads the :class:`IterationProfile` objects every rank retained.

    Retention needs ``REPRO_DEBUG`` ≥ INFO or telemetry during the run.
    One profiler call reads the current rings; it holds no state of its
    own.
    """

    def profiles(self, rank: Optional[int] = None) -> List[IterationProfile]:
        """Profiles for every retained (iteration, rank), ordered by
        iteration then rank; optionally one rank only."""
        out = [
            stamps.profile()
            for ring_rank, ring in all_recorders().items()
            if rank is None or ring_rank == rank
            for stamps in ring.iterations()
        ]
        out.sort(key=lambda p: (p.iteration, p.rank))
        return out

    def profile(self, rank: int, iteration: Optional[int] = None
                ) -> Optional[IterationProfile]:
        """One rank's profile for ``iteration`` (default: its latest)."""
        candidates = self.profiles(rank=rank)
        if iteration is not None:
            for candidate in candidates:
                if candidate.iteration == iteration:
                    return candidate
            return None
        return candidates[-1] if candidates else None

    def last_profile(self) -> Optional[IterationProfile]:
        """The latest profiled iteration (lowest rank on ties)."""
        profiles = self.profiles()
        if not profiles:
            return None
        last_iteration = max(p.iteration for p in profiles)
        for profile in profiles:
            if profile.iteration == last_iteration:
                return profile
        return None

    # -- cross-rank straggler attribution --------------------------------
    def straggler_summary(self) -> StragglerSummary:
        """Count, per rank, how often it finished an iteration last."""
        by_iteration: Dict[int, List[IterationProfile]] = {}
        for profile in self.profiles():
            by_iteration.setdefault(profile.iteration, []).append(profile)
        counts: Dict[int, int] = {}
        judged = 0
        for _iteration, group in sorted(by_iteration.items()):
            if len(group) < 2:
                continue
            judged += 1
            laggard = max(group, key=lambda p: p.t_end)
            counts[laggard.rank] = counts.get(laggard.rank, 0) + 1
        return StragglerSummary(iterations=judged, finish_counts=counts)
