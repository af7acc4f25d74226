"""Critical-path attribution of iteration wall time.

The DAG model of synchronous SGD (Li et al., arXiv:1805.03812) frames
an iteration as a critical path over compute and communication tasks;
this profiler walks that path through measured timestamps and says
where the wall time went.  Per iteration and rank it attributes:

* ``prepare_s`` — loss + early backward until the first gradient
  (the recorder's ``prepare_to_first_grad`` window);
* ``backward_s`` — local gradient computation (``first_grad`` →
  ``all_grads``);
* ``exposed_comm_s`` — the union of bucket-AllReduce execution time
  that falls *after* backward compute ended: communication the overlap
  machinery failed to hide (paper Fig. 4's exposed tail);
* ``finalize_other_s`` — the rest of finalize (averaging, copy-back,
  launch bookkeeping).

The four terms tile the iteration exactly — they are carved out of the
same ``[prepare, done]`` envelope the recorder stamps — so the
attribution sums to measured iteration wall time by construction.
``overlap_ratio`` uses the recorder's own per-interval formula and
therefore agrees with ``ddp_stats()["comm_compute_overlap_ratio"]``.

Two sources feed the same math:

* :func:`profile_from_detail` — the reducer's always-on
  ``IterationRecorder.last_detail`` (no telemetry required; this is
  what ``ddp_stats()["profile"]`` reports);
* :class:`CriticalPathProfiler` — the span tracer's iteration spans and
  the collective record rings, which cover *every* retained iteration
  on *every* rank and so also support the cross-rank straggler summary
  ("rank 2 finished last on 7/10 iterations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.debug.flight_recorder import all_recorders
from repro.telemetry.spans import TRACER

#: Span names the recorder emits for the per-iteration phases.
_PHASE_PREPARE = "prepare_to_first_grad"
_PHASE_BACKWARD = "backward_compute"
_PHASE_FINALIZE = "finalize(wait+copy_back)"


def _union_within(intervals: Sequence[Tuple[float, float]],
                  lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi].

    The union (not the sum) is what "exposed communication" means:
    collective records can overlap — a split-phase one is in flight from
    its post to its completion, beside the worker's, and round-robin
    member groups each run their own — and time two of them share must
    not be billed twice against the iteration.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


@dataclass
class BucketBlame:
    """One bucket's share of the iteration's communication picture."""

    bucket: Optional[int]
    bytes: int
    comm_s: float
    hidden_s: float
    exposed_s: float
    launch_delay_s: float = 0.0

    @property
    def exposed_frac(self) -> float:
        """Fraction of this bucket's own comm time left exposed."""
        return self.exposed_s / self.comm_s if self.comm_s > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "bucket": self.bucket,
            "bytes": self.bytes,
            "comm_s": self.comm_s,
            "hidden_s": self.hidden_s,
            "exposed_s": self.exposed_s,
            "exposed_frac": self.exposed_frac,
            "launch_delay_s": self.launch_delay_s,
        }


@dataclass
class IterationProfile:
    """Wall-time attribution for one (iteration, rank)."""

    rank: Optional[int]
    iteration: int
    t_start: float
    t_end: float
    prepare_s: float
    backward_s: float
    exposed_comm_s: float
    finalize_other_s: float
    comm_total_s: float
    comm_hidden_s: float
    overlap_ratio: float
    launch_gap_s: float
    idle_bubble_s: float
    buckets: List[BucketBlame] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.t_end - self.t_start

    def attribution(self) -> Dict[str, float]:
        """The four terms that tile the iteration (sum == ``total_s``)."""
        return {
            "prepare_s": self.prepare_s,
            "backward_s": self.backward_s,
            "exposed_comm_s": self.exposed_comm_s,
            "finalize_other_s": self.finalize_other_s,
        }

    def blame(self, top: int = 3) -> List[BucketBlame]:
        """The ``top`` buckets by exposed communication time."""
        ranked = sorted(self.buckets, key=lambda b: b.exposed_s, reverse=True)
        return ranked[:top]

    def summary(self, top: int = 3) -> dict:
        """Compact dict for ``ddp_stats()["profile"]``."""
        return {
            "iteration": self.iteration,
            "total_ms": self.total_s * 1e3,
            "attribution_ms": {
                key.replace("_s", "_ms"): value * 1e3
                for key, value in self.attribution().items()
            },
            "overlap_ratio": self.overlap_ratio,
            "exposed_comm_ms": self.exposed_comm_s * 1e3,
            "launch_gap_ms": self.launch_gap_s * 1e3,
            "idle_bubble_ms": self.idle_bubble_s * 1e3,
            "blame": [
                {
                    "bucket": b.bucket,
                    "exposed_ms": b.exposed_s * 1e3,
                    "exposed_frac": b.exposed_frac,
                    "share_of_exposed": (
                        b.exposed_s / self.exposed_comm_s
                        if self.exposed_comm_s > 0 else 0.0
                    ),
                }
                for b in self.blame(top)
            ],
        }

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "iteration": self.iteration,
            "total_s": self.total_s,
            **self.attribution(),
            "comm_total_s": self.comm_total_s,
            "comm_hidden_s": self.comm_hidden_s,
            "overlap_ratio": self.overlap_ratio,
            "launch_gap_s": self.launch_gap_s,
            "idle_bubble_s": self.idle_bubble_s,
            "buckets": [b.as_dict() for b in self.buckets],
        }

    def blame_table(self) -> str:
        """Human-readable attribution + per-bucket blame report."""
        ms = 1e3
        lines = [
            f"critical path — iteration {self.iteration}"
            + (f", rank {self.rank}" if self.rank is not None else "")
            + f": {self.total_s * ms:.3f} ms",
            f"  prepare {self.prepare_s * ms:.3f} ms | "
            f"backward {self.backward_s * ms:.3f} ms | "
            f"exposed comm {self.exposed_comm_s * ms:.3f} ms | "
            f"finalize other {self.finalize_other_s * ms:.3f} ms",
            f"  overlap ratio {self.overlap_ratio:.3f} "
            f"(hid {self.comm_hidden_s * ms:.3f} of "
            f"{self.comm_total_s * ms:.3f} ms comm); "
            f"launch gaps {self.launch_gap_s * ms:.3f} ms, "
            f"comm idle bubbles {self.idle_bubble_s * ms:.3f} ms",
            "  bucket      bytes   comm_ms  hidden_ms  exposed_ms  exposed%",
        ]
        for blame in sorted(self.buckets, key=lambda b: b.exposed_s, reverse=True):
            label = "-" if blame.bucket is None else str(blame.bucket)
            lines.append(
                f"  {label:<6} {blame.bytes:>10} {blame.comm_s * ms:>9.3f} "
                f"{blame.hidden_s * ms:>10.3f} {blame.exposed_s * ms:>11.3f} "
                f"{blame.exposed_frac * 100:>8.1f}%"
            )
        if not self.buckets:
            lines.append("  (no communication intervals recorded)")
        return "\n".join(lines)


def _build_profile(
    rank: Optional[int],
    iteration: int,
    t_prepare: float,
    t_first: float,
    t_all: float,
    t_done: float,
    comm: Sequence[Tuple[Optional[int], int, float, float]],
    launch_delays: Dict[Optional[int], float],
) -> IterationProfile:
    """Shared attribution math over (bucket, bytes, start, end) intervals."""
    intervals = [(start, end) for _, _, start, end in comm]
    # Recorder-identical per-interval sums (overlap ratio agreement).
    comm_total = sum(end - start for start, end in intervals)
    comm_hidden = sum(
        max(0.0, min(end, t_all) - max(start, t_first))
        for start, end in intervals
    )
    overlap_ratio = (comm_hidden / comm_total) if comm_total > 0 else 0.0
    exposed = _union_within(intervals, t_all, t_done)
    finalize = max(0.0, t_done - t_all)
    buckets = [
        BucketBlame(
            bucket=bucket,
            bytes=nbytes,
            comm_s=end - start,
            hidden_s=max(0.0, min(end, t_all) - max(start, t_first)),
            exposed_s=max(0.0, min(end, t_done) - max(start, t_all)),
            launch_delay_s=launch_delays.get(bucket, 0.0),
        )
        for bucket, nbytes, start, end in comm
    ]
    # Idle bubbles: time inside the communication window where no
    # collective was executing — launch-ordering stalls and queueing
    # gaps on the communication worker.
    if intervals:
        comm_lo = min(start for start, _ in intervals)
        comm_hi = max(end for _, end in intervals)
        busy = _union_within(intervals, comm_lo, comm_hi)
        idle_bubble = max(0.0, (comm_hi - comm_lo) - busy)
    else:
        idle_bubble = 0.0
    return IterationProfile(
        rank=rank,
        iteration=iteration,
        t_start=t_prepare,
        t_end=t_done,
        prepare_s=max(0.0, t_first - t_prepare),
        backward_s=max(0.0, t_all - t_first),
        exposed_comm_s=exposed,
        finalize_other_s=max(0.0, finalize - exposed),
        comm_total_s=comm_total,
        comm_hidden_s=comm_hidden,
        overlap_ratio=overlap_ratio,
        launch_gap_s=sum(launch_delays.values()),
        idle_bubble_s=idle_bubble,
        buckets=buckets,
    )


def profile_from_detail(detail: dict, rank: Optional[int] = None
                        ) -> Optional[IterationProfile]:
    """Build a profile from ``IterationRecorder.last_detail``.

    Works with telemetry disabled — the recorder's coarse clock is
    always on.  Returns ``None`` when no iteration has finished yet.
    """
    stamps = detail.get("timestamps")
    if not stamps:
        return None
    comm = [
        (entry["bucket"], entry.get("bytes", 0),
         entry["comm_start"], entry["comm_end"])
        for entry in detail.get("buckets", ())
        if "comm_start" in entry
    ]
    delays = {
        entry["bucket"]: entry.get("ready_to_launch_delay_s", 0.0)
        for entry in detail.get("buckets", ())
    }
    return _build_profile(
        rank,
        detail.get("iteration", -1),
        stamps["prepare"],
        stamps["first_grad"],
        stamps["all_grads"],
        stamps["done"],
        comm,
        delays,
    )


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
    """Builds :class:`IterationProfile` objects from spans and records.

    Requires telemetry to have been enabled during the run — the
    iteration spans and the AllReduce records it retained are the
    evidence.  One profiler call reads the current rings; it holds no
    state of its own.
    """

    # -- evidence grouping -----------------------------------------------
    def _collect(self) -> Dict[Tuple[int, int], dict]:
        """Group spans and records into per-(rank, iteration) evidence bags."""
        bags: Dict[Tuple[int, int], dict] = {}
        for span in TRACER.spans():
            args = span.args or {}
            if span.cat == "iteration" and "iteration" in args:
                key = (span.rank, args["iteration"])
                bag = bags.setdefault(key, {"phases": {}, "delays": {}})
                bag["envelope"] = (span.t_start, span.t_end)
            elif span.name in (_PHASE_PREPARE, _PHASE_BACKWARD,
                               _PHASE_FINALIZE) and "iteration" in args:
                key = (span.rank, args["iteration"])
                bag = bags.setdefault(key, {"phases": {}, "delays": {}})
                bag["phases"][span.name] = (span.t_start, span.t_end)
            elif span.cat == "bucket" and "iteration" in args:
                key = (span.rank, args["iteration"])
                bag = bags.setdefault(key, {"phases": {}, "delays": {}})
                bag["delays"][args.get("bucket")] = span.duration
        allreduces = {
            rank: [record for record in recorder.records()
                   if record.op == "allreduce" and record.t_start is not None
                   and record.t_end is not None]
            for rank, recorder in all_recorders().items()
        }
        # Attribute AllReduces to iterations by time containment of
        # their start (a bucket AllReduce is launched inside exactly one
        # iteration window, even if it drains into finalize).
        for (rank, _iteration), bag in bags.items():
            envelope = bag.get("envelope")
            if envelope is None:
                continue
            lo, hi = envelope
            bag["comm"] = [
                (record.bucket, record.bytes or 0, record.t_start, record.t_end)
                for record in allreduces.get(rank, ())
                if lo <= record.t_start < hi
            ]
        return bags

    # -- profiles --------------------------------------------------------
    def profiles(self, rank: Optional[int] = None) -> List[IterationProfile]:
        """Profiles for every complete (iteration, rank) in the tracer,
        ordered by iteration then rank; optionally one rank only."""
        out: List[IterationProfile] = []
        for (span_rank, iteration), bag in sorted(self._collect().items(),
                                                  key=lambda kv: (kv[0][1], kv[0][0])):
            if rank is not None and span_rank != rank:
                continue
            envelope = bag.get("envelope")
            if envelope is None:
                continue  # phase spans survived the ring, umbrella did not
            t0, t3 = envelope
            prepare = bag["phases"].get(_PHASE_PREPARE)
            backward = bag["phases"].get(_PHASE_BACKWARD)
            t1 = prepare[1] if prepare else t0
            t2 = backward[1] if backward else t1
            out.append(
                _build_profile(span_rank, iteration, t0, t1, t2, t3,
                               bag.get("comm", []), bag["delays"])
            )
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
