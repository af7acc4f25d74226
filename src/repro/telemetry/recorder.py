"""The reducer's one record per iteration.

An :class:`IterationRecorder` stamps the handful of coarse
per-iteration timestamps (a few ``perf_counter`` calls — cheap enough
to stay on even with telemetry disabled) and, at the end of each
synchronized iteration, keeps them with each bucket's (ready, launched)
stamps and communication interval.  It serves them as one
:class:`IterationProfile` (:attr:`IterationRecorder.last`), built by
:func:`_build_profile` on first read and cached, so the training thread
never pays for the attribution math.  ``ddp_stats()``, the critical-path
profiler, the health report and the autotuner all read that profile.
Finishing an iteration writes nothing else: while ``REPRO_DEBUG`` ≥ INFO
or telemetry is on the rank's ring retains the stamps, and the Chrome
trace's compute row and the iteration series
(:func:`repro.telemetry.health.accounting.fold`) are drawn from them
when read, so the numbers and the intervals in an exported trace can
never disagree.

Phase model per synchronized iteration (paper Fig. 4 / Fig. 6):

```
prepare ──► first_grad ───────────► all_grads ──► done
   │  loss+early backward │ backward compute │ finalize: wait+copy-back
   └ bucket i: ready ► launch ► [comm start ── comm end]
```

The communication intervals come from the bucket ``Work`` handles'
records, stamped with execution start/end times — by the process-group
worker, or for a split-phase bucket (under the size rule) at its post
and at its completion, so posted time counts as in flight.  Only bucket
collectives count: the unused-parameter bitmap AllReduce is not one.
The profile attributes the iteration (DAG model of synchronous SGD, Li
et al., arXiv:1805.03812) as four terms that tile ``[prepare, done]``:

* ``prepare_s`` — loss + early backward until the first gradient;
* ``backward_s`` — local gradient computation (``first_grad`` →
  ``all_grads``);
* ``exposed_comm_s`` — the union of bucket communication time that
  falls *after* backward compute ended (paper Fig. 4's exposed tail);
* ``finalize_other_s`` — the rest of finalize (copy-back, bookkeeping).

The **overlap ratio** is the fraction of total bucket communication
time hidden inside the backward-compute window ``[first_grad,
all_grads]``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.debug.flight_recorder import recorder_for
from repro.debug.levels import DEBUG
from repro.telemetry.spans import TRACER


def work_interval(work) -> Optional[Tuple[float, float]]:
    """Execution interval stamped on a ``Work``'s record (a comm hook's
    handle exposes its collective's); ``None`` if it never executed."""
    record = getattr(work, "record", None)
    if record is not None and record.t_start is not None and record.t_end is not None:
        return (record.t_start, record.t_end)
    return None


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


def _build_profile(stamps: "_Stamps") -> IterationProfile:
    """The attribution math over (bucket, bytes, start, end) intervals."""
    t_prepare, t_first, t_all, t_done = (
        stamps.t_prepare, stamps.t_first, stamps.t_all, stamps.t_done)
    comm = stamps.comm
    launch_delays = {
        bucket: launched - ready for bucket, (ready, launched) in stamps.launches.items()
    }
    intervals = [(start, end) for _, _, start, end in comm]
    comm_total, comm_hidden, overlap_ratio = stamps.comm_split()
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
        rank=stamps.rank,
        iteration=stamps.iteration,
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


#: Serialises first reads, so every reader of one iteration gets the
#: same profile object (the training thread, ``ddp_stats`` and the
#: profiler may race to build it).
_build_lock = threading.Lock()


class _Stamps:
    """One finished iteration as stamped — ``comm`` holds each bucket
    collective's ``(bucket, bytes, start, end)``, ``launches`` each
    bucket's ``(ready, launched)`` pair, ``traced`` whether telemetry
    was on — and its profile once someone has read it."""

    __slots__ = ("rank", "iteration", "t_prepare", "t_first", "t_all", "t_done",
                 "comm", "launches", "traced", "_profile")

    def __init__(self, rank: Optional[int], iteration: int, t_prepare: float,
                 t_first: float, t_all: float, t_done: float,
                 comm: Sequence[Tuple[Optional[int], int, float, float]],
                 launches: Dict[int, Tuple[float, float]], traced: bool = False):
        self.rank, self.iteration = rank, iteration
        self.t_prepare, self.t_first, self.t_all, self.t_done = (
            t_prepare, t_first, t_all, t_done)
        self.comm, self.launches, self.traced = comm, launches, traced
        self._profile: Optional[IterationProfile] = None

    def comm_split(self) -> Tuple[float, float, float]:
        """``(comm_total_s, comm_hidden_s, overlap_ratio)``: bucket
        communication time, the part inside the backward-compute window
        ``[t_first, t_all]``, and their ratio — the profile's numbers,
        for readers that need no more (the iteration series, the trace)."""
        total = sum(end - start for _, _, start, end in self.comm)
        hidden = sum(max(0.0, min(end, self.t_all) - max(start, self.t_first))
                     for _, _, start, end in self.comm)
        return total, hidden, (hidden / total if total > 0 else 0.0)

    def profile(self) -> IterationProfile:
        if self._profile is None:
            with _build_lock:
                if self._profile is None:
                    self._profile = _build_profile(self)
        return self._profile


class IterationRecorder:
    """Per-reducer phase timestamps for the current/last iteration."""

    def __init__(self, rank: Optional[int] = None):
        self.rank = rank
        self.iteration = -1
        self.t_prepare = 0.0
        self.t_first_grad: Optional[float] = None
        self.t_all_grads: Optional[float] = None
        # bucket index -> timestamps
        self._ready: Dict[int, float] = {}
        self._launched: Dict[int, float] = {}
        self._launch_bytes: Dict[int, int] = {}
        self._last: Optional[_Stamps] = None

    @property
    def last(self) -> Optional[IterationProfile]:
        """The last synchronized iteration's profile (None before the
        first one finished)."""
        return self._last.profile() if self._last is not None else None

    # -- marks ----------------------------------------------------------
    def start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.t_first_grad = None
        self.t_all_grads = None
        self._ready.clear()
        self._launched.clear()
        self._launch_bytes.clear()
        self.t_prepare = time.perf_counter()

    def mark_first_grad(self) -> None:
        if self.t_first_grad is None:
            self.t_first_grad = time.perf_counter()

    def bucket_ready(self, index: int) -> None:
        self._ready[index] = time.perf_counter()

    def bucket_launched(self, index: int, nbytes: int) -> None:
        self._launched[index] = time.perf_counter()
        self._launch_bytes[index] = nbytes

    def mark_all_grads(self) -> float:
        self.t_all_grads = time.perf_counter()
        return self.t_all_grads

    # -- finalize --------------------------------------------------------
    def finish(self, bucket_works: Sequence[Tuple[int, object]]) -> None:
        """Close the iteration and keep its stamps as :attr:`last`.

        ``bucket_works`` pairs each bucket index with its ``Work``
        handle (or ``None``).  Builds no profile.  While ``REPRO_DEBUG``
        ≥ INFO or telemetry is on, the rank's flight recorder retains the
        stamps too: the critical-path profiler, the trace's compute row
        and the iteration series read them there.
        """
        t_done = time.perf_counter()
        t_first = self.t_first_grad if self.t_first_grad is not None else (
            self.t_all_grads if self.t_all_grads is not None else t_done
        )
        t_all = self.t_all_grads if self.t_all_grads is not None else t_done
        comm = []
        for index, work in bucket_works:
            interval = work_interval(work) if work is not None else None
            if interval is not None:
                comm.append((index, self._launch_bytes.get(index, 0),
                             interval[0], interval[1]))
        launches = {
            index: (ready, self._launched[index])
            for index, ready in self._ready.items()
            if index in self._launched
        }
        traced = TRACER.enabled
        self._last = _Stamps(self.rank, self.iteration, self.t_prepare,
                             t_first, t_all, t_done, comm, launches, traced)
        if self.rank is not None and (DEBUG.level or traced):
            recorder_for(self.rank).add_iteration(self._last)
