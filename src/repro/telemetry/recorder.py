"""The reducer's single timing source of truth.

The :class:`Reducer` used to keep ad-hoc ``_t_prepare`` /
``_t_first_grad`` fields next to the telemetry clock.  This module
replaces both: an :class:`IterationRecorder` always captures the
handful of coarse per-iteration timestamps (a few ``perf_counter``
calls — cheap enough to stay on even with telemetry disabled, and the
source of ``Reducer.last_iteration_stats`` and ``ddp_stats()``), and
when telemetry *is* enabled the same timestamps are additionally
emitted as spans into the global tracer, so the numbers in
``last_iteration_stats`` and the intervals in an exported Chrome trace
can never disagree.

Phase model per synchronized iteration (paper Fig. 4 / Fig. 6):

```
prepare ──► first_grad ───────────► all_grads ──► done
   │  loss+early backward │ backward compute │ finalize: wait+copy-back
   └ bucket i: ready ► launch ► [comm start ── comm end]
```

The communication intervals come from the ``Work`` handles' records,
stamped with execution start/end times — by the process-group worker,
or for a split-phase bucket (under the size rule) at its post and at its
completion, so posted time counts as in flight; the
**overlap ratio** is the fraction of total AllReduce wall time hidden
inside the backward-compute window ``[first_grad, all_grads]``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.spans import TRACER


def work_interval(work) -> Optional[Tuple[float, float]]:
    """Execution interval stamped on a ``Work``'s record, if available.

    Communication hooks wrap the real handle (``_HookWork``); unwrap
    one level of ``_inner`` so compressed buckets still report comm
    time.  Returns ``None`` for handles that never executed.
    """
    for candidate in (work, getattr(work, "_inner", None)):
        record = getattr(candidate, "record", None)
        if record is not None and record.t_start is not None and record.t_end is not None:
            return (record.t_start, record.t_end)
    return None


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
        #: Extended stats of the last finished iteration (``ddp_stats``).
        self.last_detail: Dict[str, object] = {}

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
    def finish(self, bucket_works: Sequence[Tuple[int, object]]) -> Dict[str, float]:
        """Close the iteration; returns the legacy 4-phase stats dict.

        ``bucket_works`` pairs each bucket index with its ``Work``
        handle (or ``None``).  Extended per-bucket/overlap data is left
        in :attr:`last_detail`; when telemetry is enabled the phases,
        buckets, and the iteration envelope are emitted as spans.
        """
        t_done = time.perf_counter()
        t_first = self.t_first_grad if self.t_first_grad is not None else (
            self.t_all_grads if self.t_all_grads is not None else t_done
        )
        t_all = self.t_all_grads if self.t_all_grads is not None else t_done

        comm_intervals: List[Tuple[int, float, float]] = []
        for index, work in bucket_works:
            interval = work_interval(work) if work is not None else None
            if interval is not None:
                comm_intervals.append((index, interval[0], interval[1]))

        total_comm = sum(end - start for _, start, end in comm_intervals)
        hidden = sum(
            max(0.0, min(end, t_all) - max(start, t_first))
            for _, start, end in comm_intervals
        )
        overlap_ratio = (hidden / total_comm) if total_comm > 0 else 0.0

        stats = {
            # forward + loss + any pre-backward work since prepare()
            "prepare_to_first_grad": t_first - self.t_prepare,
            # local gradient computation window
            "backward_compute": t_all - t_first,
            # communication not hidden by backward compute
            "comm_exposed_wait": t_done - t_all,
            "total": t_done - self.t_prepare,
        }

        buckets_detail = []
        for index, start, end in comm_intervals:
            ready = self._ready.get(index)
            launched = self._launched.get(index)
            buckets_detail.append(
                {
                    "bucket": index,
                    "bytes": self._launch_bytes.get(index, 0),
                    "ready_to_launch_delay_s": (
                        launched - ready
                        if ready is not None and launched is not None
                        else 0.0
                    ),
                    "allreduce_latency_s": end - start,
                    # Raw perf_counter endpoints, so the critical-path
                    # profiler can re-derive hidden/exposed portions
                    # without loading a trace.
                    "comm_start": start,
                    "comm_end": end,
                }
            )
        self.last_detail = {
            "iteration": self.iteration,
            "phases": dict(stats),
            "comm_total_s": total_comm,
            "comm_hidden_s": hidden,
            "comm_compute_overlap_ratio": overlap_ratio,
            "buckets": buckets_detail,
            # Phase boundary timestamps (perf_counter seconds), the same
            # clock the span tracer uses.
            "timestamps": {
                "prepare": self.t_prepare,
                "first_grad": t_first,
                "all_grads": t_all,
                "done": t_done,
            },
        }

        if TRACER.enabled:
            self._emit_spans(t_first, t_all, t_done, overlap_ratio)
        return stats

    def _emit_spans(self, t_first: float, t_all: float, t_done: float,
                    overlap_ratio: float) -> None:
        from repro.telemetry.metrics import registry_for

        rank = self.rank
        iteration = self.iteration
        registry = registry_for(rank)
        delay_hist = registry.histogram("bucket.ready_to_launch_delay")
        for index, t_ready in self._ready.items():
            launched = self._launched.get(index)
            if launched is not None and launched >= t_ready:
                delay_hist.observe(launched - t_ready)
        registry.gauge("iteration.overlap_ratio").set(overlap_ratio)
        # History ring of the same ratio: the health engine's overlap-
        # collapse detector compares early vs late samples per rank.
        registry.histogram("iteration.overlap_ratio_dist").observe(overlap_ratio)
        registry.counter("iterations.synced").add(1)
        TRACER.record(
            f"iteration {iteration}", self.t_prepare, t_done,
            cat="iteration", stream="compute", rank=rank,
            args={"iteration": iteration, "overlap_ratio": round(overlap_ratio, 4)},
        )
        if t_first > self.t_prepare:
            TRACER.record(
                "prepare_to_first_grad", self.t_prepare, t_first,
                cat="compute", stream="compute", rank=rank, depth=1,
                args={"iteration": iteration},
            )
        if t_all > t_first:
            TRACER.record(
                "backward_compute", t_first, t_all,
                cat="compute", stream="compute", rank=rank, depth=1,
                args={"iteration": iteration},
            )
        TRACER.record(
            "finalize(wait+copy_back)", t_all, t_done,
            cat="compute", stream="compute", rank=rank, depth=1,
            args={"iteration": iteration},
        )
        for index, t_ready in self._ready.items():
            launched = self._launched.get(index)
            if launched is not None and launched >= t_ready:
                TRACER.record(
                    f"bucket {index} ready→launch", t_ready, launched,
                    cat="bucket", stream="compute", rank=rank, depth=2,
                    args={"iteration": iteration, "bucket": index,
                          "bytes": self._launch_bytes.get(index, 0)},
                )
