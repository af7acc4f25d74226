"""Background metrics sampling into bounded time series.

The :class:`MetricsSampler` is the observatory's clock: every
``interval`` seconds it freezes each rank's
:class:`~repro.telemetry.metrics.MetricsRegistry` (the same
``snapshot()`` path ``ddp_stats`` uses), folds the snapshots into a
cross-rank aggregate, and appends one point per metric to ring-bounded
:class:`~repro.telemetry.observatory.series.MetricSeries`:

* per-rank series — the raw counter/gauge value, or the histogram
  summary (count/sum/mean/min/max + interpolated p50/p95/p99);
* aggregate series (``rank=None``) — counters and gauges reduced to
  ``{sum, min, max, mean}`` across ranks; histograms merged at the
  sample-pool level so the aggregate p99 is computed from pooled data,
  never from averaged per-rank percentiles.

Each tick also lands in a bounded tick log that :meth:`dump_jsonl`
writes as one JSON object per line — the offline-analysis twin of the
Prometheus exporter's live scrape.

Overhead: sampling is O(instruments) dict work on a daemon thread; at
the default 100 ms interval it stays far below 1% of a DDP iteration
(``bench_hotpath.py`` measures exactly this and fails above 10 %).
Samplers started with :meth:`start` register themselves so
distributed-context teardown can :func:`flush_active_samplers` — the
final partial tick is captured even when the run ends between ticks.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.telemetry import metrics as _metrics
from repro.telemetry.observatory.series import (
    DEFAULT_SERIES_CAPACITY,
    MetricSeries,
    SeriesPoint,
)

#: Snapshot cadence (seconds) — 10 Hz, two orders below iteration rate.
DEFAULT_INTERVAL = 0.1

_HIST_FIELDS = ("count", "sum", "mean", "min", "max", "p50", "p95", "p99")

# Samplers currently running (started, not stopped); weak so an
# abandoned sampler does not outlive its references.
_active: "weakref.WeakSet[MetricsSampler]" = weakref.WeakSet()
_active_lock = threading.Lock()


def flush_active_samplers() -> int:
    """Take a final sample on every running sampler (teardown hook).

    Called by ``DistributedContext.close()`` so the tail of a run is
    recorded even if it ended mid-interval.  A sampler that ticked
    within the last half interval is skipped, so the multiple rank
    threads of one harness teardown do not each append a tick.
    Returns the number of samplers flushed.
    """
    with _active_lock:
        samplers = list(_active)
    flushed = 0
    for sampler in samplers:
        if sampler.flush():
            flushed += 1
    return flushed


class MetricsSampler:
    """Periodic snapshot → series pipeline with cross-rank aggregation.

    Use as a background thread (``start()``/``stop()``) or drive ticks
    manually with :meth:`sample_once` for deterministic tests.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_SERIES_CAPACITY,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.capacity = capacity
        self.generation = -1
        self._series: Dict[Tuple[Optional[int], str], MetricSeries] = {}
        self._ticks: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_sample_at = float("-inf")

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MetricsSampler":
        """Begin sampling on a daemon thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="metrics-sampler", daemon=True
        )
        self._thread.start()
        with _active_lock:
            _active.add(self)
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def stop(self, timeout: float = 1.0, final_sample: bool = True) -> None:
        """Stop the thread; by default records one last tick."""
        self._stop.set()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=timeout)
        self._thread = None
        with _active_lock:
            _active.discard(self)
        if final_sample:
            self.sample_once()

    def flush(self) -> bool:
        """Sample now unless a tick landed within the last half interval."""
        if time.perf_counter() - self._last_sample_at < self.interval / 2.0:
            return False
        self.sample_once()
        return True

    # -- sampling --------------------------------------------------------
    def sample_once(self) -> int:
        """Take one tick; returns the tick's generation number."""
        snapshots = _metrics.all_snapshots()
        merged = _metrics.merge_snapshots(snapshots)
        now = time.time()
        self._last_sample_at = time.perf_counter()
        with self._lock:
            self.generation += 1
            generation = self.generation
            for snap in snapshots:
                rank = snap.get("rank")
                for name, value in snap.get("counters", {}).items():
                    self._append(rank, name, "counter", generation, now, value)
                for name, value in snap.get("gauges", {}).items():
                    self._append(rank, name, "gauge", generation, now, value)
                for name, summary in snap.get("histograms", {}).items():
                    self._append(
                        rank, name, "histogram", generation, now,
                        {k: summary[k] for k in _HIST_FIELDS if k in summary},
                    )
            aggregate = self._aggregate(snapshots, merged)
            for name, (kind, value) in aggregate.items():
                self._append(None, name, kind, generation, now, value)
            self._ticks.append(
                {
                    "generation": generation,
                    "time_unix": now,
                    "ranks": merged.get("ranks", []),
                    "aggregate": {name: value for name, (_, value) in aggregate.items()},
                    "per_rank": [
                        {
                            "rank": snap.get("rank"),
                            "counters": dict(snap.get("counters", {})),
                            "gauges": dict(snap.get("gauges", {})),
                            "histograms": {
                                name: {k: s[k] for k in _HIST_FIELDS if k in s}
                                for name, s in snap.get("histograms", {}).items()
                            },
                        }
                        for snap in snapshots
                    ],
                }
            )
        return generation

    def _append(self, rank, name, kind, generation, now, value) -> None:
        key = (rank, name)
        series = self._series.get(key)
        if series is None:
            series = MetricSeries(name, kind, rank, capacity=self.capacity)
            self._series[key] = series
        series.append(SeriesPoint(generation, now, value))

    @staticmethod
    def _aggregate(snapshots, merged) -> Dict[str, Tuple[str, Dict[str, float]]]:
        """Cross-rank per-tick reduction of one round of snapshots."""
        out: Dict[str, Tuple[str, Dict[str, float]]] = {}
        for kind_key, kind in (("counters", "counter"), ("gauges", "gauge")):
            per_name: Dict[str, List[float]] = {}
            for snap in snapshots:
                for name, value in snap.get(kind_key, {}).items():
                    per_name.setdefault(name, []).append(value)
            for name, values in per_name.items():
                out[name] = (
                    kind,
                    {
                        "sum": sum(values),
                        "min": min(values),
                        "max": max(values),
                        "mean": sum(values) / len(values),
                        "ranks": len(values),
                    },
                )
        for name, entry in merged.get("histograms", {}).items():
            out[name] = (
                "histogram",
                {k: entry[k] for k in _HIST_FIELDS if k in entry},
            )
        return out

    # -- queries ---------------------------------------------------------
    def series(self, name: str, rank: Optional[int] = None) -> Optional[MetricSeries]:
        """The series for ``name`` (``rank=None`` = cross-rank aggregate)."""
        with self._lock:
            return self._series.get((rank, name))

    def series_names(self) -> List[str]:
        with self._lock:
            return sorted({name for _, name in self._series})

    def all_series(self) -> List[MetricSeries]:
        with self._lock:
            return list(self._series.values())

    def ticks(self) -> List[dict]:
        """Retained tick records, oldest first (JSON-serializable)."""
        with self._lock:
            return list(self._ticks)

    # -- export ----------------------------------------------------------
    def dump_jsonl(self, path: str) -> str:
        """Write one JSON object per retained tick; returns the path."""
        ticks = self.ticks()
        with open(path, "w") as handle:
            for tick in ticks:
                handle.write(json.dumps(tick))
                handle.write("\n")
        return path
