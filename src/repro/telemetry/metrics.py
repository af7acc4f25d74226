"""Per-rank metrics: counters, gauges, and histograms.

A :class:`MetricsRegistry` is a thread-safe bag of named instruments.
Each rank's registry is held by its flight-recorder ring
(:func:`registry_for`), the rank's one telemetry store, so dropping the
rings (``clear_recorders()``) drops the metrics with the records;
per-instrument locks keep concurrent ``add``/``observe`` calls exact.

Training writes no series: they are folded from the ring's retained
collective and iteration records when a registry is read
(:mod:`repro.telemetry.health.accounting`).  ``snapshot()`` runs that
fold, then freezes a registry into plain dicts, and
:func:`merge_snapshots` aggregates snapshots across ranks — the
cross-rank analog of Prometheus federation, scoped to one process:

* counters sum,
* gauges keep per-rank values plus min/max,
* histograms combine counts, sums, extrema, and recent samples.

Instrument names use dotted paths (``allreduce.bytes``,
``bucket.ready_to_launch_delay``); the catalog lives in
``docs/observability.md``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.debug.flight_recorder import all_recorders, recorder_for
from repro.utils.rank import get_current_rank

#: Recent samples kept per histogram for percentile estimation.
HISTOGRAM_SAMPLE_CAPACITY = 1024


def percentile_of(ordered: List[float], q: float) -> float:
    """q-th percentile (0..100) of pre-sorted samples, with linear
    interpolation between adjacent samples (numpy's default method).

    Nearest-rank truncation is fine for p50 over a thousand samples but
    systematically misstates tail percentiles over small pools — a p99
    over 10 samples must interpolate between the two largest, not snap
    to one of them.
    """
    if not ordered:
        raise ValueError("percentile of empty sample pool")
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    position = min(max(position, 0.0), float(len(ordered) - 1))
    lower = int(position)
    fraction = position - lower
    if fraction == 0.0 or lower + 1 >= len(ordered):
        return ordered[lower]
    return ordered[lower] + fraction * (ordered[lower + 1] - ordered[lower])


class Counter:
    """Monotonically increasing count (events, bytes, launches)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins instantaneous value (queue depth, bucket count)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming distribution: exact count/sum/min/max plus a bounded
    ring of recent samples for percentile estimates."""

    __slots__ = ("name", "_count", "_sum", "_min", "_max", "_samples", "_lock",
                 "_nan_ignored")

    def __init__(self, name: str, sample_capacity: int = HISTOGRAM_SAMPLE_CAPACITY):
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._samples: deque = deque(maxlen=sample_capacity)
        self._lock = threading.Lock()
        self._nan_ignored = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:
            # A single NaN would otherwise poison sum/min/max and every
            # percentile forever; drop it but keep an audit count.
            with self._lock:
                self._nan_ignored += 1
            return
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._samples.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def nan_ignored(self) -> int:
        """Observations dropped by the NaN guard (monotonic)."""
        return self._nan_ignored

    def percentile(self, q: float) -> Optional[float]:
        """Interpolated q-th percentile (0..100) from recent samples."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return None
        return percentile_of(samples, q)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
            samples = list(self._samples)
        if count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0, "samples": []}
        ordered = sorted(samples)
        if not ordered:
            # Count moved but the sample ring is empty (possible only
            # with a zero-capacity ring): percentiles are unknowable,
            # serve the mean rather than raising.
            mean = total / count
            return {"count": count, "sum": total, "min": lo, "max": hi,
                    "mean": mean, "p50": mean, "p95": mean, "p99": mean,
                    "samples": []}
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": total / count,
            "p50": percentile_of(ordered, 50),
            "p95": percentile_of(ordered, 95),
            "p99": percentile_of(ordered, 99),
            "samples": samples,
        }


class MetricsRegistry:
    """Get-or-create instrument registry for one rank."""

    def __init__(self, rank: Optional[int] = None):
        self.rank = rank
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, requested {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()

    def snapshot(self) -> Dict[str, Dict]:
        """Freeze into plain dicts: {'counters': {name: value}, ...}.

        The rank's registry first folds in the series its retained
        records imply and no read has published yet
        (:func:`repro.telemetry.health.accounting.fold`) — every reader
        goes through here, so every reader sees them.
        """
        ring = all_recorders().get(self.rank)
        if ring is not None and ring.metrics is self:
            from repro.telemetry.health.accounting import fold

            fold(ring)
        with self._lock:
            instruments = dict(self._instruments)
        out: Dict[str, Dict] = {"rank": self.rank, "counters": {}, "gauges": {},
                                "histograms": {}}
        for name, instrument in sorted(instruments.items()):
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.value
            elif isinstance(instrument, Histogram):
                out["histograms"][name] = instrument.summary()
        return out


def registry_for(rank: Optional[int] = None) -> MetricsRegistry:
    """The registry ``rank``'s ring holds (default: calling thread's
    rank per :mod:`repro.utils.rank`; ``-1`` outside any rank context)."""
    if rank is None:
        current = get_current_rank()
        rank = current if current is not None else -1
    return recorder_for(rank).metrics


def all_snapshots() -> List[Dict[str, Dict]]:
    """Snapshot every ring's registry, ordered by rank."""
    return [ring.metrics.snapshot() for _, ring in sorted(all_recorders().items())]


def merge_snapshots(snapshots: Iterable[Dict[str, Dict]]) -> Dict[str, Dict]:
    """Aggregate per-rank snapshots into one cross-rank view.

    Histograms are merged at the **sample-pool** level: every rank's
    retained samples join one pool and the cross-rank p50/p95/p99 are
    interpolated over that pool — a cross-rank p99 computed from data,
    never an average of per-rank percentiles (which would understate the
    tail whenever one rank is the slow one).  ``samples_pooled`` reports
    how many samples backed the estimate.

    Snapshots need not share a metric keyset: a rank that died mid-run
    (shrink recovery) or never reached a code path simply contributes
    nothing to the metrics it lacks, and partial histogram summaries
    (e.g. without a sample list) merge on whatever fields they carry.
    """
    merged: Dict[str, Dict] = {"ranks": [], "counters": {}, "gauges": {},
                               "histograms": {}}
    for snap in snapshots:
        merged["ranks"].append(snap.get("rank"))
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        for name, value in snap.get("gauges", {}).items():
            entry = merged["gauges"].setdefault(
                name, {"per_rank": {}, "min": float("inf"), "max": float("-inf")}
            )
            entry["per_rank"][snap.get("rank")] = value
            entry["min"] = min(entry["min"], value)
            entry["max"] = max(entry["max"], value)
        for name, summary in snap.get("histograms", {}).items():
            if not isinstance(summary, dict):
                continue
            entry = merged["histograms"].setdefault(
                name,
                {"count": 0, "sum": 0.0, "min": float("inf"),
                 "max": float("-inf"), "samples": []},
            )
            count = summary.get("count", 0)
            entry["count"] += count
            entry["sum"] += summary.get("sum", 0.0)
            if count:
                entry["min"] = min(entry["min"], summary.get("min", float("inf")))
                entry["max"] = max(entry["max"], summary.get("max", float("-inf")))
            entry["samples"].extend(summary.get("samples", []))
    for entry in merged["histograms"].values():
        entry["mean"] = entry["sum"] / entry["count"] if entry["count"] else 0.0
        ordered = sorted(entry.pop("samples"))
        entry["samples_pooled"] = len(ordered)
        if ordered:
            entry["p50"] = percentile_of(ordered, 50)
            entry["p95"] = percentile_of(ordered, 95)
            entry["p99"] = percentile_of(ordered, 99)
        else:
            entry["p50"] = entry["p95"] = entry["p99"] = 0.0
        if entry["count"] == 0:
            entry["min"] = entry["max"] = 0.0
    return merged
