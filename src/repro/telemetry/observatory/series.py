"""Bounded time series of sampled metric values.

A :class:`MetricSeries` is the unit the sampler writes and its
readers query: one named stream of :class:`SeriesPoint` entries, ring
bounded so an always-on sampler can never grow without limit.  Points
carry the sampler's *generation* (a monotonically increasing tick
counter) so ordered comparisons — "the latency stepped up at
generation 12" — do not depend on wall-clock arithmetic.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Union

#: Points retained per series before the ring drops the oldest.
DEFAULT_SERIES_CAPACITY = 512

#: A point's value: a scalar (counter/gauge) or a summary dict
#: (histogram: count/sum/mean/min/max/p50/p95/p99).
Value = Union[float, Dict[str, float]]


class SeriesPoint(NamedTuple):
    """One sampled value: (generation, wall-clock seconds, value)."""

    generation: int
    time: float
    value: Value


class MetricSeries:
    """Ring-bounded stream of sampled values for one (metric, scope).

    ``rank`` is the owning rank for per-rank series and ``None`` for
    the cross-rank aggregate series.  ``kind`` names the source
    instrument (``counter`` / ``gauge`` / ``histogram``) so consumers
    can interpret the value shape without guessing.
    """

    __slots__ = ("name", "kind", "rank", "_points")

    def __init__(self, name: str, kind: str, rank: Optional[int] = None,
                 capacity: int = DEFAULT_SERIES_CAPACITY):
        self.name = name
        self.kind = kind
        self.rank = rank
        self._points: deque = deque(maxlen=capacity)

    def append(self, point: SeriesPoint) -> None:
        self._points.append(point)

    def points(self) -> List[SeriesPoint]:
        """All retained points, oldest first."""
        return list(self._points)

    def values(self) -> List[Value]:
        return [p.value for p in self._points]

    def latest(self) -> Optional[SeriesPoint]:
        return self._points[-1] if self._points else None

    def at_generation(self, generation: int) -> Optional[SeriesPoint]:
        """The point sampled at ``generation``, if still retained."""
        for point in reversed(self._points):
            if point.generation == generation:
                return point
            if point.generation < generation:
                break
        return None

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        scope = "aggregate" if self.rank is None else f"rank {self.rank}"
        return (
            f"<MetricSeries {self.name!r} [{self.kind}, {scope}] "
            f"{len(self._points)} points>"
        )
