"""Streams and timelines: the simulator's execution substrate.

A :class:`Stream` models an in-order executor (a CUDA stream, a Gloo
worker thread): operations run serially, each starting no earlier than
both its readiness time and the stream becoming free.  A
:class:`Timeline` owns several streams — one compute stream plus one or
more communication streams, matching DDP's "dedicated set of CUDA
streams for communication" (paper §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ScheduledOp:
    """One operation's placement on a stream."""

    label: str
    ready: float
    start: float
    end: float
    stream: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def queueing_delay(self) -> float:
        """Time spent ready but waiting for the stream."""
        return self.start - self.ready


class Stream:
    """A serial executor: ops run in submission order, back to back."""

    def __init__(self, name: str):
        self.name = name
        self.free_at = 0.0
        self.log: List[ScheduledOp] = []

    def schedule(self, label: str, ready: float, duration: float) -> ScheduledOp:
        """Place an op; returns its realized (start, end) window."""
        start = max(ready, self.free_at)
        op = ScheduledOp(label, ready, start, start + duration, self.name)
        self.free_at = op.end
        self.log.append(op)
        return op

    def busy_time(self) -> float:
        return sum(op.duration for op in self.log)

    def reset(self) -> None:
        self.free_at = 0.0
        self.log.clear()


class Timeline:
    """A set of named streams plus completion bookkeeping."""

    def __init__(self):
        self.streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        if name not in self.streams:
            self.streams[name] = Stream(name)
        return self.streams[name]

    def makespan(self) -> float:
        """Time at which every stream has drained."""
        ends = [s.free_at for s in self.streams.values() if s.log]
        return max(ends) if ends else 0.0

    def ops(self, stream_name: Optional[str] = None) -> List[ScheduledOp]:
        if stream_name is not None:
            return list(self.streams[stream_name].log)
        merged: List[ScheduledOp] = []
        for stream in self.streams.values():
            merged.extend(stream.log)
        return sorted(merged, key=lambda op: op.start)

    def reset(self) -> None:
        for stream in self.streams.values():
            stream.reset()
