"""Low-overhead span tracing for real (non-simulated) runs.

A *span* is one timed interval on one rank's timeline — a forward pass,
a bucket AllReduce executing on the communication worker, a blocked
transport ``recv``.  Spans land in per-rank ring buffers (bounded
memory, oldest dropped first) and are exported to the Chrome Trace
Event Format by :mod:`repro.telemetry.chrome_trace`.

Design constraints, in order:

1. **Disabled cost ≈ zero.**  Tracing is off unless ``enable()`` was
   called (or ``REPRO_TELEMETRY=1`` at import).  Every entry point
   checks one attribute and the context-manager form returns a shared
   no-op span, so the hot autograd/collective paths pay one branch.
2. **Thread safety.**  Rank threads and their communication workers
   record concurrently; the buffer append holds one short lock.
3. **Comparable clocks.**  All ranks are threads of one process, so
   ``time.perf_counter()`` timestamps are directly comparable across
   ranks — measured timelines align in Perfetto without clock sync.

Rank attribution defaults to the calling thread's rank contextvar
(:mod:`repro.utils.rank`); spans recorded outside any rank context land
on rank ``-1``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.utils.rank import get_current_rank

#: Spans retained per rank before the ring buffer drops the oldest.
DEFAULT_RING_CAPACITY = 65536


class SpanRecord:
    """One completed span (times in seconds from ``perf_counter``)."""

    __slots__ = ("name", "cat", "stream", "rank", "t_start", "t_end", "depth", "args")

    def __init__(self, name, cat, stream, rank, t_start, t_end, depth, args):
        self.name = name
        self.cat = cat
        self.stream = stream
        self.rank = rank
        self.t_start = t_start
        self.t_end = t_end
        self.depth = depth
        self.args = args

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __repr__(self) -> str:
        return (
            f"<SpanRecord {self.name!r} rank={self.rank} stream={self.stream} "
            f"[{self.t_start:.6f}, {self.t_end:.6f}] depth={self.depth}>"
        )


class _NullSpan:
    """Shared no-op returned by ``span()``/``begin()`` while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def end(self) -> None:
        pass

    def set(self, **args) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """A live span: either used as a context manager or closed with
    :meth:`end` (the explicit begin/end form for non-lexical scopes)."""

    __slots__ = ("_tracer", "name", "cat", "stream", "rank", "args",
                 "t_start", "_depth", "_closed")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, stream: str,
                 rank: Optional[int], args: Optional[dict]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.stream = stream
        self.rank = rank if rank is not None else _resolve_rank()
        self.args = args
        self._depth = tracer._push()
        self._closed = False
        self.t_start = time.perf_counter()

    def set(self, **args) -> "Span":
        """Attach/extend span arguments (visible in the trace viewer)."""
        if self.args is None:
            self.args = {}
        self.args.update(args)
        return self

    def end(self) -> None:
        if self._closed:
            return
        self._closed = True
        t_end = time.perf_counter()
        self._tracer._pop()
        self._tracer.record(
            self.name, self.t_start, t_end, cat=self.cat, stream=self.stream,
            rank=self.rank, args=self.args, depth=self._depth,
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self.end()
        return False


def _resolve_rank() -> int:
    rank = get_current_rank()
    return rank if rank is not None else -1


class SpanTracer:
    """Per-rank ring buffers of :class:`SpanRecord`."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        self.enabled = False
        self.capacity = capacity
        self._lock = threading.Lock()
        self._buffers: Dict[int, deque] = {}
        self._tls = threading.local()

    # -- nesting depth (per thread) ------------------------------------
    def _push(self) -> int:
        depth = getattr(self._tls, "depth", 0)
        self._tls.depth = depth + 1
        return depth

    def _pop(self) -> None:
        self._tls.depth = max(0, getattr(self._tls, "depth", 1) - 1)

    # -- recording ------------------------------------------------------
    def record(
        self,
        name: str,
        t_start: float,
        t_end: float,
        *,
        cat: str = "compute",
        stream: str = "compute",
        rank: Optional[int] = None,
        args: Optional[dict] = None,
        depth: Optional[int] = None,
    ) -> None:
        """Append a completed span; a no-op while the tracer is disabled.

        ``t_start``/``t_end`` are ``perf_counter`` seconds, so callers
        may stamp times early and record retroactively (a checkpoint
        save records its span once the write has landed).
        """
        if not self.enabled:
            return
        if rank is None:
            rank = _resolve_rank()
        if depth is None:
            depth = getattr(self._tls, "depth", 0)
        record = SpanRecord(name, cat, stream, rank, t_start, t_end, depth, args)
        with self._lock:
            buffer = self._buffers.get(rank)
            if buffer is None:
                buffer = deque(maxlen=self.capacity)
                self._buffers[rank] = buffer
            buffer.append(record)

    def span(self, name: str, cat: str = "compute", stream: str = "compute",
             rank: Optional[int] = None, **args):
        """Context manager measuring the enclosed block; no-op if disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, stream, rank, args or None)

    def begin(self, name: str, cat: str = "compute", stream: str = "compute",
              rank: Optional[int] = None, **args):
        """Explicit-form start; caller must invoke ``.end()``."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, stream, rank, args or None)

    # -- introspection ---------------------------------------------------
    def ranks(self) -> List[int]:
        with self._lock:
            return sorted(self._buffers)

    def spans(self, rank: Optional[int] = None) -> List[SpanRecord]:
        """Recorded spans, oldest first (one rank, or all interleaved)."""
        with self._lock:
            if rank is not None:
                return list(self._buffers.get(rank, ()))
            merged: List[SpanRecord] = []
            for buffer in self._buffers.values():
                merged.extend(buffer)
        merged.sort(key=lambda s: s.t_start)
        return merged

    def span_count(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buffers.values())

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()


#: The process-wide tracer every instrumentation site checks.
TRACER = SpanTracer()


def get_tracer() -> SpanTracer:
    return TRACER


def is_enabled() -> bool:
    return TRACER.enabled


def enable() -> None:
    """Turn on span + metric recording (idempotent)."""
    TRACER.enabled = True


def disable() -> None:
    """Stop recording; already-captured spans remain until ``reset()``."""
    TRACER.enabled = False


def span(name: str, cat: str = "compute", stream: str = "compute",
         rank: Optional[int] = None, **args):
    """Module-level shorthand for ``get_tracer().span(...)``."""
    if not TRACER.enabled:
        return NULL_SPAN
    return Span(TRACER, name, cat, stream, rank, args or None)


def begin(name: str, cat: str = "compute", stream: str = "compute",
          rank: Optional[int] = None, **args):
    """Module-level shorthand for ``get_tracer().begin(...)``."""
    if not TRACER.enabled:
        return NULL_SPAN
    return Span(TRACER, name, cat, stream, rank, args or None)
