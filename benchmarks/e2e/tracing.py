"""Benchmark-side spans: recorded around calls into each layer, from outside.

Nothing under ``src/`` knows about these spans.  One :class:`Tracer` per
rank thread records ``(name, start, end, parent, rank, iteration)``; the
collective methods of the group instance handed to the wrapper are
replaced by instance-level wrappers (``comm.submit``), and
``Work.wait`` is wrapped for the duration of the traced pass
(``comm.wait``) so that the wait hidden inside a synchronous collective
is seen as a child of its submit span.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List

from repro.comm import Work

#: Public collective entry points of ``ProcessGroup`` that get a
#: ``comm.submit`` span and a call count.
COLLECTIVES = (
    "allreduce", "broadcast", "allgather", "reduce_scatter",
    "reduce_scatter_flat", "all_gather_flat", "reduce", "gather",
    "scatter", "barrier",
)

_thread = threading.local()


class Tracer:
    """Span recorder of one rank thread (not shared between threads)."""

    def __init__(self, rank: int):
        self.rank = rank
        self.iteration = -1
        self.spans: List[list] = []  # [name, start, end, parent, rank, iteration]
        self._stack: List[int] = []
        self.calls = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rank, self.iteration])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()


class NullTracer:
    """The timed window's tracer: no spans, no clock reads."""

    iteration = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def trace_collectives(group, tracer: Tracer) -> None:
    """Wrap ``group``'s public collective methods at instance level."""

    def wrap(method):
        def traced(*args, **kwargs):
            tracer.calls += 1
            with tracer.span("comm.submit"):
                return method(*args, **kwargs)

        return traced

    for name in COLLECTIVES:
        setattr(group, name, wrap(getattr(group, name)))


def untrace_collectives(group) -> None:
    """Drop the instance-level wrappers; the class methods show again."""
    for name in COLLECTIVES:
        vars(group).pop(name, None)


@contextlib.contextmanager
def traced_waits():
    """Record ``Work.wait`` as ``comm.wait`` on threads that hold a tracer.

    Enter before the traced pass starts on any rank and leave after all
    ranks finished it; comm-worker threads hold no tracer and pass through.
    """
    original = Work.wait

    def wait(self, timeout=None):
        tracer = getattr(_thread, "tracer", None)
        if tracer is None:
            return original(self, timeout)
        with tracer.span("comm.wait"):
            return original(self, timeout)

    Work.wait = wait
    try:
        yield
    finally:
        Work.wait = original


def bind_tracer(tracer) -> None:
    """Make ``tracer`` (or None) the calling thread's wait recorder."""
    _thread.tracer = tracer


def self_times(spans: List[list]) -> Dict[int, Dict[str, float]]:
    """Per iteration, seconds of self time by span name for one rank.

    Self time is a span's duration minus what its direct children cover
    (children of one thread never overlap, so the cover is their sum).
    """
    child_cover = defaultdict(float)
    for name, start, end, parent, _rank, _iteration in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    per_iteration: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, _parent, _rank, iteration) in enumerate(spans):
        per_iteration[iteration][name] += (end - start) - child_cover[index]
    return per_iteration


def write_trace(path: str, workload: str, tracers: List[Tracer]) -> None:
    """One JSON file: every span of every rank, parents as indices into
    the same rank's list (-1 = top level)."""
    payload = {
        "workload": workload,
        "fields": ["name", "start_s", "end_s", "parent", "rank", "iteration"],
        "ranks": {str(t.rank): t.spans for t in tracers},
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)
