"""Per-collective efficiency accounting: achieved bandwidth and stalls.

The paper's bucket-size study (Figs. 7/8) and the IBM large-systems
work (arXiv:1711.00705) both rest on one number per collective: how
fast did it *actually* go, against how fast the α–β model says it
*could* go.  This module computes that number where the truth lives —
the thread that executed the collective (a process-group worker, or
the caller completing a split-phase one in ``wait()``) — and
publishes it as ordinary registry metrics, so the sampler, the
Prometheus exporter, and ``ddp_stats()["health"]`` all see it without
new plumbing:

* ``comm.collective_latency_s`` (histogram) — execution wall time.
* ``comm.achieved_busbw_gbps`` (histogram) — achieved *bus* bandwidth
  of AllReduce-family ops: ``2(p−1)/p · nbytes / t``, the NCCL-tests
  convention that makes numbers comparable across world sizes.
* ``comm.model_efficiency`` (histogram) — cost-model expected time over
  achieved time (1.0 = running exactly at the analytic expectation;
  recorded only for backends with a calibrated model).
* ``comm.chunk_pipeline_utilization`` (histogram) — fraction of the
  collective's wall time *not* spent blocked in ``recv``: 1.0 means the
  chunk pipeline kept data always in flight, 0.0 means pure waiting.
* ``comm.recv_stall_s`` / ``comm.recv_stall_s.from_rank_N`` (counters)
  — receive-wait seconds, total and attributed to the sending peer.
  The per-source split is the causal signal the anomaly detectors use:
  a straggling rank shows up as stall *from* it on every peer it feeds,
  a sick link as stall on exactly one (src → dst) edge.
* ``health.collectives_accounted`` (counter) — denominator for rates.

The stall attribution is collected by the collective algorithms
themselves (:func:`note_recv_stall` from a thread-local accumulator the
executing thread brackets with :func:`begin_collective` /
:func:`record_collective`) — a thread executes one collective at a time,
so accumulators never cross collectives.

Everything here is gated on telemetry being enabled *and* the health
kill switch (:func:`set_enabled`); while off, the hot path pays one
attribute check.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.telemetry.metrics import registry_for
from repro.telemetry.spans import TRACER

#: Health accounting kill switch (benchmarks measure its cost).
_ENABLED = True

_local = threading.local()


def set_enabled(enabled: bool) -> None:
    """Turn health accounting on or off globally."""
    global _ENABLED
    _ENABLED = bool(enabled)


def is_enabled() -> bool:
    """Whether the health layer records when telemetry is enabled."""
    return _ENABLED


def active() -> bool:
    """True when a bracketed collective is collecting on this thread.

    The algorithms' receive helper checks this one flag — cheaper than
    re-testing tracer + kill switch per chunk, and naturally False on
    threads (or calls) nobody bracketed.
    """
    return getattr(_local, "collecting", False)


def begin_collective() -> None:
    """Start stall collection for the collective about to run."""
    _local.collecting = True
    _local.stall_s = 0.0
    _local.stall_by_src = {}
    _local.chunks = 0


def note_recv_stall(src: int, seconds: float) -> None:
    """Attribute ``seconds`` of receive wait to sending rank ``src``."""
    if not getattr(_local, "collecting", False):
        return
    _local.stall_s += seconds
    by_src = _local.stall_by_src
    by_src[src] = by_src.get(src, 0.0) + seconds
    _local.chunks += 1


#: Ops whose payload crosses the bottleneck ~2(p−1)/p times (bus-bandwidth
#: convention applies); other ops report algorithm bandwidth (nbytes/t).
_BUS_BW_OPS = frozenset({"allreduce"})


def bus_bytes(op: str, nbytes: int, world: int) -> float:
    """Bytes that effectively crossed the bottleneck link."""
    if world <= 1:
        return 0.0
    if op in _BUS_BW_OPS:
        return 2.0 * (world - 1) / world * nbytes
    return float(nbytes)


#: Per-backend cost-model cache (False = backend has no model); this
#: runs once per collective, so the model lookup must not re-construct.
_model_cache: Dict[str, object] = {}


def expected_collective_s(backend: str, op: str, nbytes: int, world: int) -> Optional[float]:
    """Analytic α–β expectation for this collective, if a calibrated
    cost model exists for ``backend`` (None otherwise — e.g. mpi)."""
    if op != "allreduce" or nbytes <= 0 or world <= 1:
        return None
    model = _model_cache.get(backend)
    if model is None:
        try:
            from repro.simnet.cost_model import cost_model_for

            model = cost_model_for(backend)
        except (ValueError, ImportError):
            model = False
        _model_cache[backend] = model
    if model is False:
        return None
    return model.allreduce_time(nbytes, world)


class _RankInstruments:
    """Resolved instrument handles for one rank's health metrics.

    ``record_collective`` runs once per collective on the executing thread,
    where every lookup steals GIL time from overlapped backward compute
    — so the name-to-instrument resolution happens once per rank, not
    per collective.
    """

    __slots__ = ("registry", "accounted", "latency", "stall", "stall_from",
                 "utilization", "busbw", "efficiency", "chunks")

    def __init__(self, rank: int):
        self.registry = registry_for(rank)
        self.accounted = self.registry.counter("health.collectives_accounted")
        self.latency = self.registry.histogram("comm.collective_latency_s")
        self.stall = self.registry.counter("comm.recv_stall_s")
        self.stall_from: Dict[int, object] = {}
        self.utilization = self.registry.histogram(
            "comm.chunk_pipeline_utilization"
        )
        self.busbw = self.registry.histogram("comm.achieved_busbw_gbps")
        self.efficiency = self.registry.histogram("comm.model_efficiency")
        self.chunks = self.registry.counter("comm.chunks_received")

    def stall_from_counter(self, src: int):
        counter = self.stall_from.get(src)
        if counter is None:
            counter = self.registry.counter(f"comm.recv_stall_s.from_rank_{src}")
            self.stall_from[src] = counter
        return counter


_instruments: Dict[int, _RankInstruments] = {}
_instruments_lock = threading.Lock()


def _instruments_for(rank: int) -> _RankInstruments:
    handles = _instruments.get(rank)
    # The identity check invalidates stale handles after a registry
    # clear (telemetry.reset), so cached instruments can't silently
    # swallow writes meant for a fresh registry.
    if handles is None or handles.registry is not registry_for(rank):
        with _instruments_lock:
            handles = _RankInstruments(rank)
            _instruments[rank] = handles
    return handles


def record_collective(rank: int, record, world: int, backend: str) -> None:
    """Publish one finished collective's efficiency metrics.

    Called on the executing thread right after the collective
    function returned, with the collective's
    :class:`~repro.debug.flight_recorder.CollectiveRecord` (op,
    accounted bytes, start/end stamps); closes the stall collection
    :func:`begin_collective` opened on this thread.  A collective
    without a byte count (barrier) still accounts latency and stalls.
    """
    stall_s = getattr(_local, "stall_s", 0.0)
    stall_by_src = getattr(_local, "stall_by_src", {})
    chunks = getattr(_local, "chunks", 0)
    _local.collecting = False
    wall = max(0.0, record.t_end - record.t_start)
    op = record.op
    nbytes = record.bytes or 0
    handles = _instruments_for(rank)

    handles.accounted.add(1)
    handles.latency.observe(wall)
    if stall_s > 0.0:
        handles.stall.add(stall_s)
        for src, seconds in stall_by_src.items():
            handles.stall_from_counter(src).add(seconds)
    if wall > 0.0:
        utilization = min(1.0, max(0.0, 1.0 - stall_s / wall))
        handles.utilization.observe(utilization)
    if nbytes > 0 and wall > 0.0 and world > 1:
        busbw = bus_bytes(op, nbytes, world) / wall
        handles.busbw.observe(busbw / 1e9)
        expected = expected_collective_s(backend, op, nbytes, world)
        if expected is not None:
            # 1.0 = exactly at the model; << 1.0 = far slower than the
            # hardware expectation (the IBM sick-link signal).
            handles.efficiency.observe(min(expected / wall, 10.0))
    if chunks > 0:
        handles.chunks.add(chunks)


def collecting_enabled() -> bool:
    """One-line gate for instrumentation sites: telemetry + kill switch."""
    return TRACER.enabled and _ENABLED
