"""The fold: metric series derived from the retained records at read.

The paper's bucket-size study (Figs. 7/8) and the IBM large-systems
work (arXiv:1711.00705) both rest on one number per collective: how
fast did it *actually* go, against how fast the α–β model says it
*could* go.  Training writes no such number.  With telemetry on the
hot path only appends: the rank's ring keeps every collective's
:class:`~repro.debug.flight_recorder.CollectiveRecord` (its executing
thread adds the receive waits, per sending rank, as ``record.stalls``)
and every synchronized iteration's stamps.  A read —
``MetricsRegistry.snapshot()``, hence every Prometheus scrape,
``dump_all()`` and so ``health_report()`` and ``dump_json`` —
runs :func:`fold`, which publishes what no read has taken yet into the
rank's registry, so counters stay cumulative.  Per collective:
``comm.collective_latency_s``; ``comm.achieved_busbw_gbps``
(:func:`bus_bytes` over wall time, the NCCL-tests convention) and
``comm.model_efficiency`` (:func:`expected_collective_s` of the
algorithm that ran over wall time), neither for a failed collective, whose bytes may never have
moved; ``comm.chunk_pipeline_utilization`` (the share of wall time not
blocked in ``recv``); ``comm.recv_stall_s`` and
``comm.recv_stall_s.from_rank_N`` — the per-source split the anomaly
detectors attribute stragglers and sick links with; ``{op}.count`` /
``{op}.bytes``; ``health.collectives_accounted``.  Per iteration:
``iterations.synced``, ``iteration.overlap_ratio`` (the latest),
``iteration.overlap_ratio_dist``, ``bucket.launches`` and
``bucket.ready_to_launch_delay``.
Records the ring dropped before any read took them count as
``health.collectives_unaccounted``; dropped iterations still count as
synced.  Only what ran with telemetry on is folded — a record executed
with it off has no ``stalls``, an iteration finished with it off is
not ``traced`` — even when ``REPRO_DEBUG`` retains them.
``docs/observability.md`` has the catalog.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Dict, Optional

from repro.simnet.cost_model import CollectiveCostModel, cost_model_for

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


@functools.lru_cache(maxsize=None)
def _cost_model(backend: str) -> Optional[CollectiveCostModel]:
    """``backend``'s cost model, built once (None without a calibrated
    row, e.g. mpi)."""
    try:
        return cost_model_for(backend)
    except ValueError:
        return None


def expected_collective_s(
    backend: str, op: str, nbytes: int, world: int, algorithm: str = "ring"
) -> Optional[float]:
    """Analytic α–β expectation for this collective run as
    ``algorithm`` (the record's fact: ``naive`` under the size rule,
    ``ring`` above it), if a calibrated cost model exists for
    ``backend`` (None otherwise — e.g. mpi)."""
    if op != "allreduce" or nbytes <= 0 or world <= 1:
        return None
    model = _cost_model(backend)
    if model is None:
        return None
    return model.allreduce_time(nbytes, world, algorithm=algorithm)


def fold(ring) -> None:
    """Publish ``ring``'s not-yet-folded records into its registry
    (``ring.metrics``).

    Runs under the ring's fold lock, so concurrent readers (an
    exporter scrape, rank threads in ``health_report()``, a dump)
    publish each record exactly once, and a reader that waited finds the
    other's results in place.
    """
    with ring.fold_lock:
        registry = ring.metrics
        records, iterations, lost, lost_iterations = ring.unfolded()
        if lost:
            registry.counter("health.collectives_unaccounted").add(lost)
        if records:
            _fold_collectives(registry, records)
        if iterations or lost_iterations:
            _fold_iterations(registry, iterations, lost_iterations)


def _fold_collectives(registry, records) -> None:
    latency = registry.histogram("comm.collective_latency_s")
    utilization = registry.histogram("comm.chunk_pipeline_utilization")
    busbw = registry.histogram("comm.achieved_busbw_gbps")
    efficiency = registry.histogram("comm.model_efficiency")
    # Counter increments are summed first, so a fold takes each
    # counter's lock once however many records it publishes.
    sums: Dict[str, float] = defaultdict(float)
    for record in records:
        wall = max(0.0, record.t_end - record.t_start)
        op, nbytes = record.op, record.bytes or 0
        world = record.extra.get("world", 1)
        latency.observe(wall)
        stall_s = sum(record.stalls.values())
        if stall_s > 0.0:
            sums["comm.recv_stall_s"] += stall_s
            for src, seconds in record.stalls.items():
                sums[f"comm.recv_stall_s.from_rank_{src}"] += seconds
        if wall > 0.0:
            utilization.observe(min(1.0, max(0.0, 1.0 - stall_s / wall)))
        if record.error is None and nbytes > 0 and wall > 0.0 and world > 1:
            busbw.observe(bus_bytes(op, nbytes, world) / wall / 1e9)
            expected = expected_collective_s(
                record.extra.get("backend"), op, nbytes, world,
                record.extra.get("algorithm", "ring"),
            )
            if expected is not None:
                # 1.0 = exactly at the model; << 1.0 = far slower than the
                # hardware expectation (the IBM sick-link signal).
                efficiency.observe(min(expected / wall, 10.0))
        if record.bytes is not None:
            sums[f"{op}.count"] += 1
            sums[f"{op}.bytes"] += record.bytes
    sums["health.collectives_accounted"] = len(records)
    for name, value in sums.items():
        registry.counter(name).add(value)


def _fold_iterations(registry, iterations, lost) -> None:
    registry.counter("iterations.synced").add(len(iterations) + lost)
    registry.counter("bucket.launches").add(
        sum(len(stamps.launches) for stamps in iterations))
    delay = registry.histogram("bucket.ready_to_launch_delay")
    overlap = registry.histogram("iteration.overlap_ratio_dist")
    ratio = None
    for stamps in iterations:
        for ready, launched in stamps.launches.values():
            if launched >= ready:
                delay.observe(launched - ready)
        # The history ring of the ratio feeds the overlap-collapse
        # detector (early vs late samples per rank).
        ratio = stamps.comm_split()[2]
        overlap.observe(ratio)
    if ratio is not None:
        registry.gauge("iteration.overlap_ratio").set(ratio)
