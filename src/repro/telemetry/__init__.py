"""Observability for real (non-simulated) distributed runs.

The paper's whole evaluation (§6, Figs. 2/6/8) is an exercise in seeing
where an iteration's time goes — backward compute, bucket AllReduce,
and the exposed tail where the two fail to overlap.  The simulator
could always draw that picture; this package draws it for the *real*
threaded ``Reducer``/``ProcessGroup`` path:

* :mod:`~repro.telemetry.metrics` — per-rank counters/gauges/histograms
  with snapshot + cross-rank merge (``allreduce.bytes``,
  ``bucket.ready_to_launch_delay``, ``bucket.launches``, ...), each
  folded from the rank's ring when read; training writes none.
* :mod:`~repro.telemetry.recorder` — the reducer's one record per
  iteration: the phase stamps and per-bucket ready→launch→comm
  intervals, served as the ``IterationProfile`` that ``ddp_stats()``
  and the critical-path profiler read.
* :mod:`~repro.telemetry.chrome_trace` — measured-timeline export in
  the Trace Event Format (one ``pid`` per rank, compute vs. comm
  ``tid`` rows), directly comparable with the simulator's exporter.
  It reads only the per-rank flight-recorder rings
  (:mod:`repro.debug.flight_recorder`): collective records, finished
  iterations and incidents (resilience and checkpoint events)
  are the one event model every view draws from.

Each rank has one telemetry store, its ring: it holds the records and
the rank's metrics registry, so :func:`reset` drops both together.

Telemetry is **off by default** and costs one attribute check
(``DEBUG.telemetry``, beside ``DEBUG.level`` in
:mod:`repro.debug.levels`) per instrumentation site while off.  Turn it
on with::

    from repro import telemetry
    telemetry.enable()              # or REPRO_TELEMETRY=1 in the env

    ... run training ...

    telemetry.export_chrome_trace("trace.json")   # open in Perfetto
    print(telemetry.merge_snapshots(telemetry.all_snapshots()))

See ``docs/observability.md`` for the metric catalog and a trace
walkthrough.
"""

from __future__ import annotations

from repro.debug.flight_recorder import clear_recorders
from repro.debug.levels import DEBUG
from repro.telemetry.chrome_trace import export_chrome_trace, trace_events
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    all_snapshots,
    merge_snapshots,
    registry_for,
)
from repro.telemetry.recorder import IterationRecorder, work_interval
from repro.telemetry import health
from repro.telemetry.health import (
    Diagnosis,
    analyze_dumps,
    health_report,
    merge_causal_timeline,
    render_diagnoses,
    seq_frontier,
)
from repro.telemetry.observatory import (
    CriticalPathProfiler,
    IterationProfile,
    PrometheusExporter,
    prometheus_text,
    start_exporter,
)
from repro.telemetry.observatory.exporter import maybe_start_from_env


def is_enabled() -> bool:
    return DEBUG.telemetry


def enable() -> None:
    """Turn on telemetry recording (idempotent)."""
    DEBUG.telemetry = True


def disable() -> None:
    """Stop recording; what was captured remains until ``reset()``."""
    DEBUG.telemetry = False


def reset() -> None:
    """Drop every rank's ring: its metrics, retained collective records,
    retained iterations and incidents (enabled state unchanged)."""
    clear_recorders()


__all__ = [
    "Counter",
    "CriticalPathProfiler",
    "Diagnosis",
    "Gauge",
    "Histogram",
    "IterationProfile",
    "IterationRecorder",
    "MetricsRegistry",
    "PrometheusExporter",
    "all_snapshots",
    "analyze_dumps",
    "disable",
    "enable",
    "export_chrome_trace",
    "health",
    "health_report",
    "is_enabled",
    "maybe_start_from_env",
    "merge_causal_timeline",
    "merge_snapshots",
    "prometheus_text",
    "registry_for",
    "render_diagnoses",
    "reset",
    "seq_frontier",
    "start_exporter",
    "trace_events",
    "work_interval",
]

# REPRO_TELEMETRY=1 turned DEBUG.telemetry on when repro.debug.levels was
# imported.  REPRO_METRICS_PORT=<port> serves /metrics for the whole run
# (and implies telemetry on — a scrape endpoint without data is useless).
maybe_start_from_env()
