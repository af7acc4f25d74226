"""The performance observatory: continuous, queryable telemetry.

``repro.telemetry`` captures point-in-time evidence — a metrics
snapshot, a span ring, one Chrome trace.  The observatory turns those
snapshots into *streams* and *attributions*, the substrate the
health engine and fleet-scale service consume:

* :mod:`~repro.telemetry.observatory.series` — bounded ring-buffer
  time series with per-tick points.
* :mod:`~repro.telemetry.observatory.sampler` — a background
  :class:`MetricsSampler` that snapshots every rank's registry on an
  interval, aggregates across ranks (sum/min/max/mean, pooled-sample
  percentiles), and dumps JSONL for offline analysis.
* :mod:`~repro.telemetry.observatory.exporter` — Prometheus text
  exposition served by a stdlib HTTP exporter (opt-in via
  ``REPRO_METRICS_PORT``).
* :mod:`~repro.telemetry.observatory.profiler` — the critical-path
  profiler: every rank's retained per-iteration wall-time attribution
  (the reducer's ``IterationProfile``: forward, backward, exposed
  communication, launch gaps, stream idle bubbles, following the DAG
  decomposition of synchronous SGD, with a per-bucket blame table) and
  a cross-rank straggler summary.

Typical use::

    from repro import telemetry
    from repro.telemetry import observatory

    telemetry.enable()
    sampler = observatory.MetricsSampler(interval=0.1).start()
    exporter = observatory.start_exporter(port=9095)   # /metrics
    ... run training ...
    sampler.stop()
    sampler.dump_jsonl("metrics.jsonl")
    profile = observatory.CriticalPathProfiler().last_profile()
    print(profile.blame_table())

See ``docs/observability.md`` ("The performance observatory").
"""

from __future__ import annotations

from repro.telemetry.observatory.exporter import (
    PrometheusExporter,
    maybe_start_from_env,
    prometheus_text,
    start_exporter,
    stop_env_exporter,
)
from repro.telemetry.observatory.profiler import (
    CriticalPathProfiler,
    IterationProfile,
)
from repro.telemetry.observatory.sampler import (
    MetricsSampler,
    flush_active_samplers,
)
from repro.telemetry.observatory.series import MetricSeries, SeriesPoint

__all__ = [
    "CriticalPathProfiler",
    "IterationProfile",
    "MetricSeries",
    "MetricsSampler",
    "PrometheusExporter",
    "SeriesPoint",
    "flush_active_samplers",
    "maybe_start_from_env",
    "prometheus_text",
    "start_exporter",
    "stop_env_exporter",
]
