"""The performance observatory: live scrapes and attributions.

``repro.telemetry`` captures point-in-time evidence — a metrics
snapshot, the per-rank record rings, one Chrome trace.  The observatory
serves and explains it:

* :mod:`~repro.telemetry.observatory.exporter` — Prometheus text
  exposition served by a stdlib HTTP exporter (opt-in via
  ``REPRO_METRICS_PORT``); every scrape renders ``snapshot()``, which
  folds the rings first, so there is no sampling thread.
* :mod:`~repro.telemetry.observatory.profiler` — the critical-path
  profiler: every rank's retained per-iteration wall-time attribution
  (the reducer's ``IterationProfile``: forward, backward, exposed
  communication, launch gaps, stream idle bubbles, following the DAG
  decomposition of synchronous SGD, with a per-bucket blame table) and
  a cross-rank straggler summary.

The offline artefact is the flight-recorder dump
(:func:`repro.debug.flight_recorder.dump_json`): records, incidents
and each rank's folded metrics, which ``tools/healthctl.py`` reads.

Typical use::

    from repro import debug, telemetry
    from repro.telemetry import observatory

    telemetry.enable()
    exporter = observatory.start_exporter(port=9095)   # /metrics
    ... run training ...
    debug.dump_json("flight_recorder.json")
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

__all__ = [
    "CriticalPathProfiler",
    "IterationProfile",
    "PrometheusExporter",
    "maybe_start_from_env",
    "prometheus_text",
    "start_exporter",
    "stop_env_exporter",
]
