"""Comm health engine: efficiency accounting, causal timeline, and
automated anomaly attribution.

* :mod:`~repro.telemetry.health.accounting` — per-collective achieved
  bus bandwidth, chunk-pipeline utilization, and receive-stall
  attribution, folded from the retained collective records into the
  ordinary registry metrics when a registry is read.
* :func:`merge_causal_timeline` / :func:`seq_frontier` — read-time
  views over the per-rank collective record rings
  (:mod:`repro.debug.flight_recorder`), stitched across ranks by
  ``(group, seq)``.
* :mod:`~repro.telemetry.health.engine` — rule-based detectors fusing
  the metrics and the frontier of per-rank flight-recorder dumps into
  :class:`Diagnosis` verdicts (straggler, slow link, desync
  precursor): one entry point,
  :func:`analyze_dumps`, live over ``dump_all()`` via
  :func:`health_report` or offline over a ``dump_json`` file via
  ``tools/healthctl.py``.
"""

from repro.debug.flight_recorder import merge_causal_timeline, seq_frontier
from repro.telemetry.health.accounting import bus_bytes, expected_collective_s
from repro.telemetry.health.diagnosis import (
    DESYNC_PRECURSOR,
    DIAGNOSIS_KINDS,
    PERSISTENT_STRAGGLER,
    SLOW_LINK,
    Diagnosis,
    render_diagnoses,
)
from repro.telemetry.health.engine import analyze_dumps, health_report

__all__ = [
    "DIAGNOSIS_KINDS",
    "DESYNC_PRECURSOR",
    "PERSISTENT_STRAGGLER",
    "SLOW_LINK",
    "Diagnosis",
    "analyze_dumps",
    "bus_bytes",
    "expected_collective_s",
    "health_report",
    "merge_causal_timeline",
    "render_diagnoses",
    "seq_frontier",
]
