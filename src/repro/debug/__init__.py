"""Distributed debug layer: flight recorder and desync diff.

The paper's headline failure mode (§3.2.3, Fig. 3(a)) — ranks issuing
collectives in mismatched order — surfaces in production as an opaque
NCCL hang.  This package turns that hang into a diagnosis:

* :mod:`~repro.debug.flight_recorder` — the one
  :class:`CollectiveRecord` every collective's ``Work`` carries (seq,
  op, group, payload fingerprint, caller context, start and end
  timestamps) and the per-rank bounded ring
  buffer that retains them beside the rank's finished iterations and,
  under telemetry, its incidents (the one event store every telemetry
  view reads), with JSON dump and a cross-rank "last N collectives per
  rank" table.
* :mod:`~repro.debug.desync` — rich collective fingerprints, the
  field-level cross-rank diff rendered on ``CollectiveMismatchError``,
  and the :class:`~repro.debug.desync.DesyncReport` naming culprit,
  laggard and missing ranks that the hang watch of each rank's liveness
  monitor (:mod:`repro.comm.liveness`) builds from every rank's
  flight-recorder snapshot when a collective hangs.

Everything is gated by ``REPRO_DEBUG=OFF|INFO|DETAIL`` (default OFF; see
:mod:`~repro.debug.levels`): while OFF the comm layer pays one integer
check per collective and retains nothing unless telemetry is on — the
ring is also telemetry's store of collective lifecycles.

    REPRO_DEBUG=INFO python train.py          # or:
    from repro import debug
    debug.set_debug_level("DETAIL")

See ``docs/observability.md`` ("Debugging desyncs and hangs") for the
dump format and a worked Fig. 3(a) diagnosis.
"""

from __future__ import annotations

import os

from repro.debug.desync import (
    DesyncReport,
    build_desync_report,
    describe_fingerprint,
    diff_fingerprints,
    fingerprint,
    render_mismatch,
)
from repro.debug.flight_recorder import (
    CollectiveRecord,
    FlightRecorder,
    all_recorders,
    clear_recorders,
    collective_context,
    current_collective_context,
    dump_all,
    dump_json,
    recorder_for,
    render_cross_rank,
)
from repro.debug.levels import (
    DEBUG,
    DETAIL,
    INFO,
    OFF,
    debug_level_name,
    get_debug_level,
    set_debug_level,
)

__all__ = [
    "CollectiveRecord",
    "DEBUG",
    "DETAIL",
    "DesyncReport",
    "FlightRecorder",
    "INFO",
    "OFF",
    "all_recorders",
    "build_desync_report",
    "clear_recorders",
    "collective_context",
    "current_collective_context",
    "debug_level_name",
    "describe_fingerprint",
    "diff_fingerprints",
    "dump_all",
    "dump_json",
    "fingerprint",
    "get_debug_level",
    "recorder_for",
    "render_cross_rank",
    "render_mismatch",
    "set_debug_level",
]

# Debugging without log output is half a tool: when REPRO_DEBUG is on
# and the user did not configure logging explicitly, surface hang
# and mismatch reports on stderr.
if DEBUG.level and not os.environ.get("REPRO_LOG"):
    from repro.utils.logging import enable_logging

    enable_logging("info")
