"""Chrome-trace export of *measured* multi-rank timelines.

The simulator already exports its predicted timeline in the Trace Event
Format (``repro.simulation.trace``).  This module emits the **measured**
timeline of a real threaded run in the same format — one ``pid`` per
rank, separate ``tid`` rows for compute vs. communication vs. transport
streams — so a measured trace and a simulated trace of the same model
drop into Perfetto side by side and the paper's Fig. 4 overlap picture
can be compared prediction-vs-reality.

All ranks share one process clock (``perf_counter``), so cross-rank
alignment is exact; timestamps are rebased to the earliest recorded
span and expressed in microseconds, as the format requires.

:func:`merged_trace_events` widens the picture into one timeline:
telemetry spans, the :mod:`repro.debug` flight recorder's collective
lifecycles, and :mod:`repro.resilience` retry/heartbeat instants all
render as distinct tracks per rank — the span rows as duration events,
the flight-recorder rows as ``op#seq`` lifecycle bars, and resilience
events as instant markers.  Because every source stamps the same
``perf_counter`` clock, a retransmit marker lines up exactly under the
collective it delayed.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.telemetry.spans import SpanTracer, TRACER

#: Stable tid assignment so compute is always the top row per rank.
_STREAM_ORDER = {"compute": 0, "comm": 1, "transport": 2,
                 "resilience": 3, "flight": 4, "health": 5}


def _tid_for(stream: str, streams: Dict[str, int]) -> int:
    return _STREAM_ORDER.get(stream, len(_STREAM_ORDER) + len(streams))


def _metadata_events(seen_tids: Dict[int, Dict[str, int]]) -> List[dict]:
    """Process/thread naming records for each (rank, stream) row."""
    events: List[dict] = []
    for rank, streams in sorted(seen_tids.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": rank,
                "tid": 0,
                "args": {"name": f"rank {rank}" if rank >= 0 else "unattributed"},
            }
        )
        for stream, tid in sorted(streams.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": rank,
                    "tid": tid,
                    "args": {"name": stream},
                }
            )
    return events


def trace_events(tracer: Optional[SpanTracer] = None) -> List[dict]:
    """Trace Event Format records for every span the tracer holds."""
    tracer = tracer or TRACER
    events: List[dict] = []
    all_spans = tracer.spans()
    if not all_spans:
        return events
    epoch = min(span.t_start for span in all_spans)
    seen_tids: Dict[int, Dict[str, int]] = {}
    for span in all_spans:
        streams = seen_tids.setdefault(span.rank, {})
        if span.stream not in streams:
            streams[span.stream] = _tid_for(span.stream, streams)
        args = dict(span.args) if span.args else {}
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": (span.t_start - epoch) * 1e6,
                "dur": max(0.0, span.t_end - span.t_start) * 1e6,
                "pid": span.rank,
                "tid": streams[span.stream],
                "args": args,
            }
        )
    # Metadata: name each rank's process and each stream's thread row.
    events.extend(_metadata_events(seen_tids))
    return events


def export_chrome_trace(path: str, tracer: Optional[SpanTracer] = None) -> str:
    """Write the measured timeline as chrome://tracing JSON; returns path."""
    events = trace_events(tracer)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path


# ----------------------------------------------------------------------
# merged timeline: spans + flight recorder + resilience instants
# ----------------------------------------------------------------------
def merged_trace_events(tracer: Optional[SpanTracer] = None) -> List[dict]:
    """One timeline for every evidence source the runtime keeps.

    Four tracks per rank, all on the shared ``perf_counter`` clock:

    * telemetry spans (the same rows :func:`trace_events` emits);
    * the ``repro.debug`` flight recorder — one ``op#seq`` bar per
      collective lifecycle (scheduled → completed), on a ``flight``
      row; records that never finished render up to their last known
      timestamp with the terminal state in ``args``;
    * ``repro.resilience`` events (retries, retransmits, corruption
      drops, heartbeats) — zero-duration spans rendered as instant
      (``ph: "i"``) markers on a ``resilience`` row;
    * the ``repro.telemetry.health`` event log — collective lifecycle
      and bucket-launch marks (``kind#seq``) as instants on a
      ``health`` row, carrying the ``(group, seq)`` trace context that
      stitches the same collective across ranks.
    """
    from repro.debug.flight_recorder import dump_all
    from repro.telemetry.health.events import all_event_logs

    tracer = tracer or TRACER
    all_spans = tracer.spans()
    flight_dumps = dump_all()
    health_events: List[dict] = []
    for _, log in sorted(all_event_logs().items()):
        health_events.extend(log.as_dicts())

    # One epoch across every source so the tracks stay aligned.
    starts = [span.t_start for span in all_spans]
    starts.extend(
        record["t_sched"]
        for dump in flight_dumps
        for record in dump.get("records", ())
        if record.get("t_sched") is not None
    )
    starts.extend(event["t"] for event in health_events)
    if not starts:
        return []
    epoch = min(starts)

    events: List[dict] = []
    seen_tids: Dict[int, Dict[str, int]] = {}

    def tid(rank: int, stream: str) -> int:
        streams = seen_tids.setdefault(rank, {})
        if stream not in streams:
            streams[stream] = _tid_for(stream, streams)
        return streams[stream]

    for span in all_spans:
        args = dict(span.args) if span.args else {}
        if span.cat == "resilience":
            # Point-in-time markers: a retry has no meaningful duration.
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "i",
                    "s": "t",
                    "ts": (span.t_start - epoch) * 1e6,
                    "pid": span.rank,
                    "tid": tid(span.rank, span.stream),
                    "args": args,
                }
            )
            continue
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": (span.t_start - epoch) * 1e6,
                "dur": max(0.0, span.t_end - span.t_start) * 1e6,
                "pid": span.rank,
                "tid": tid(span.rank, span.stream),
                "args": args,
            }
        )

    for dump in flight_dumps:
        rank = dump["rank"]
        for record in dump.get("records", ()):
            t_sched = record.get("t_sched")
            if t_sched is None:
                continue
            t_close = record.get("t_end") or record.get("t_start") or t_sched
            events.append(
                {
                    "name": f"{record['op']}#{record['seq']}",
                    "cat": "flight",
                    "ph": "X",
                    "ts": (t_sched - epoch) * 1e6,
                    "dur": max(0.0, t_close - t_sched) * 1e6,
                    "pid": rank,
                    "tid": tid(rank, "flight"),
                    "args": {
                        "state": record.get("state"),
                        "group_id": record.get("group_id"),
                        "nbytes": record.get("nbytes"),
                        "context": record.get("context"),
                        "error": record.get("error"),
                    },
                }
            )

    for event in health_events:
        name = event["kind"]
        if event.get("seq") is not None:
            name = f"{name}#{event['seq']}"
        args = {
            key: event[key]
            for key in ("iteration", "group", "seq", "op", "bucket",
                        "nbytes", "extra")
            if event.get(key) is not None
        }
        events.append(
            {
                "name": name,
                "cat": "health",
                "ph": "i",
                "s": "t",
                "ts": (event["t"] - epoch) * 1e6,
                "pid": event["rank"],
                "tid": tid(event["rank"], "health"),
                "args": args,
            }
        )

    events.extend(_metadata_events(seen_tids))
    return events


def export_merged_trace(path: str, tracer: Optional[SpanTracer] = None) -> str:
    """Write the merged (spans + flight + resilience + health) timeline;
    returns path."""
    events = merged_trace_events(tracer)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path
