"""Chrome-trace export of *measured* multi-rank timelines.

The simulator already exports its predicted timeline in the Trace Event
Format (``repro.simulation.trace``).  This module emits the **measured**
timeline of a real threaded run in the same format — one ``pid`` per
rank, separate ``tid`` rows for compute vs. communication vs. transport
streams — so a measured trace and a simulated trace of the same model
drop into Perfetto side by side and the paper's Fig. 4 overlap picture
can be compared prediction-vs-reality.

Two stores feed it: the span tracer (forward, transport, resilience,
... rows) and the flight recorder's per-rank rings, from which the
export draws the ``comm`` row — one ``op#seq`` bar per
:class:`~repro.debug.flight_recorder.CollectiveRecord`, start → end —
and the reducer's phases on the ``compute`` row, per iteration
finished under telemetry.  All ranks share one process clock
(``perf_counter``), so cross-rank alignment is exact; timestamps are
rebased to the earliest one and expressed in microseconds, as the
format requires.

:func:`merged_trace_events` widens the picture: the records' whole
lifecycles (scheduled → finished) as a ``flight`` row, and
:mod:`repro.resilience` retry/heartbeat spans as instant markers.
Because every source stamps the same clock, a retransmit marker lines
up exactly under the collective it delayed.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.debug.flight_recorder import all_recorders
from repro.telemetry.spans import TRACER

#: Stable tid assignment so compute is always the top row per rank.
_STREAM_ORDER = {"compute": 0, "comm": 1, "transport": 2,
                 "resilience": 3, "flight": 4}

#: ``CollectiveRecord.as_dict`` fields a ``flight`` bar carries.
_FLIGHT_ARGS = ("state", "group_id", "nbytes", "context", "error")


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


def _iteration_bars(stamps) -> List[tuple]:
    """One retained iteration's ``compute``-row bars, as ``(name, cat,
    t_start, t_end, args)``."""
    iteration = stamps.iteration
    phases = (("prepare_to_first_grad", stamps.t_prepare, stamps.t_first),
              ("backward_compute", stamps.t_first, stamps.t_all),
              ("finalize(wait+copy_back)", stamps.t_all, stamps.t_done))
    bars = [(f"iteration {iteration}", "iteration", stamps.t_prepare, stamps.t_done,
             {"iteration": iteration, "overlap_ratio": round(stamps.comm_split()[2], 4)})]
    bars += [(name, "compute", start, end, {"iteration": iteration})
             for name, start, end in phases if end > start]
    sizes = {bucket: nbytes for bucket, nbytes, _, _ in stamps.comm}
    bars += [(f"bucket {index} ready→launch", "bucket", ready, launched,
              {"iteration": iteration, "bucket": index, "bytes": sizes.get(index, 0)})
             for index, (ready, launched) in stamps.launches.items() if launched >= ready]
    return bars


def _timeline(merged: bool) -> List[dict]:
    """Spans + the ``compute`` and ``comm`` rows drawn from the rings;
    with ``merged``, also ``flight`` bars and resilience spans as
    instants."""
    spans = TRACER.spans()
    rings = sorted(all_recorders().items())
    records = [(rank, record) for rank, ring in rings for record in ring.records()]
    ran = [(rank, record) for rank, record in records
           if record.t_start is not None and record.t_end is not None]
    iterations = [(rank, stamps) for rank, ring in rings
                  for stamps in ring.iterations() if stamps.traced]
    # One epoch across every source so the rows stay aligned.
    starts = [span.t_start for span in spans]
    starts.extend(record.t_start for _, record in ran)
    starts.extend(stamps.t_prepare for _, stamps in iterations)
    if merged:
        starts.extend(record.t_sched for _, record in records)
    if not starts:
        return []
    epoch = min(starts)
    seen_tids: Dict[int, Dict[str, int]] = {}

    def event(name, cat, rank, stream, t_start, t_end, args) -> dict:
        streams = seen_tids.setdefault(rank, {})
        if stream not in streams:
            streams[stream] = _tid_for(stream, streams)
        out = {"name": name, "cat": cat, "ph": "X",
               "ts": (t_start - epoch) * 1e6,
               "pid": rank, "tid": streams[stream], "args": args}
        if t_end is None:  # point-in-time marker: a retry has no duration
            out.update(ph="i", s="t")
        else:
            out["dur"] = max(0.0, t_end - t_start) * 1e6
        return out

    events: List[dict] = []
    for span in spans:
        instant = merged and span.cat == "resilience"
        events.append(event(
            span.name, span.cat, span.rank, span.stream, span.t_start,
            None if instant else span.t_end, dict(span.args) if span.args else {},
        ))
    for rank, stamps in iterations:
        for name, cat, t_start, t_end, args in _iteration_bars(stamps):
            events.append(event(name, cat, rank, "compute", t_start, t_end, args))
    for rank, record in ran:
        args = record.facts()
        if record.error is not None:
            args["error"] = type(record.error).__name__
        events.append(event(record.name, "comm", rank, "comm",
                            record.t_start, record.t_end, args))
    if merged:
        # Records that never finished render up to their last known
        # stamp, with the terminal state in ``args``.
        for rank, record in records:
            facts = record.as_dict()
            t_close = record.t_end or record.t_start or record.t_sched
            events.append(event(
                record.name, "flight", rank, "flight", record.t_sched, t_close,
                {key: facts[key] for key in _FLIGHT_ARGS},
            ))
    events.extend(_metadata_events(seen_tids))
    return events


def _write(path: str, events: List[dict]) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path


def trace_events() -> List[dict]:
    """Trace Event Format records: every span, the reducer phases of
    every iteration retained under telemetry on the ``compute`` row, and
    one ``comm``-row bar per retained collective (``op#seq``, start →
    end)."""
    return _timeline(merged=False)


def export_chrome_trace(path: str) -> str:
    """Write the measured timeline as chrome://tracing JSON; returns path."""
    return _write(path, trace_events())


def merged_trace_events() -> List[dict]:
    """One timeline for every evidence source the runtime keeps.

    Per rank, all on the shared ``perf_counter`` clock:

    * the rows :func:`trace_events` emits (spans, the iterations'
      ``compute`` row and the ``comm`` row);
    * one ``flight`` bar per retained collective record, scheduled →
      finished — the queueing the ``comm`` row does not show;
    * ``repro.resilience`` spans (retries, retransmits, corruption
      drops, heartbeats) rendered as instant (``ph: "i"``) markers on a
      ``resilience`` row.
    """
    return _timeline(merged=True)


def export_merged_trace(path: str) -> str:
    """Write the merged (spans + comm + flight + resilience) timeline;
    returns path."""
    return _write(path, merged_trace_events())
