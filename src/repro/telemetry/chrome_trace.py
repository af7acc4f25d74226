"""Chrome-trace export of *measured* multi-rank timelines.

The simulator already exports its predicted timeline in the Trace Event
Format (``repro.simulation.trace``).  This module emits the **measured**
timeline of a real threaded run in the same format — one ``pid`` per
rank, separate ``tid`` rows for compute vs. communication — so a
measured trace and a simulated trace of the same model drop into
Perfetto side by side and the paper's Fig. 4 overlap picture can be
compared prediction-vs-reality.

One store feeds it: each rank's flight-recorder ring
(:mod:`repro.debug.flight_recorder`).  Its iterations finished under
telemetry draw the ``compute`` row (the ``forward`` bar, the reducer's
phases and the ``iteration N`` umbrella); its collective records draw
the ``comm`` row — one ``op#seq`` bar per
:class:`~repro.debug.flight_recorder.CollectiveRecord`, start → end,
with the receive waits the executing thread booked per source as the
bar's ``stalls``; and its incidents draw the remaining rows —
``resilience`` instants (heartbeats) and ``checkpoint`` bars.  All
ranks share one process clock (``perf_counter``), so cross-rank
alignment is exact; timestamps are rebased to the earliest one and
expressed in microseconds, as the format requires.

:func:`merged_trace_events` adds the records' whole lifecycles
(scheduled → finished) as a ``flight`` row.  Because every source stamps
the same clock, a collective's ``flight`` bar lines up exactly under its
``comm`` bar, and the gap between their starts is its queueing.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.debug.flight_recorder import all_recorders

#: Stable tid assignment so compute is always the top row per rank.
_STREAM_ORDER = {"compute": 0, "comm": 1, "resilience": 2, "flight": 3}

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
    if stamps.t_forward is not None:
        bars.append(("forward", "compute", stamps.t_forward, stamps.t_prepare,
                     {"iteration": iteration}))
    bars += [(name, "compute", start, end, {"iteration": iteration})
             for name, start, end in phases if end > start]
    sizes = {bucket: nbytes for bucket, nbytes, _, _ in stamps.comm}
    bars += [(f"bucket {index} ready→launch", "bucket", ready, launched,
              {"iteration": iteration, "bucket": index, "bytes": sizes.get(index, 0)})
             for index, (ready, launched) in stamps.launches.items() if launched >= ready]
    return bars


def _timeline(merged: bool) -> List[dict]:
    """The rows drawn from the rings; with ``merged``, also ``flight``
    bars."""
    rings = sorted(all_recorders().items())
    incidents = [(rank, incident) for rank, ring in rings
                 for incident in ring.incidents()]
    records = [(rank, record) for rank, ring in rings for record in ring.records()]
    ran = [(rank, record) for rank, record in records
           if record.t_start is not None and record.t_end is not None]
    bars = [(rank, bar) for rank, ring in rings for stamps in ring.iterations()
            if stamps.traced for bar in _iteration_bars(stamps)]
    # One epoch across every source so the rows stay aligned.
    starts = [incident.t_start for _, incident in incidents]
    starts.extend(record.t_start for _, record in ran)
    starts.extend(t_start for _, (_, _, t_start, _, _) in bars)
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
        if t_end is None:  # point-in-time marker: a heartbeat has no duration
            out.update(ph="i", s="t")
        else:
            out["dur"] = max(0.0, t_end - t_start) * 1e6
        return out

    events = [event(incident.name, incident.row, rank, incident.row,
                    incident.t_start, incident.t_end, dict(incident.args))
              for rank, incident in incidents]
    events += [event(name, cat, rank, "compute", t_start, t_end, args)
               for rank, (name, cat, t_start, t_end, args) in bars]
    for rank, record in ran:
        args = record.facts()
        if record.error is not None:
            args["error"] = type(record.error).__name__
        if record.stalls:
            args["stalls"] = dict(record.stalls)
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
    """Trace Event Format records: the forward and reducer phases of
    every iteration retained under telemetry on the ``compute`` row, one
    ``comm``-row bar per retained collective (``op#seq``, start → end),
    and every retained incident on its own row."""
    return _timeline(merged=False)


def export_chrome_trace(path: str) -> str:
    """Write the measured timeline as chrome://tracing JSON; returns path."""
    return _write(path, trace_events())


def merged_trace_events() -> List[dict]:
    """One timeline for every evidence source the runtime keeps.

    Per rank, all on the shared ``perf_counter`` clock:

    * the rows :func:`trace_events` emits (the iterations' ``compute``
      row, the ``comm`` row, and the incidents: heartbeats as instant
      (``ph: "i"``) markers on a ``resilience`` row, ...);
    * one ``flight`` bar per retained collective record, scheduled →
      finished — the queueing the ``comm`` row does not show.
    """
    return _timeline(merged=True)


def export_merged_trace(path: str) -> str:
    """Write the merged (compute + comm + incidents + flight) timeline;
    returns path."""
    return _write(path, merged_trace_events())
