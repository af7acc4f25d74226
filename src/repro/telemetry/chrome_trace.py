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
the ``comm`` row — one ``op#seq`` mark per retained
:class:`~repro.debug.flight_recorder.CollectiveRecord`: a bar from
start to end, with the receive waits the executing thread booked per
source as the bar's ``stalls``, or, for a record not finished, an
instant at its start with its ``state``; and its incidents draw the
remaining rows — ``resilience`` instants (heartbeats) and
``checkpoint`` bars.  All ranks share one process clock
(``perf_counter``), so cross-rank alignment is exact; timestamps are
rebased to the earliest one and expressed in microseconds, as the
format requires.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.debug.flight_recorder import all_recorders

#: Stable tid assignment so compute is always the top row per rank.
_STREAM_ORDER = {"compute": 0, "comm": 1, "resilience": 2}


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


def trace_events() -> List[dict]:
    """Trace Event Format records: the forward and reducer phases of
    every iteration retained under telemetry on the ``compute`` row, one
    ``comm``-row mark per retained collective (``op#seq``: a bar start →
    end, an instant at the start while unfinished), and every retained
    incident on its own row."""
    rings = sorted(all_recorders().items())
    incidents = [(rank, incident) for rank, ring in rings
                 for incident in ring.incidents()]
    records = [(rank, record) for rank, ring in rings for record in ring.records()]
    bars = [(rank, bar) for rank, ring in rings for stamps in ring.iterations()
            if stamps.traced for bar in _iteration_bars(stamps)]
    # One epoch across every source so the rows stay aligned.
    starts = [incident.t_start for _, incident in incidents]
    starts.extend(record.t_start for _, record in records)
    starts.extend(t_start for _, (_, _, t_start, _, _) in bars)
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
        if t_end is None:  # point-in-time marker: a heartbeat, an unfinished record
            out.update(ph="i", s="t")
        else:
            out["dur"] = max(0.0, t_end - t_start) * 1e6
        return out

    events = [event(incident.name, incident.row, rank, incident.row,
                    incident.t_start, incident.t_end, dict(incident.args))
              for rank, incident in incidents]
    events += [event(name, cat, rank, "compute", t_start, t_end, args)
               for rank, (name, cat, t_start, t_end, args) in bars]
    for rank, record in records:
        args = record.facts()
        t_end = record.t_end
        if t_end is None:
            args["state"] = record.state
        if record.error is not None:
            args["error"] = type(record.error).__name__
        if record.stalls:
            args["stalls"] = dict(record.stalls)
        events.append(event(record.name, "comm", rank, "comm",
                            record.t_start, t_end, args))
    events.extend(_metadata_events(seen_tids))
    return events


def export_chrome_trace(path: str) -> str:
    """Write the measured timeline as chrome://tracing JSON; returns path."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": trace_events(), "displayTimeUnit": "ms"}, handle)
    return path
