"""Per-rank collective flight recorder.

The analog of NCCL's / TorchTitan's flight recorder: a bounded ring
buffer that records every collective's lifecycle on the rank that issued
it — sequence number, op, group id, payload fingerprint (shape, dtype,
nbytes, reduce op / src / root), the caller context (e.g. which reducer
bucket launched it), and started → completed timestamps.

When a run desyncs, the recorders are the evidence: merge every rank's
dump and the "last N collectives per rank" table shows exactly which
rank stopped issuing collectives, at which sequence number, and what it
was doing instead.  :func:`dump_json` is a run's one post-mortem
artefact: per rank the records, the incidents and the rank's folded
metrics snapshot, which ``tools/healthctl.py`` runs the live health
check over.  The ring is its rank's one telemetry store: it also holds
the rank's metrics registry (``ring.metrics``, what
:func:`repro.telemetry.metrics.registry_for` returns), so
:func:`clear_recorders` drops records and metrics together.

The :class:`CollectiveRecord` itself always exists — it is the one
record every ``Work`` carries and every observer reads.  *Retaining* it
in a ring happens when ``REPRO_DEBUG`` ≥ INFO (see
:mod:`repro.debug.levels`) or telemetry is on; otherwise a record dies
with its ``Work``.  The rings are the only store of collective
lifecycles: :func:`merge_causal_timeline` stitches them across ranks
by ``(group, seq)`` — the identity every rank agrees on because
collectives are issued in the same order everywhere (paper §3.3) —
:func:`seq_frontier` reads their dumps, and the Chrome trace's ``comm``
row reads them too.
Under the same gate each ring also keeps its rank's finished DDP
iterations, which the critical-path profiler and the trace's compute
row read.  While telemetry is on, a third deque keeps the rank's
*incidents* — the events that are not collectives or iterations:
heartbeats and checkpoint phases — which the trace's other rows read.
The metric series those records imply are not written while training:
a read folds them out of the ring into ``ring.metrics``
(:func:`repro.telemetry.health.accounting.fold`), and the ring keeps
the fold's place.  All rank threads share one ``perf_counter`` clock,
so the stitched order is causal, not approximate.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from collections import deque
from typing import Dict, List, NamedTuple, Optional

from repro.debug.levels import DEBUG

#: Records retained per rank before the ring drops the oldest.
DEFAULT_CAPACITY = 2048
#: Finished DDP iterations retained per rank.
ITERATION_CAPACITY = 1024
#: Incidents retained per rank.
INCIDENT_CAPACITY = 65536

# Lifecycle states.
STARTED = "started"
COMPLETED = "completed"
FAILED = "failed"

#: Caller-context label (e.g. "bucket 3", plus the bucket index when the
#: caller is the reducer) stamped on records created while the context
#: manager below is active.  A contextvar so reducer code can label
#: collectives without widening the ProcessGroup API.
_collective_context: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_collective_context", default=(None, None)
)

#: Guards every record's state transitions: the executing thread, a
#: caller-side wait timeout and the hang watch may race to finish one.
_state_lock = threading.Lock()


class collective_context:
    """Label collectives issued inside the block (``context`` and,
    for reducer buckets, ``bucket`` fields of their records).

    A plain context manager, not a generator: the reducer keeps one per
    bucket and enters it at every launch.  One instance must not be
    entered again before it exits.
    """

    __slots__ = ("_label", "_token")

    def __init__(self, label: str, bucket: Optional[int] = None):
        self._label = (label, bucket)
        self._token = None

    def __enter__(self) -> None:
        self._token = _collective_context.set(self._label)

    def __exit__(self, *exc) -> None:
        _collective_context.reset(self._token)


def current_collective_context() -> Optional[str]:
    return _collective_context.get()[0]


class CollectiveRecord:
    """The one record of a collective, as seen by the issuing rank.

    Every ``Work`` owns exactly one and every observer is a view of it:
    the flight ring holds it by reference, the causal timeline, the
    ``comm`` trace row, the health series folded at read and the
    hang watch's report read its fields.  The facts are the collective's
    fingerprint (``op``, ``shape``, ``dtype``, ``nbytes``; the remaining
    signature fields — reduce op / src / root — plus the group's
    ``world`` and ``backend`` and the algorithm in ``extra``), its
    identity (``group_id``, ``seq``), the bytes the group accounts for
    it, and the caller's label.  The issuing thread creates it as it
    issues the collective, already *started* (``t_start``); the thread
    that completes it in ``wait()`` / ``is_completed()`` finishes it.

    ``stalls`` (``{src rank: seconds}`` of receive wait) is attached by
    the executing thread when it is done with a collective it ran while
    telemetry was on; it stays None otherwise.  It may arrive after the
    terminal state — a caller whose ``Work.wait(timeout)`` expired
    finishes the record early — so a read folds a record once
    ``stalls`` is set, not once it is finished.
    """

    __slots__ = (
        "seq", "op", "group_id", "shape", "dtype", "nbytes", "extra", "bytes",
        "context", "bucket", "state", "t_start", "t_end", "error",
        "stalls",
    )

    def __init__(self, seq, group_id, fingerprint: dict, bytes: Optional[int] = None):
        self.seq = seq
        self.group_id = group_id
        extra = dict(fingerprint)
        self.op = extra.pop("op")
        self.shape = extra.pop("shape", None)
        self.dtype = extra.pop("dtype", None)
        self.nbytes = extra.pop("nbytes", None)
        self.extra = extra
        self.bytes = bytes
        self.context, self.bucket = _collective_context.get()
        self.state = STARTED
        self.t_start = time.perf_counter()
        self.t_end: Optional[float] = None
        self.error: Optional[BaseException] = None
        self.stalls: Optional[Dict[int, float]] = None

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Close the record; the first terminal state wins.

        A record already failed — by a caller-side ``Work.wait`` timeout
        or the hang watch's desync report — keeps that richer error
        when the executing thread later reports in, and one that
        finished first keeps its result.
        """
        with _state_lock:
            if self.state not in (COMPLETED, FAILED):
                self.t_end = time.perf_counter()
                self.error = error
                self.state = COMPLETED if error is None else FAILED

    @property
    def name(self) -> str:
        """``op#seq`` — how trace rows, error messages and alarms name it."""
        return f"{self.op}#{self.seq}"

    def describe(self) -> str:
        return f"{self.name}@pg{self.group_id}"

    def facts(self) -> dict:
        """The set facts as one flat dict (``comm`` row args, timeout text)."""
        facts = {"op": self.op, "seq": self.seq, "bytes": self.bytes,
                 "group": self.group_id, **self.extra, "bucket": self.bucket}
        return {key: value for key, value in facts.items() if value is not None}

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "op": self.op,
            "group_id": self.group_id,
            "shape": list(self.shape) if self.shape is not None else None,
            "dtype": self.dtype,
            "nbytes": self.nbytes,
            "extra": dict(self.extra),
            "context": self.context,
            "state": self.state,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "error": (
                f"{type(self.error).__name__}: {self.error}"
                if self.error is not None else None
            ),
        }

    def __repr__(self) -> str:
        return f"<CollectiveRecord {self.describe()} {self.state}>"


class Incident(NamedTuple):
    """One timeline event that is neither a collective nor an iteration:
    drawn on trace row ``row`` as an instant (``t_end`` None) or as a
    bar (``perf_counter`` seconds)."""

    name: str
    row: str
    t_start: float
    t_end: Optional[float]
    args: dict


def record_incident(rank: int, name: str, row: str, t_start: Optional[float] = None,
                    t_end: Optional[float] = None, **args) -> None:
    """Retain an incident on ``rank``'s ring while telemetry is on (a
    no-op otherwise).  ``t_start`` defaults to now; an interval's
    stamps may be taken early and recorded once it has ended."""
    if DEBUG.telemetry:
        if t_start is None:
            t_start = time.perf_counter()
        recorder_for(rank).add_incident(Incident(name, row, t_start, t_end, args))


class _Kept:
    """One bounded deque of a ring, and how far reads have folded it.

    Item ``i`` — counting every item ever added — sits at
    ``items[i - dropped]`` until evicted; ``taken`` is the first index no
    read has taken, and ``lost`` counts the evicted items no read took
    that ``counts(item)`` says a read would have folded.
    """

    __slots__ = ("items", "counts", "dropped", "taken", "lost")

    def __init__(self, maxlen: int, counts):
        self.items: deque = deque(maxlen=maxlen)
        self.counts = counts
        self.dropped = self.taken = self.lost = 0

    def append(self, item) -> None:
        if len(self.items) == self.items.maxlen:
            if self.dropped >= self.taken and self.counts(self.items[0]):
                self.lost += 1
            self.dropped += 1
        self.items.append(item)

    def take(self) -> tuple:
        """``([(index, item)] added since the last take, lost since)``."""
        added = self.dropped + len(self.items)
        fresh = [(index, self.items[index - added])
                 for index in range(max(self.taken, self.dropped), added)]
        self.taken, lost, self.lost = added, self.lost, 0
        return fresh, lost


class FlightRecorder:
    """Bounded ring of :class:`CollectiveRecord` for one rank.

    The ring holds each record by reference, so the stamps the
    executing thread writes later show up in every dump — one short
    lock guards the ring itself.  Beside it, under the same retention
    gate, a second bounded deque keeps the rank's finished DDP
    iterations (the reducer's ``IterationRecorder`` stamps, which build
    their ``IterationProfile`` on first read), and a third the incidents
    (:class:`Incident`) recorded under telemetry; ``depth()`` and the
    dumps count collective records only.  The first two keep the fold's
    place (:meth:`unfolded`), and :attr:`metrics` is the rank's
    registry the fold publishes into.
    """

    def __init__(self, rank: int, capacity: int = DEFAULT_CAPACITY):
        self.rank = rank
        self.capacity = capacity
        self._lock = threading.Lock()
        #: Held across one fold — take what is new, publish it — so
        #: racing readers each see every record exactly once.
        self.fold_lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        # Here, not at the top: importing repro.telemetry imports this module.
        from repro.telemetry.metrics import MetricsRegistry

        self.metrics = MetricsRegistry(self.rank)
        self._records = _Kept(self.capacity, lambda record: record.stalls is not None)
        self._iterations = _Kept(ITERATION_CAPACITY, lambda stamps: stamps.traced)
        self._incidents: deque = deque(maxlen=INCIDENT_CAPACITY)
        #: Records a read took before their executing thread was done.
        self._waiting: List[tuple] = []

    @property
    def dropped(self) -> int:
        """Records the ring has evicted so far."""
        return self._records.dropped

    def add(self, record: CollectiveRecord) -> None:
        """Retain a just-issued record (dropping the oldest when full)."""
        with self._lock:
            self._records.append(record)

    def add_iteration(self, stamps) -> None:
        """Retain one finished iteration's stamps (oldest dropped when full)."""
        with self._lock:
            self._iterations.append(stamps)

    def add_incident(self, incident: Incident) -> None:
        """Retain one incident (oldest dropped when full)."""
        with self._lock:
            self._incidents.append(incident)

    def unfolded(self) -> tuple:
        """What no read has folded yet; call under :attr:`fold_lock`.

        Returns ``(records, iterations, lost, lost_iterations)``: the
        records whose executing thread is done under telemetry (``stalls``
        set), the iterations finished under telemetry, and how many of
        each the deques dropped before any read took them.  A record
        taken while still executing waits here for the next read; one
        that never ran under telemetry is let go when the ring drops it.
        """
        with self._lock:
            fresh, lost = self._records.take()
            iterations, lost_iterations = self._iterations.take()
            oldest = self._records.dropped
        records, waiting = [], []
        for index, record in self._waiting + fresh:
            if record.stalls is not None:
                records.append(record)
            elif index >= oldest:
                waiting.append((index, record))
        self._waiting = waiting
        return (records, [stamps for _, stamps in iterations if stamps.traced],
                lost, lost_iterations)

    def iterations(self) -> list:
        """The retained iterations' stamps, oldest first."""
        with self._lock:
            return list(self._iterations.items)

    def incidents(self) -> List[Incident]:
        """The retained incidents, oldest first."""
        with self._lock:
            return list(self._incidents)

    # -- introspection --------------------------------------------------
    def depth(self) -> int:
        with self._lock:
            return len(self._records.items)

    def records(self, group_id=None) -> List[CollectiveRecord]:
        with self._lock:
            records = list(self._records.items)
        if group_id is not None:
            records = [r for r in records if r.group_id == group_id]
        return records

    def tail(self, n: int = 10, group_id=None) -> List[dict]:
        return [r.as_dict() for r in self.records(group_id)[-n:]]

    def last_completed(self, group_id=None) -> Optional[CollectiveRecord]:
        for record in reversed(self.records(group_id)):
            if record.state == COMPLETED:
                return record
        return None

    def last_scheduled(self, group_id=None) -> Optional[CollectiveRecord]:
        records = self.records(group_id)
        return records[-1] if records else None

    def inflight(self, group_id=None) -> Optional[CollectiveRecord]:
        """The oldest record not yet finished."""
        for record in self.records(group_id):
            if record.state == STARTED:
                return record
        return None

    def group_snapshot(self, group_id, tail: int = 8) -> dict:
        """The cross-rank exchange unit: this rank's view of one group."""
        last_completed = self.last_completed(group_id)
        last_scheduled = self.last_scheduled(group_id)
        inflight = self.inflight(group_id)
        return {
            "rank": self.rank,
            "status": "running",
            "last_completed": last_completed.as_dict() if last_completed else None,
            "last_scheduled": last_scheduled.as_dict() if last_scheduled else None,
            "inflight": inflight.as_dict() if inflight else None,
            "tail": self.tail(tail, group_id),
        }

    def dump(self) -> dict:
        """This rank's post-mortem unit, JSON-serializable: the retained
        records and incidents, and ``metrics`` — the ``snapshot()`` of
        the registry this ring holds, which first folds the ring, so its
        counters are the run's totals and its histograms carry their
        samples.

        The iteration stamps are not serialized: the snapshot already
        carries the series folded from them, and no offline reader needs
        more.
        """
        return {
            "rank": self.rank,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "records": [r.as_dict() for r in self.records()],
            "incidents": [incident._asdict() for incident in self.incidents()],
            "metrics": self.metrics.snapshot(),
        }

    def clear(self) -> None:
        with self.fold_lock, self._lock:
            self._reset()


# ----------------------------------------------------------------------
# per-rank registry
# ----------------------------------------------------------------------
_registry_lock = threading.Lock()
_recorders: Dict[int, FlightRecorder] = {}


def recorder_for(rank: int) -> FlightRecorder:
    """This rank's flight recorder (created on first use)."""
    recorder = _recorders.get(rank)
    if recorder is None:
        with _registry_lock:
            recorder = _recorders.setdefault(rank, FlightRecorder(rank))
    return recorder


def all_recorders() -> Dict[int, FlightRecorder]:
    with _registry_lock:
        return dict(_recorders)


def clear_recorders() -> None:
    """Drop every rank's ring, its records and metrics together
    (``telemetry.reset()`` calls this too)."""
    with _registry_lock:
        _recorders.clear()


# ----------------------------------------------------------------------
# cross-rank views: causal timeline and sequence frontier
# ----------------------------------------------------------------------
def _lifecycle(rank: int, record: CollectiveRecord) -> List[dict]:
    """``record`` as its ``start`` and ``complete`` or ``failed``
    events, each carrying the ``(group, seq)`` trace context."""
    with _state_lock:  # one consistent view of a record a racer may finish
        t_start, t_end, error = record.t_start, record.t_end, record.error
    facts = {"group": record.group_id, "seq": record.seq, "op": record.op,
             "bucket": record.bucket, "nbytes": record.bytes}
    facts = {key: value for key, value in facts.items() if value is not None}
    events = [{"kind": "start", "rank": rank, "t": t_start, **facts}]
    if t_end is not None and error is None:
        events.append({"kind": "complete", "rank": rank, "t": t_end, **facts})
    elif t_end is not None:
        events.append({"kind": "failed", "rank": rank, "t": t_end, **facts,
                       "extra": {"error": type(error).__name__}})
    return events


def merge_causal_timeline(
    recorders: Optional[Dict[int, FlightRecorder]] = None,
) -> List[dict]:
    """Stitch per-rank rings into one causal timeline per collective.

    Every retained record becomes its lifecycle events, grouped by
    ``(group, seq)`` — the globally agreed identity of one collective —
    and ordered by timestamp.  Returns one entry per collective, ordered
    by (group, seq)::

        {"group": 0, "seq": 14, "op": "allreduce", "bucket": 3,
         "ranks": [0, 1, 2, 3],
         "events": [{...}, ...],            # time-ordered, all ranks
         "t_first": ..., "t_last": ...,
         "start_skew_s": 0.081}             # max-min of 'start' marks

    ``start_skew_s`` is the straggler signature: how far apart the ranks
    began executing the same collective.
    """
    keyed: Dict[tuple, List[dict]] = {}
    for recorder in (all_recorders() if recorders is None else recorders).values():
        for record in recorder.records():
            keyed.setdefault((record.group_id, record.seq), []).extend(
                _lifecycle(recorder.rank, record)
            )
    timeline: List[dict] = []
    for (group, seq), events in sorted(keyed.items()):
        events.sort(key=lambda event: event["t"])
        starts = [event["t"] for event in events if event["kind"] == "start"]
        timeline.append({
            "group": group,
            "seq": seq,
            "op": events[0]["op"],
            "bucket": next((e["bucket"] for e in events if "bucket" in e), None),
            "ranks": sorted({event["rank"] for event in events}),
            "events": events,
            "t_first": events[0]["t"],
            "t_last": events[-1]["t"],
            "start_skew_s": (max(starts) - min(starts)) if len(starts) > 1 else 0.0,
        })
    return timeline


def seq_frontier(dumps: Optional[List[dict]] = None) -> Dict[int, Dict[int, int]]:
    """Per group: each rank's highest issued collective sequence (every
    record is started at issue), read from per-rank dumps (default
    :func:`dump_all`).

    The desync-precursor detector compares frontiers — a rank whose
    frontier trails the group's leader by many collectives is drifting
    toward the hang the hang watch would eventually catch.
    """
    frontier: Dict[int, Dict[int, int]] = {}
    for dump in dump_all() if dumps is None else dumps:
        for record in dump.get("records", []):
            per_group = frontier.setdefault(record["group_id"], {})
            if record["seq"] > per_group.get(dump["rank"], -1):
                per_group[dump["rank"]] = record["seq"]
    return frontier


def dump_all() -> List[dict]:
    """Every rank's :meth:`~FlightRecorder.dump`, sorted by rank: each rank
    ≥ 0 with a ring, with its folded metrics snapshot."""
    return [ring.dump() for rank, ring in sorted(all_recorders().items()) if rank >= 0]


def dump_json(path: Optional[str] = None, indent: int = 2) -> str:
    """Serialize :func:`dump_all` (the file ``tools/healthctl.py`` reads);
    optionally write the JSON to ``path``."""
    text = json.dumps({"flight_recorders": dump_all()}, indent=indent)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _fmt_record(record: dict) -> str:
    shape = tuple(record["shape"]) if record.get("shape") else "-"
    age = ""
    if record.get("t_end") is not None and record.get("t_start") is not None:
        age = f" {1e3 * (record['t_end'] - record['t_start']):.2f}ms"
    context = f" [{record['context']}]" if record.get("context") else ""
    error = f" !{record['error']}" if record.get("error") else ""
    return (
        f"pg{record['group_id']} #{record['seq']:<4} {record['op']:<14} "
        f"{record['state']:<9} shape={shape} dtype={record.get('dtype') or '-'} "
        f"nbytes={record.get('nbytes') if record.get('nbytes') is not None else '-'}"
        f"{age}{context}{error}"
    )


def render_cross_rank(dumps: List[dict], last_n: int = 10) -> str:
    """Merge per-rank dumps into a "last N collectives per rank" table.

    ``dumps`` is a list of :meth:`FlightRecorder.dump` dicts (e.g. from
    :func:`dump_all`, or gathered from the store by the hang watch).
    """
    lines = ["collective flight recorder — last %d per rank" % last_n]
    for dump in sorted(dumps, key=lambda d: d["rank"]):
        records = dump.get("records", [])
        dropped = dump.get("dropped", 0)
        suffix = f" ({dropped} older dropped)" if dropped else ""
        lines.append(f"rank {dump['rank']}: {len(records)} recorded{suffix}")
        for record in records[-last_n:]:
            lines.append("  " + _fmt_record(record))
        if not records:
            lines.append("  (no collectives recorded)")
    return "\n".join(lines)
