"""One liveness thread per rank: the heartbeat and the hang watch.

The :class:`RankMonitor` a rank's
:class:`~repro.comm.distributed.DistributedContext` owns runs one daemon
thread; the first duty that needs it starts it, ``ctx.close()`` stops
it.  Every :data:`BEAT_INTERVAL` it ticks:

* **Beat** (once :meth:`RankMonitor.beat` names a store namespace): a
  monotonically increasing beat under :func:`heartbeat_key`.  The
  elastic supervisor's :class:`HeartbeatMonitor` reads it and declares a
  rank dead after :data:`MISS_THRESHOLD` without one.  A rank merely
  *blocked* in a collective keeps beating: the beat is not its thread.
* **Watch** (each group registered under ``REPRO_DEBUG`` ≥ INFO): a
  desync (paper §3.2.3, Fig. 3(a)) surfaces as a collective that never
  completes.  The tick answers a peer's alarm with this rank's
  flight-recorder snapshot for the group; when the group's oldest
  executing ``Work`` passes :data:`HANG_FRACTION` of the group timeout,
  the first detector raises the alarm and opens a report.  Once every
  member's snapshot is in (a group's shutdown leaves a parting one) or
  the grace window has passed, the report — a
  :class:`~repro.debug.desync.DesyncReport` naming culprit, laggard and
  missing ranks — fails the stuck ``Work``, and the hub closes so every
  blocked receiver wakes.  The report is state each tick advances, never
  a wait, so it does not pause the beat.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import List, Optional, Sequence

from repro.comm.process_group import CollectiveTimeoutError
from repro.debug.desync import build_desync_report
from repro.debug.flight_recorder import record_incident
from repro.utils.logging import logger, warn_once

#: Seconds between ticks: one beat and one look at every watched group.
BEAT_INTERVAL = 0.05
#: Seconds without a fresh beat after which the supervisor counts a rank dead.
MISS_THRESHOLD = 0.3
#: Seconds a rank that never beat gets before it counts dead, so slow
#: thread spawns are not misread as deaths.
STARTUP_GRACE = 2.0
#: A collective executing longer than this fraction of its group's
#: timeout is a hang, so the report lands before the bare timeout.
HANG_FRACTION = 0.75


def heartbeat_key(namespace: str, rank: int) -> str:
    """Store key carrying one rank's heartbeat."""
    return f"{namespace}/hb/rank{rank}"


class _Watch:
    """One watched group: its hang threshold and any open report."""

    def __init__(self, group):
        self.group = group
        self.threshold = HANG_FRACTION * group.timeout
        # How long an open report waits for the peers' snapshots.
        self.grace = min(2.0, max(0.25, self.threshold / 2.0))
        self.prefix = f"pgdebug/{group._group_id}"
        # The group's alarm: how many ranks have detected a hang in it.
        self.alarm_key = f"{self.prefix}/alarms"
        self.answered = 0  # the alarm count this rank last published for
        self.reported: set = set()  # seqs of the hangs already reported
        self.report = None  # (work, stuck record, deadline) while gathering

    def state_key(self, rank: int) -> str:
        return f"{self.prefix}/state/rank{rank}"

    def publish(self, status: str = "running") -> None:
        """Publish this rank's flight-recorder snapshot for the group."""
        group = self.group
        snapshot = group.flight_recorder.group_snapshot(group._group_id)
        snapshot["status"] = status
        snapshot["transport"] = [
            entry for entry in group.hub.blocked_receivers()
            if entry["rank"] == group.global_rank
        ]
        group.store.set(self.state_key(group.global_rank), snapshot)


class RankMonitor:
    """One rank's liveness thread: it beats and watches its groups."""

    def __init__(self, rank: int):
        self.rank = rank
        self.beats = 0
        self.alarms_raised = 0
        self.alarms_answered = 0
        self.last_report = None
        self._beat_to = None  # (store, namespace) once beating
        self._suspended_until = 0.0
        self._watches: dict = {}  # group -> _Watch
        self._lock = threading.Lock()
        self._stop: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    def _ensure_running(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._loop, args=(self._stop,),
                name=f"liveness-rank{self.rank}", daemon=True,
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop the thread (idempotent); the last beat then goes stale.
        A tick never blocks, so this joins promptly even mid-report."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)

    def is_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- beat -----------------------------------------------------------
    def beat(self, store, namespace: str) -> None:
        """Publish a first beat into ``namespace`` now, then one per tick."""
        with self._lock:
            self._beat_to = (store, namespace)
            self._beat()
        self._ensure_running()

    def suspend(self, seconds: float) -> None:
        """Publish no beat for ``seconds``: a *flapping* rank (a GC pause,
        a swapped-out process), which the supervisor tells from a death
        at the generation boundary because the beat is fresh again."""
        self._suspended_until = time.monotonic() + seconds

    def _beat(self) -> None:
        # Called under self._lock, so a beat's count and its write stay in step.
        if self._beat_to is None or time.monotonic() < self._suspended_until:
            return
        store, namespace = self._beat_to
        self.beats += 1
        store.set(
            heartbeat_key(namespace, self.rank),
            {"beat": self.beats, "time": time.monotonic()},
        )
        # Instant marker on the trace's resilience row.
        record_incident(self.rank, "heartbeat", "resilience",
                        beat=self.beats, namespace=namespace)

    # -- watch ----------------------------------------------------------
    def watch(self, group) -> None:
        """Watch ``group`` for hangs until its shutdown unregisters it."""
        with self._lock:
            self._watches[group] = _Watch(group)
        group._monitor = self
        self._ensure_running()

    def unwatch(self, group) -> None:
        """Publish ``group``'s parting snapshot, then stop watching it."""
        with self._lock:
            watch = self._watches.pop(group, None)
            if watch is None:
                return
            try:
                watch.publish(status="shutdown")
            except Exception:
                logger.exception("failed to publish parting debug state")

    def status(self) -> dict:
        """The hang watch's state over every group this rank watches:
        whether the thread runs, the smallest threshold, the alarms
        raised and answered, and the last report's stuck description."""
        with self._lock:
            thresholds = [watch.threshold for watch in self._watches.values()]
        return {
            "active": self.is_alive(),
            "hang_threshold_s": min(thresholds, default=None),
            "alarms_raised": self.alarms_raised,
            "alarms_answered": self.alarms_answered,
            "last_report": (
                self.last_report.stuck_description() if self.last_report else None
            ),
        }

    # -- the thread -----------------------------------------------------
    def _loop(self, stop: threading.Event) -> None:
        while not stop.wait(BEAT_INTERVAL):
            with self._lock:
                self._beat()
                for watch in self._watches.values():
                    try:
                        self._tick_watch(watch)
                    except Exception as exc:  # never let diagnostics kill the run
                        warn_once(
                            f"liveness-{self.rank}-{type(exc).__name__}",
                            "hang watch tick failed: %s", traceback.format_exc(),
                        )

    def _tick_watch(self, watch: _Watch) -> None:
        group = watch.group
        alarms = group.store.try_get(watch.alarm_key, 0)
        if alarms > watch.answered:
            watch.answered = alarms
            self.alarms_answered += 1
            watch.publish()
        if watch.report is not None:
            self._advance_report(watch)
            return
        inflight = group._inflight
        if inflight is None:
            return
        work, since = inflight
        seq = work.record.seq
        if seq in watch.reported or time.perf_counter() - since <= watch.threshold:
            return
        watch.reported.add(seq)
        # Raise the alarm.  The first detector reports; later ones only
        # publish their state, so the reporter's gather sees them.
        watch.answered = group.store.add(watch.alarm_key, 1)
        watch.publish()
        if watch.answered == 1:
            watch.report = (work, work.record.as_dict(), time.monotonic() + watch.grace)

    def _advance_report(self, watch: _Watch) -> None:
        """Finish the open report once every member's snapshot is in
        (ranks that shut down left a parting one) or the grace passed."""
        group = watch.group
        work, stuck, deadline = watch.report
        states = {r: group.store.try_get(watch.state_key(r)) for r in group.ranks}
        if any(s is None for s in states.values()) and time.monotonic() < deadline:
            return
        watch.report = None
        report = build_desync_report(
            group._group_id, group.global_rank, stuck, watch.threshold, states
        )
        self.last_report = report
        self.alarms_raised += 1
        rendered = report.render()
        logger.error("%s", rendered)
        work._complete(
            CollectiveTimeoutError(
                f"collective {work.description!r} hung past the watchdog "
                f"threshold ({watch.threshold:.1f}s of the "
                f"{group.timeout:.1f}s group timeout)\n{rendered}"
            )
        )
        # The stuck collective can never complete: closing the hub wakes
        # every blocked receiver, so the run fails fast with the report
        # above instead of a bare timeout.
        group.hub.close()


class HeartbeatMonitor:
    """The supervisor's reader of a set of ranks' beats (not a thread).

    A rank that has never published is only reported dead once
    :data:`STARTUP_GRACE` has passed since this reader was built.
    """

    def __init__(self, store, namespace: str, ranks: Sequence[int]):
        self.store = store
        self.namespace = namespace
        self.ranks = list(ranks)
        self._born = time.monotonic()

    def beat_age(self, rank: int) -> Optional[float]:
        """Seconds since ``rank`` last beat (None when never seen)."""
        beat = self.store.try_get(heartbeat_key(self.namespace, rank))
        return None if beat is None else time.monotonic() - beat["time"]

    def dead_ranks(self) -> List[int]:
        """Ranks whose beat is older than :data:`MISS_THRESHOLD`."""
        startup = time.monotonic() - self._born
        dead = []
        for rank in self.ranks:
            age = self.beat_age(rank)
            if age is None:
                if startup > STARTUP_GRACE:
                    dead.append(rank)
            elif age > MISS_THRESHOLD:
                dead.append(rank)
        return dead

    def clear(self) -> int:
        """Delete this namespace's heartbeat keys from the store."""
        return self.store.delete_prefix(f"{self.namespace}/hb/")
