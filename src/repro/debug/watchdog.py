"""Per-``ProcessGroup`` hang watchdog.

Real NCCL desyncs surface as an opaque hang: one rank launched a
collective its peers never joined, so the thread executing it blocks
until the timeout kills the job with no indication of *who* diverged.
The watchdog turns that into a diagnosis:

1. Each rank's watchdog thread polls its group's in-flight collective
   (one a worker executes, or a split-phase one a caller is completing).
   When one exceeds the hang threshold (a fraction of the group timeout,
   so the report lands *before* the bare transport timeout), the first
   detecting rank raises an **alarm** in the rendezvous store.
2. Every rank's watchdog answers an alarm by publishing its flight
   recorder snapshot for the group (last scheduled/completed collective,
   in-flight op, transport blockage, tail of recent records).
3. The detecting rank gathers the snapshots, builds a
   :class:`~repro.debug.desync.DesyncReport` naming culprit / laggard /
   missing ranks, fails the stuck ``Work`` with the report attached, and
   closes the transport hub so every blocked receiver wakes and the run
   terminates instead of stranding threads.

Ranks that already shut down leave a parting snapshot in the store
(see ``ProcessGroup.shutdown``), so "rank 1 exited after completing
allreduce#7" is distinguishable from "rank 1 never responded".
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import traceback

from repro.debug.desync import build_desync_report
from repro.utils.logging import logger, warn_once


class HangWatchdog:
    """Monitors one rank's membership in one process group."""

    def __init__(
        self,
        group,
        hang_threshold: Optional[float] = None,
        poll_interval: Optional[float] = None,
        grace: Optional[float] = None,
    ):
        self.group = group
        self.hang_threshold = (
            hang_threshold if hang_threshold is not None else 0.75 * group.timeout
        )
        self.poll_interval = (
            poll_interval
            if poll_interval is not None
            else max(0.02, self.hang_threshold / 50.0)
        )
        self.grace = (
            grace
            if grace is not None
            else min(2.0, max(0.25, self.hang_threshold / 2.0))
        )
        self.alarms_raised = 0
        self.alarms_answered = 0
        self.last_report = None
        self._answered_alarm = None
        self._reported: set = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"pg{group._group_id}-rank{group.global_rank}-watchdog",
            daemon=True,
        )

    # -- store keys -----------------------------------------------------
    @property
    def _prefix(self) -> str:
        return f"pgdebug/{self.group._group_id}"

    def _state_key(self, rank: int) -> str:
        return f"{self._prefix}/state/rank{rank}"

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 1.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def status(self) -> dict:
        """Watchdog state for ``ddp_stats()`` and diagnostics."""
        return {
            "active": self._thread.is_alive(),
            "hang_threshold_s": self.hang_threshold,
            "alarms_raised": self.alarms_raised,
            "alarms_answered": self.alarms_answered,
            "last_report": (
                self.last_report.stuck_description() if self.last_report else None
            ),
        }

    # -- state publication ---------------------------------------------
    def publish_state(self, status: str = "running") -> None:
        """Publish this rank's flight-recorder snapshot for the group."""
        group = self.group
        snapshot = group.flight_recorder.group_snapshot(group._group_id)
        snapshot["status"] = status
        blocked = getattr(group.hub, "blocked_receivers", None)
        if blocked is not None:
            snapshot["transport"] = [
                entry for entry in blocked() if entry["rank"] == group.global_rank
            ]
        group.store.set(self._state_key(group.global_rank), snapshot)

    # -- main loop ------------------------------------------------------
    def _loop(self) -> None:
        group = self.group
        while not self._stop.wait(self.poll_interval):
            try:
                alarm = group.store.try_get(f"{self._prefix}/alarm")
                if alarm is not None and alarm["id"] != self._answered_alarm:
                    self._answered_alarm = alarm["id"]
                    self.alarms_answered += 1
                    self.publish_state()
                inflight = group._inflight
                if inflight is None:
                    continue
                work, since = inflight
                if (
                    id(work) not in self._reported
                    and time.perf_counter() - since > self.hang_threshold
                ):
                    self._reported.add(id(work))
                    self._handle_hang(work)
            except Exception as exc:  # never let diagnostics kill the run
                warn_once(
                    f"watchdog-{group._group_id}-{group.global_rank}-"
                    f"{type(exc).__name__}",
                    "watchdog iteration failed: %s",
                    traceback.format_exc(),
                )

    def _handle_hang(self, work) -> None:
        group = self.group
        # One reporter per group; later detectors just publish state so
        # the reporter's gather sees them.
        if group.store.add(f"{self._prefix}/alarm_guard", 1) != 1:
            self.publish_state()
            return
        alarm_id = f"rank{group.global_rank}:{work.description}"
        group.store.set(
            f"{self._prefix}/alarm",
            {"id": alarm_id, "rank": group.global_rank,
             "collective": work.description},
        )
        self._answered_alarm = alarm_id
        self.publish_state()
        stuck = work.record.as_dict()

        # Give peers' watchdogs a grace window to answer the alarm; ranks
        # that shut down already left a parting snapshot.
        deadline = time.perf_counter() + self.grace
        member_keys = {r: self._state_key(r) for r in group.ranks}
        while time.perf_counter() < deadline:
            if all(group.store.try_get(k) is not None for k in member_keys.values()):
                break
            time.sleep(self.poll_interval)
        rank_states = {
            r: group.store.try_get(key) for r, key in member_keys.items()
        }

        report = build_desync_report(
            group._group_id, group.global_rank, stuck,
            self.hang_threshold, rank_states,
        )
        self.last_report = report
        self.alarms_raised += 1
        rendered = report.render()
        logger.error("%s", rendered)

        from repro.comm.process_group import CollectiveTimeoutError

        work._complete(
            CollectiveTimeoutError(
                f"collective {work.description!r} hung past the watchdog "
                f"threshold ({self.hang_threshold:.1f}s of the "
                f"{group.timeout:.1f}s group timeout)\n{rendered}"
            )
        )
        # The stuck collective can never complete; close the hub so every
        # blocked receiver wakes and the run fails fast with
        # the report above instead of a bare timeout.
        group.hub.close()
