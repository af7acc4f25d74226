"""Store-based rank heartbeats and dead-rank detection.

The hang watchdog (``repro.debug``) diagnoses a stuck collective after
a large fraction of the group timeout.  Heartbeats detect a *dead* rank
much faster: every rank publishes a monotonically increasing beat into
the rendezvous store from a dedicated daemon thread, and the elastic
supervisor declares a rank dead when its beat stops advancing for
``miss_threshold`` seconds (a handful of heartbeat intervals, typically
two orders of magnitude below the transport timeout).

A rank that is merely *blocked* in a collective keeps beating — its
heartbeat thread is independent of the rank thread — so stalls are left
to the watchdog and only true process death trips the monitor.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.debug.flight_recorder import record_incident


def heartbeat_key(namespace: str, rank: int) -> str:
    """Store key carrying one rank's heartbeat."""
    return f"{namespace}/hb/rank{rank}"


class Heartbeat:
    """Publishes one rank's liveness into the store at a fixed interval."""

    def __init__(self, store, namespace: str, rank: int, interval: float = 0.05):
        self.store = store
        self.namespace = namespace
        self.rank = rank
        self.interval = interval
        self.beats = 0
        self._stop = threading.Event()
        self._suspended_until = 0.0
        self._thread = threading.Thread(
            target=self._loop, name=f"hb-{namespace}-rank{rank}", daemon=True
        )

    def suspend(self, seconds: float) -> None:
        """Stop publishing for ``seconds`` without stopping the thread.

        Simulates a *flapping* rank — one whose beat goes stale long
        enough for the monitor to declare it dead, then resumes within
        the same generation (a GC pause, a swapped-out process).  The
        elastic supervisor distinguishes this from a real death at the
        generation boundary: the beat is fresh again, so the spot is
        kept in (or readmitted to) the membership.
        """
        self._suspended_until = time.monotonic() + seconds

    def beat_once(self) -> None:
        """Publish one beat immediately (also called by the loop)."""
        if time.monotonic() < self._suspended_until:
            return
        self.beats += 1
        self.store.set(
            heartbeat_key(self.namespace, self.rank),
            {"beat": self.beats, "time": time.monotonic()},
        )
        # Instant marker on the trace's resilience row.
        record_incident(self.rank, "heartbeat", "resilience",
                        beat=self.beats, namespace=self.namespace)

    def start(self) -> "Heartbeat":
        """Publish a first beat and start the background thread."""
        self.beat_once()
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat_once()

    def stop(self, timeout: float = 1.0) -> None:
        """Stop beating (the last published beat then goes stale)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)


class HeartbeatMonitor:
    """Watches a set of ranks' heartbeats and names the dead ones.

    ``grace`` covers startup: a rank that has never published at all is
    only reported dead once the grace period (from monitor construction)
    has passed, so slow thread spawns aren't misread as deaths.
    """

    def __init__(
        self,
        store,
        namespace: str,
        ranks: Sequence[int],
        miss_threshold: float = 0.25,
        grace: float = 2.0,
    ):
        self.store = store
        self.namespace = namespace
        self.ranks = list(ranks)
        self.miss_threshold = miss_threshold
        self.grace = grace
        self._born = time.monotonic()

    def last_beats(self) -> Dict[int, Optional[dict]]:
        """Raw last-published beat per rank (None when never seen)."""
        return {
            rank: self.store.try_get(heartbeat_key(self.namespace, rank))
            for rank in self.ranks
        }

    def beat_age(self, rank: int) -> Optional[float]:
        """Seconds since ``rank`` last beat (None when never seen).

        The supervisor's flap check: a rank declared dead by staleness
        whose age is back under ``miss_threshold`` at the generation
        boundary was flapping, not dead.
        """
        beat = self.store.try_get(heartbeat_key(self.namespace, rank))
        if beat is None:
            return None
        return time.monotonic() - beat["time"]

    def dead_ranks(self) -> List[int]:
        """Ranks whose heartbeat is stale beyond ``miss_threshold``."""
        now = time.monotonic()
        dead = []
        for rank, beat in self.last_beats().items():
            if beat is None:
                if now - self._born > max(self.grace, self.miss_threshold):
                    dead.append(rank)
            elif now - beat["time"] > self.miss_threshold:
                dead.append(rank)
        return dead

    def clear(self) -> int:
        """Delete this namespace's heartbeat keys from the store."""
        return self.store.delete_prefix(f"{self.namespace}/hb/")
