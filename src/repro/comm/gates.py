"""Keyed parking: block until *this* key has something, wake only its waiters.

:class:`~repro.comm.transport.TransportHub` ("a message for this
mailbox") and :class:`~repro.comm.store.Store` ("a value under this
key") block the same way, and a shared ``threading.Condition`` serves
both badly: every deposit wakes every waiter of the object, and each of
them takes the GIL and the lock to learn the news was not for it.  Here
a waiter that finds nothing parks on a private gate — a raw lock it
holds and tries to take a second time — filed under its key; whoever
fills a key takes that key's gates out of the table and opens them
after dropping the mutex.  A waiter that finds what it wants at once
allocates and files nothing.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

#: "Nothing there (yet)": what a poll returns to park, and what
#: :meth:`KeyedGates.wait` returns when its timeout ran out.
NOTHING = object()

#: A parked waiter: its gate and when it first parked.
Parked = Tuple[Any, float]


class KeyedGates:
    """Table of parked waiters by key, over the owner's mutex.

    Invariant: a gate in the table is locked, and leaves the table
    exactly once per parking — taken by a filler (who then opens it) or
    withdrawn by its waiter.  :meth:`take` / :meth:`take_all` /
    :meth:`parked` are called with the mutex held; :meth:`wait` and
    :func:`open_gates` without it.
    """

    def __init__(self, mutex):
        self._mutex = mutex
        self._parked: Dict[Hashable, List[Parked]] = {}

    def wait(self, key: Hashable, poll: Callable[[Hashable], Any], timeout: float) -> Any:
        """``poll(key)`` under the mutex until it yields something.

        ``poll`` returns :data:`NOTHING` to keep waiting (it may raise,
        e.g. on a closed owner).  It runs once up front and again every
        time ``key`` was filled; :data:`NOTHING` comes back when
        ``timeout`` seconds passed first — after one last poll, so a
        fill that raced the deadline is not lost.
        """
        with self._mutex:
            value = poll(key)
            if value is not NOTHING:
                return value
            gate = threading.Lock()
            gate.acquire()
            entry = (gate, time.perf_counter())
            self._parked.setdefault(key, []).append(entry)
        deadline = entry[1] + timeout
        while True:
            opened = gate.acquire(timeout=max(0.0, deadline - time.perf_counter()))
            with self._mutex:
                if not opened:
                    self._withdraw(key, entry)
                value = poll(key)
                if value is NOTHING and opened:
                    # Filled, but a sibling on the same key got there first.
                    self._parked.setdefault(key, []).append(entry)
                    continue
                return value

    def _withdraw(self, key: Hashable, entry: Parked) -> None:
        """Un-file a timed-out waiter (a filler may have taken it already)."""
        entries = self._parked.get(key)
        if entries and entry in entries:
            entries.remove(entry)
            if not entries:
                del self._parked[key]

    def take(self, key: Hashable) -> Sequence[Parked]:
        """Remove and return ``key``'s waiters, for :func:`open_gates`."""
        return self._parked.pop(key, ())

    def take_all(self) -> List[Parked]:
        """Remove and return every waiter (the owner is closing)."""
        entries = [entry for parked in self._parked.values() for entry in parked]
        self._parked.clear()
        return entries

    def parked(self) -> List[Tuple[Hashable, float]]:
        """``(key, parked_since)`` of every waiter in the table."""
        return [
            (key, since)
            for key, entries in self._parked.items()
            for _gate, since in entries
        ]

    def __len__(self) -> int:
        return len(self._parked)


def open_gates(entries: Sequence[Parked]) -> None:
    """Wake taken waiters; call after dropping the mutex, so none of
    them wakes only to block on it."""
    for gate, _since in entries:
        gate.release()
