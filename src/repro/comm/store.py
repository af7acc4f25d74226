"""Rendezvous key/value store (the ``TCPStore`` analog).

The paper (§3.3) describes ProcessGroup construction as "implemented
using a rendezvous service, where the first arrival will block waiting
until the last instance joins".  ``Store`` provides exactly that:
blocking ``get``/``wait`` plus an atomic ``add`` counter that the group
constructors use to allocate ids and count arrivals.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable

from repro.comm.gates import NOTHING, KeyedGates, open_gates


class StoreTimeoutError(TimeoutError):
    """A blocking store operation exceeded its timeout."""


class Store:
    """Thread-safe key/value store with blocking reads and atomic adds.

    Every blocking read parks on the key it waits for
    (:mod:`repro.comm.gates`); ``set`` / ``add`` wake the readers of the
    key they wrote and nobody else.
    """

    def __init__(self, timeout: float = 30.0):
        self._data: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._gates = KeyedGates(self._lock)
        self.timeout = timeout

    def set(self, key: str, value: Any) -> None:
        """Publish ``value`` under ``key`` and wake the readers parked on it."""
        with self._lock:
            self._data[key] = value
            parked = self._gates.take(key)
        open_gates(parked)

    def _peek(self, key: str) -> Any:
        return self._data.get(key, NOTHING)

    def get(self, key: str, timeout: float | None = None) -> Any:
        """Return ``key``'s value, blocking until some rank sets it."""
        deadline = timeout if timeout is not None else self.timeout
        value = self._gates.wait(key, self._peek, deadline)
        if value is NOTHING:
            raise StoreTimeoutError(f"store.get({key!r}) timed out after {deadline}s")
        return value

    def try_get(self, key: str, default: Any = None) -> Any:
        """Non-blocking read: ``key``'s value, or ``default`` if unset.

        The hang watch polls with this — peeking for an alarm or a
        peer's state must never block behind a rank that will not write.
        """
        with self._lock:
            return self._data.get(key, default)

    def add(self, key: str, amount: int = 1) -> int:
        """Atomically add to an integer key, creating it at 0; returns the new value."""
        with self._lock:
            value = int(self._data.get(key, 0)) + amount
            self._data[key] = value
            parked = self._gates.take(key)
        open_gates(parked)
        return value

    def wait(self, keys: Iterable[str], timeout: float | None = None) -> None:
        """Block until every key in ``keys`` exists; raises on timeout."""
        keys = list(keys)
        deadline = time.perf_counter() + (timeout if timeout is not None else self.timeout)
        for key in keys:
            remaining = max(0.0, deadline - time.perf_counter())
            if self._gates.wait(key, self._peek, remaining) is NOTHING:
                with self._lock:
                    missing = [k for k in keys if k not in self._data]
                raise StoreTimeoutError(f"store.wait timed out; missing keys {missing}")

    def wait_value(self, key: str, predicate, timeout: float | None = None) -> Any:
        """Block until ``predicate(store[key])`` holds; returns the value."""
        deadline = timeout if timeout is not None else self.timeout

        def accepted(key: str) -> Any:
            value = self._data.get(key, NOTHING)
            return value if value is not NOTHING and predicate(value) else NOTHING

        value = self._gates.wait(key, accepted, deadline)
        if value is NOTHING:
            raise StoreTimeoutError(f"store.wait_value({key!r}) timed out")
        return value

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns True if it existed."""
        with self._lock:
            return self._data.pop(key, None) is not None

    def delete_prefix(self, prefix: str) -> int:
        """Remove every key starting with ``prefix``; returns the count.

        Process groups call this on destroy to drop their namespaced
        keys (rendezvous counters, hang-watch snapshots, barrier counters,
        and the per-rank collective signatures published only under
        ``REPRO_DEBUG=DETAIL``), so long-lived stores — notably the one
        shared across elastic re-rendezvous generations — do not grow
        unboundedly.
        """
        with self._lock:
            victims = [key for key in self._data if key.startswith(prefix)]
            for key in victims:
                del self._data[key]
            return len(victims)

    def keys(self, prefix: str = "") -> list:
        """Snapshot of all keys currently set (optionally prefix-filtered)."""
        with self._lock:
            if prefix:
                return [key for key in self._data if key.startswith(prefix)]
            return list(self._data)
