"""Point-to-point transport between ranks.

``TransportHub`` is the wire: every (src → dst) pair owns a set of tagged
mailboxes.  Collective algorithms are written purely in terms of
``send``/``recv``, exactly as they would be over sockets or InfiniBand
verbs, so the ring and tree implementations in
``algorithms.py`` are the real algorithms, not shortcuts through shared
memory.

**Ownership contract.**  The hub moves references, not bytes: ``recv``
returns the very object ``send`` was given.  So *a sent array is not
modified until the peer consumed it* — the sender keeps that promise,
the hub does not police it.  The collectives in ``algorithms.py``
guarantee it three ways: an *eager* send hands over a private copy
(small buffers, and every one-round collective); a *lent* send hands
over a view of the live buffer and is protected by *causality* (the
sender's next write to the region is triggered by a message that
follows the peer's read) or by a zero-byte *completion token* the peer
sends back after its last read.  A receiver, in turn, only reads what
it received.

The hub also keeps per-rank traffic counters (messages and bytes sent),
which the tests use to verify algorithmic properties such as "ring
AllReduce sends ``2*(p-1)`` segments per rank".
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Hashable, NamedTuple, Sequence, Tuple

from repro.comm.gates import NOTHING, KeyedGates, open_gates


class TransportTimeoutError(TimeoutError):
    """A ``recv`` found no matching message before its deadline.

    In real deployments this surfaces as a NCCL/Gloo timeout or hang —
    the failure mode of Fig. 3 when ranks disagree on what to send.
    """


class TransportClosedError(RuntimeError):
    """The hub was shut down while a rank was blocked in ``recv``."""


#: Sentinel distinguishing "no message before the slice expired" from a
#: legitimate ``None`` payload in :meth:`TransportHub._wait_one`.
_NOTHING = NOTHING


class Signed(NamedTuple):
    """A payload with its sender's collective fingerprint: what a small
    collective posts, so every receiver compares fingerprints on arrival."""

    signature: dict
    data: Any

    @property
    def nbytes(self) -> int:
        """The data's byte size, so traffic counters count the payload."""
        return int(getattr(self.data, "nbytes", 0))


class TransportHub:
    """In-process message fabric connecting ``world_size`` ranks.

    Thread-safety: fully thread-safe — one mutex guards the mailboxes,
    counters, and the table of parked receivers, so any number of
    threads may ``send``/``recv`` concurrently.
    A receiver that finds its mailbox empty parks on a private gate
    filed under its ``(src, dst, tag)`` (:mod:`repro.comm.gates`); a
    deposit opens the gates of the mailbox it filled and nobody else's,
    and a message that is already there costs one mutex round.  A
    mailbox exists only while it holds a message.  ``send`` never blocks
    (the deposit models the wire: the payload is on its way the moment
    the call returns), which is what lets every rank of a ring send
    before it receives.

    Cost model: one ``send``/``recv`` pair is one α (latency) plus
    ``payload.nbytes``·β (bandwidth) in the paper's terms; the per-rank
    ``messages_sent``/``bytes_sent`` counters measure exactly those two
    quantities for tests and benchmarks.
    """

    def __init__(self, world_size: int, default_timeout: float = 30.0):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.default_timeout = default_timeout
        self._mutex = threading.Lock()
        self._mailboxes: Dict[Tuple[int, int, Hashable], deque] = {}
        # Parked receivers by mailbox key — also the hang watch's
        # "who is stuck waiting on whom" evidence.
        self._gates = KeyedGates(self._mutex)
        self._closed = False
        self.messages_sent = [0] * world_size
        self.bytes_sent = [0] * world_size
        #: Optional :class:`repro.resilience.FaultPlan` consulted on every
        #: send (delay / slow-rank / crash-rank rules).
        self.fault_plan = None

    def install_fault_plan(self, plan) -> None:
        """Install a fault-injection plan; ``None`` removes it.

        Every subsequent :meth:`send` consults ``plan.on_send`` — the
        plan may delay the delivery or raise
        :class:`~repro.resilience.InjectedRankFailure` on the sending
        thread; it never alters what lands.  Process groups sharing
        this hub pick the plan up for collective-scoped rules as well.
        """
        self.fault_plan = plan

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world size {self.world_size}")

    def send(self, src: int, dst: int, tag: Hashable, payload: Any) -> None:
        """Deposit ``payload`` into the (src, dst, tag) mailbox.

        The payload is delivered by reference (see the module's
        ownership contract), exactly once.
        """
        self._check_rank(src)
        self._check_rank(dst)
        plan = self.fault_plan
        if plan is not None:
            plan.on_send(src, dst, tag)
        self._deposit(src, (dst,), tag, payload)

    def post(self, src: int, dsts: Sequence[int], tag: Hashable, payload: Any) -> None:
        """:meth:`send` one ``payload`` to each of ``dsts`` (trusted to be
        in range) in one mutex round; counters and a fault plan see one
        send per destination."""
        plan = self.fault_plan
        if plan is not None:
            for dst in dsts:
                plan.on_send(src, dst, tag)
        self._deposit(src, dsts, tag, payload)

    def _deposit(self, src: int, dsts: Sequence[int], tag: Hashable, payload: Any) -> None:
        """Place one message per destination on the wire (counters +
        receiver wakeup), under one mutex round."""
        nbytes = int(getattr(payload, "nbytes", 0))
        parked: list = []
        with self._mutex:
            if self._closed:
                raise TransportClosedError("transport hub is closed")
            for dst in dsts:
                key = (src, dst, tag)
                self._mailboxes.setdefault(key, deque()).append(payload)
                parked += self._gates.take(key)
            self.messages_sent[src] += len(dsts)
            self.bytes_sent[src] += nbytes * len(dsts)
        open_gates(parked)

    def recv(self, dst: int, src: int, tag: Hashable, timeout: float | None = None) -> Any:
        """Block until a message matching (src, dst, tag) arrives."""
        self._check_rank(src)
        self._check_rank(dst)
        deadline = timeout if timeout is not None else self.default_timeout
        key = (src, dst, tag)
        payload = self._wait_one(key, deadline)
        if payload is _NOTHING:
            raise TransportTimeoutError(
                f"rank {dst} timed out waiting for message from rank {src} "
                f"tag {tag!r} after {deadline}s (peer rank diverged or hung?)"
            )
        return payload

    def poll(self, dst: int, src: int, tag: Hashable) -> Any:
        """Non-blocking :meth:`recv`: the next (src, dst, tag) message, or
        :data:`~repro.comm.gates.NOTHING` if none has arrived.  Never
        parks; a closed hub raises ``TransportClosedError``."""
        with self._mutex:
            return self._pop((src, dst, tag))

    def collect(self, dst: int, srcs: Sequence[int], tag: Hashable) -> list:
        """:meth:`poll` each of ``srcs`` in one mutex round: their next
        (src, dst, tag) messages, in ``srcs`` order, with
        :data:`~repro.comm.gates.NOTHING` where none has arrived."""
        with self._mutex:
            return [self._pop((src, dst, tag)) for src in srcs]

    def _wait_one(self, key: Tuple[int, int, Hashable], timeout: float) -> Any:
        """Pop the next message for ``key``, or ``_NOTHING`` on timeout.

        While parked the receiver shows in :meth:`blocked_receivers`
        (hang-watch evidence); a hub close raises ``TransportClosedError``.
        """
        return self._gates.wait(key, self._pop, timeout)

    def _pop(self, key: Tuple[int, int, Hashable]) -> Any:
        """Under the mutex: ``key``'s oldest message, freeing an emptied mailbox."""
        if self._closed:
            raise TransportClosedError("transport hub closed during recv")
        box = self._mailboxes.get(key)
        if box is None:
            return _NOTHING
        payload = box.popleft()
        if not box:
            del self._mailboxes[key]
        return payload

    def close(self) -> None:
        """Wake every blocked receiver with ``TransportClosedError``."""
        with self._mutex:
            self._closed = True
            parked = self._gates.take_all()
        open_gates(parked)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; sends and recvs then raise."""
        return self._closed

    def blocked_receivers(self) -> list:
        """Snapshot of ranks currently blocked in :meth:`recv`.

        Each entry names the blocked rank, the rank it is waiting on,
        the tag, and how long it has been blocked — the transport-level
        view a desync report attaches per rank.
        """
        now = time.perf_counter()
        with self._mutex:
            parked = self._gates.parked()
        return [
            {
                "rank": dst,
                "waiting_on": src,
                "tag": repr(tag),
                "blocked_s": now - since,
            }
            for (src, dst, tag), since in parked
        ]

    def reset_stats(self) -> None:
        """Zero the per-rank message/byte counters (thread-safe)."""
        with self._mutex:
            self.messages_sent = [0] * self.world_size
            self.bytes_sent = [0] * self.world_size

    def pending_messages(self) -> int:
        """Total messages deposited but not yet received (thread-safe)."""
        with self._mutex:
            return sum(len(box) for box in self._mailboxes.values())
