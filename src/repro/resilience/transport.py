"""Retrying, checksummed transport: survive drops instead of timing out.

:class:`ReliableTransportHub` layers a reliable-delivery protocol over
the in-process wire, the way TCP layers reliability over lossy IP:

* **Acked sends with sequence numbers** — every ``(src, dst, tag)``
  stream numbers its messages; the sender keeps each payload in a
  bounded retransmit buffer until the receiver's delivery marker (the
  "ack") passes it.  The buffer holds a *reference*: for a lent send
  (``repro.comm.algorithms``) that is a view of the sender's live
  buffer, which is sound because only an **unconsumed** sequence number
  is ever re-sent, and the ownership contract keeps a lent region
  unmodified until its message was consumed.
* **Seq-deduplication** — duplicate deliveries (retransmissions that
  crossed a late original, or a fault plan's ``duplicate`` rule) are
  recognised by sequence number and discarded.
* **Checksummed payloads** — each envelope carries a CRC32 of the
  original payload; a corrupted delivery (a ``corrupt`` fault, or real
  bit rot) is *detected* and retransmitted instead of being silently
  reduced into every replica's gradients.
* **Exponential backoff with jitter** — a receiver that finds nothing
  within its backoff slice requests a retransmission of the expected
  sequence number and doubles the slice (jittered, so ranks don't
  stampede in lockstep).
* **Per-collective retry budget** — retries are charged against the
  collective that issued the recv (the leading element of structured
  tags); exhausting the budget raises
  :class:`RetryBudgetExceededError` so a genuinely dead peer still
  fails fast rather than retrying forever.

Retry / retransmit / dedup / corruption counters are kept per receiving
rank, mirrored into telemetry (``transport.retries`` etc.) while it is
on, and surfaced through ``ddp_stats()["resilience"]``.  Under
telemetry each event is also an incident on the receiving rank's ring:
an instant on the trace's ``resilience`` row, and — by its ``src`` —
the source edge the health engine blames for a retransmit storm.

The plain :class:`~repro.comm.transport.TransportHub` remains the
default — the reliable hub costs one checksum per message and is opted
into by tests, chaos runs, and the elastic supervisor.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Sequence, Tuple

import numpy as np

from repro.comm.transport import (
    Signed,
    TransportHub,
    TransportTimeoutError,
    _NOTHING,
)
from repro.debug.flight_recorder import record_incident
from repro.debug.levels import DEBUG
from repro.telemetry.metrics import registry_for

#: Per-stream retransmit buffer depth (messages retained until acked).
SEND_LOG_CAPACITY = 512
#: Per-collective budget table size (oldest entries evicted beyond it).
BUDGET_TABLE_CAPACITY = 4096


class RetryBudgetExceededError(TransportTimeoutError):
    """A recv exhausted its collective's retry budget.

    Subclasses :class:`~repro.comm.transport.TransportTimeoutError` so
    existing timeout handling (process-group error mapping, hang
    reports) applies unchanged.
    """


@dataclass
class RetryPolicy:
    """Backoff and budget knobs for :class:`ReliableTransportHub`.

    ``base_backoff`` is the first wait slice; each empty slice doubles
    it up to ``max_backoff`` and multiplies by a jitter factor drawn
    uniformly from ``[1, 1 + jitter]``.  ``budget_per_collective`` caps
    the total retries charged to one collective across all of its chunk
    recvs on one rank.  ``verify_checksums`` gates CRC computation.
    """

    base_backoff: float = 0.002
    max_backoff: float = 0.1
    jitter: float = 0.5
    budget_per_collective: int = 256
    verify_checksums: bool = True


def _checksum(payload: Any) -> int:
    """CRC32 of a payload (ndarray bytes, or repr for other objects).

    A C-contiguous array is checksummed where it lies; only strided and
    0-d input is gathered into a temporary first.
    """
    if isinstance(payload, Signed):
        return zlib.crc32(repr(payload.signature).encode(), _checksum(payload.data))
    if isinstance(payload, np.ndarray):
        if payload.ndim and payload.flags.c_contiguous:
            return zlib.crc32(payload.reshape(-1).view(np.uint8))
        return zlib.crc32(np.ascontiguousarray(payload).tobytes())
    return zlib.crc32(repr(payload).encode())


class _Envelope:
    """One wire message: stream sequence number, payload, checksum."""

    __slots__ = ("seq", "payload", "checksum")

    def __init__(self, seq: int, payload: Any, checksum: int | None):
        self.seq = seq
        self.payload = payload
        self.checksum = checksum

    @property
    def nbytes(self) -> int:
        """Payload byte size, so hub byte counters stay meaningful."""
        return int(getattr(self.payload, "nbytes", 0))

    def __repr__(self) -> str:
        return f"<Envelope seq={self.seq} nbytes={self.nbytes}>"


def _collective_key(tag: Hashable) -> Hashable:
    """Budget bucket for a tag: structured tags lead with the collective
    identity ``(group_id, seq, op)``; any other tag — a small
    collective's ``(group_id, seq)`` among them — is its own bucket."""
    if isinstance(tag, tuple) and tag and isinstance(tag[0], tuple):
        return tag[0]
    return tag


class ReliableTransportHub(TransportHub):
    """A :class:`TransportHub` with acks, dedup, checksums, and retries.

    Drop-in compatible: collectives and process groups are unchanged —
    reliability lives entirely inside ``send``/``recv``.  A fault plan
    installed on this hub faults the *wire* (the mailbox deposit); the
    retransmit buffer keeps the authoritative payload, which is what
    makes injected drops and corruption survivable.

    Thread-safety matches the base hub: its one mutex guards mailboxes,
    logs, markers, and counters.
    """

    def __init__(
        self,
        world_size: int,
        default_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        seed: int = 0,
    ):
        super().__init__(world_size, default_timeout)
        self.retry = retry or RetryPolicy()
        self._jitter_rng = random.Random(seed)
        # Per-(src, dst, tag) stream state.
        self._send_seq: Dict[Tuple, int] = {}
        self._sent_log: Dict[Tuple, deque] = {}
        self._acked: Dict[Tuple, int] = {}
        self._recv_next: Dict[Tuple, int] = {}
        self._reorder: Dict[Tuple, dict] = {}
        # Per-collective retry budget usage (receiver side), bounded.
        self._budget_used: Dict[Tuple, int] = {}
        self._budget_order: deque = deque()
        # Per-receiving-rank counters.
        self.retries = [0] * world_size
        self.retransmits = [0] * world_size
        self.duplicates_dropped = [0] * world_size
        self.corrupt_detected = [0] * world_size
        self._stats_lock = threading.Lock()

    # -- sending --------------------------------------------------------
    def send(self, src: int, dst: int, tag: Hashable, payload: Any) -> None:
        """Deposit on the wire, then log the payload for retransmission.

        The fault plan (if any) filters only the wire deposit; the
        retransmit log always keeps the original payload and checksum.
        Logging after the deposit means a receiver that finds nothing
        has nothing to re-request yet: a retransmission only ever
        replaces a delivery the wire lost, never races the original.
        """
        self._check_rank(src)
        self._check_rank(dst)
        key = (src, dst, tag)
        policy = self.retry
        checksum = _checksum(payload) if policy.verify_checksums else None
        with self._mutex:
            seq = self._send_seq.get(key, 0) + 1
            self._send_seq[key] = seq
        plan = self.fault_plan
        deliveries = [payload] if plan is None else plan.on_send(src, dst, tag, payload)
        for item in deliveries:
            self._deposit(src, (dst,), tag, _Envelope(seq, item, checksum))
        with self._mutex:
            log = self._sent_log.get(key)
            if log is None:
                log = self._sent_log[key] = deque(maxlen=SEND_LOG_CAPACITY)
            log.append(_Envelope(seq, payload, checksum))
            # Prune entries the receiver has already consumed (acked).
            acked = self._acked.get(key, 0)
            while log and log[0].seq <= acked:
                log.popleft()

    def post(self, src: int, dsts: Sequence[int], tag: Hashable, payload: Any) -> None:
        """One reliable :meth:`send` per destination: each stream logs,
        numbers and checksums its own copy of the message."""
        for dst in dsts:
            self.send(src, dst, tag, payload)

    def _retransmit(self, key: Tuple, seq: int) -> bool:
        """Redeliver ``seq`` from the sender's log (through the faulty
        wire again) if the wire lost it; returns False when there is
        nothing to redeliver: a message waits in the mailbox, ``seq`` was
        consumed, or the sender has not sent it yet."""
        src, dst, tag = key
        with self._mutex:
            if key in self._mailboxes or self._recv_next.get(key, 1) != seq:
                return False
            log = self._sent_log.get(key, ())
            envelope = next((e for e in log if e.seq == seq), None)
        if envelope is None:
            return False
        plan = self.fault_plan
        if plan is None:
            deliveries = [envelope.payload]
        else:
            # crashable=False: this runs on the *receiver's* thread; a
            # crash rule aimed at the sender must not kill the receiver.
            deliveries = plan.on_send(src, dst, tag, envelope.payload, crashable=False)
        for item in deliveries:
            self._deposit(src, (dst,), tag, _Envelope(seq, item, envelope.checksum))
        with self._stats_lock:
            self.retransmits[dst] += 1
        if DEBUG.telemetry:
            registry_for(dst).counter("transport.retransmits").add(1)
            record_incident(dst, "retransmit", "resilience", seq=seq, src=src)
        return True

    # -- receiving ------------------------------------------------------
    def _charge_retry(self, dst: int, tag: Hashable) -> int:
        """Count one retry against the rank and the collective's budget;
        returns the budget used so far for this collective."""
        ckey = (dst, _collective_key(tag))
        with self._stats_lock:
            self.retries[dst] += 1
            used = self._budget_used.get(ckey)
            if used is None:
                self._budget_order.append(ckey)
                if len(self._budget_order) > BUDGET_TABLE_CAPACITY:
                    self._budget_used.pop(self._budget_order.popleft(), None)
                used = 0
            used += 1
            self._budget_used[ckey] = used
        if DEBUG.telemetry:
            registry_for(dst).counter("transport.retries").add(1)
            record_incident(dst, "retry", "resilience",
                            collective=repr(_collective_key(tag)), used=used)
        return used

    def recv(self, dst: int, src: int, tag: Hashable, timeout: float | None = None) -> Any:
        """Reliable blocking receive: dedup, verify, retry with backoff.

        Raises :class:`RetryBudgetExceededError` when the collective's
        retry budget is exhausted and
        :class:`~repro.comm.transport.TransportTimeoutError` when the
        overall deadline passes without a valid delivery.
        """
        return self._receive(dst, src, tag, timeout, block=True)

    def poll(self, dst: int, src: int, tag: Hashable) -> Any:
        """Reliable non-blocking receive: dedup and verify what is there.

        Returns ``_NOTHING`` without parking when no valid delivery is
        waiting; then, if the sender has already logged the expected
        message (the wire lost it), it is re-requested — so a caller
        that only ever polls still recovers a drop.  Polls charge no
        retry budget.
        """
        return self._receive(dst, src, tag, None, block=False)

    def collect(self, dst: int, srcs: Sequence[int], tag: Hashable) -> list:
        """One reliable :meth:`poll` per source, in ``srcs`` order."""
        return [self.poll(dst, src, tag) for src in srcs]

    def _receive(self, dst: int, src: int, tag: Hashable, timeout: float | None,
                 block: bool) -> Any:
        self._check_rank(src)
        self._check_rank(dst)
        key = (src, dst, tag)
        policy = self.retry
        total = timeout if timeout is not None else self.default_timeout
        deadline = time.perf_counter() + total
        retries_here = 0
        backoff = policy.base_backoff

        def finish(payload: Any) -> Any:
            with self._mutex:
                expected = self._recv_next.get(key, 1)
                self._recv_next[key] = expected + 1
                self._acked[key] = expected
            return payload

        while True:
            with self._mutex:
                expected = self._recv_next.get(key, 1)
                stash = self._reorder.get(key)
                held = stash.pop(expected, None) if stash else None
            if held is not None:
                return finish(held.payload)

            if block:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise TransportTimeoutError(
                        f"rank {dst} timed out waiting for message from rank {src} "
                        f"tag {tag!r} after {total}s despite {retries_here} "
                        f"retries (peer rank diverged, hung, or died?)"
                    )
                envelope = self._wait_one(key, min(backoff, remaining))
            else:
                with self._mutex:
                    envelope = self._pop(key)
                if envelope is _NOTHING:
                    self._retransmit(key, expected)
                    return _NOTHING

            if envelope is _NOTHING:
                retries_here += 1
                used = self._charge_retry(dst, tag)
                if used > policy.budget_per_collective:
                    raise RetryBudgetExceededError(
                        f"rank {dst} exhausted the retry budget "
                        f"({policy.budget_per_collective}) for collective "
                        f"{_collective_key(tag)!r} waiting on rank {src} "
                        f"(tag {tag!r}) — peer presumed dead"
                    )
                self._retransmit(key, expected)
                backoff = min(backoff * 2.0, policy.max_backoff)
                backoff *= 1.0 + policy.jitter * self._jitter_rng.random()
                continue

            if envelope.seq < expected:
                with self._stats_lock:
                    self.duplicates_dropped[dst] += 1
                if DEBUG.telemetry:
                    registry_for(dst).counter("transport.duplicates_dropped").add(1)
                    record_incident(dst, "duplicate_dropped", "resilience",
                                    seq=envelope.seq, src=src)
                continue
            if (
                policy.verify_checksums
                and envelope.checksum is not None
                and _checksum(envelope.payload) != envelope.checksum
            ):
                with self._stats_lock:
                    self.corrupt_detected[dst] += 1
                if DEBUG.telemetry:
                    registry_for(dst).counter("transport.corrupt_detected").add(1)
                    record_incident(dst, "corrupt_detected", "resilience",
                                    seq=envelope.seq, src=src)
                self._retransmit(key, envelope.seq)
                continue
            if envelope.seq > expected:
                # A gap: an earlier message was dropped on the wire.
                # Hold this one and pull the missing seq from the log.
                with self._mutex:
                    stash = self._reorder.setdefault(key, {})
                    if envelope.seq in stash:
                        dup = True
                    else:
                        stash[envelope.seq] = envelope
                        dup = False
                if dup:
                    with self._stats_lock:
                        self.duplicates_dropped[dst] += 1
                else:
                    self._retransmit(key, expected)
                continue
            return finish(envelope.payload)

    # -- reporting ------------------------------------------------------
    def resilience_stats(self) -> dict:
        """Aggregate retry/dedup/corruption counters (JSON-friendly)."""
        with self._stats_lock:
            return {
                "retries": list(self.retries),
                "retransmits": list(self.retransmits),
                "duplicates_dropped": list(self.duplicates_dropped),
                "corrupt_detected": list(self.corrupt_detected),
                "total_retries": sum(self.retries),
                "total_retransmits": sum(self.retransmits),
                "total_duplicates_dropped": sum(self.duplicates_dropped),
                "total_corrupt_detected": sum(self.corrupt_detected),
            }
