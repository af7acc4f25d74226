"""Deterministic, declarative fault injection.

Production DDP stacks treat failures as routine; reproducing that
requires making failure a *library feature* rather than an ad-hoc test
fixture.  A :class:`FaultPlan` is a seeded list of :class:`FaultRule`
entries installed on a :class:`~repro.comm.transport.TransportHub`
(wire-scoped rules: delay / crash / slow) and picked up by every
:class:`~repro.comm.process_group.ProcessGroup` sharing the hub
(collective-scoped rules: crash a rank as it issues its *n*-th matching
collective — e.g. exactly at a bucket boundary of a DDP backward).

The wire never loses, duplicates or corrupts a message: NCCL and Gloo
run over transports that already deliver reliably (paper §3.3), and so
does the in-process hub.  So a wire rule only slows a send or kills its
sender — the failures a data-parallel job actually meets.

Determinism: probabilistic rules hash ``(seed, rule, src, dst, tag,
match-count)`` into a uniform draw, so the *same messages* are faulted
on every run regardless of thread interleaving — a seeded chaos run is
reproducible.  ``after``/``times`` windows count matches **per edge**
(per ``(src, dst)`` pair for wire rules, per rank for collective rules)
for the same reason.

Taxonomy mapping to the paper's failure modes (§3.3, Fig. 3) and to the
recovery behaviour in this package is tabulated in
``docs/resilience.md``.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Rule scopes.
WIRE = "wire"
COLLECTIVE = "collective"
CHECKPOINT = "checkpoint"
ELASTIC = "elastic"

#: Wire-scoped: add latency to matching sends.
DELAY = "delay"
#: Either scope: terminate the matching rank with InjectedRankFailure.
CRASH_RANK = "crash_rank"
#: Checkpoint-scoped: tear the final on-disk bytes of a matching write
#: (truncate + flip), producing exactly the signature the CRC trailer
#: and manifest verification exist to catch.
CORRUPT_FILE = "corrupt_file"
#: Checkpoint-scoped: a slow disk — sleep before a matching write lands.
DELAY_WRITE = "delay_write"
#: Elastic-scoped: a departed rank announces it wants back in; the
#: elastic supervisor admits it at the next generation boundary when
#: ``allow_grow`` is set.
REJOIN_RANK = "rejoin_rank"

_ACTIONS = {
    DELAY, CRASH_RANK, CORRUPT_FILE, DELAY_WRITE, REJOIN_RANK,
}
_CHECKPOINT_ACTIONS = {CORRUPT_FILE, DELAY_WRITE}


class InjectedRankFailure(RuntimeError):
    """A fault plan terminated this rank (simulated process death).

    Raised on the matching rank's own thread — either at a transport
    ``send`` (wire scope) or as the rank issues a collective (collective
    scope).  The elastic supervisor treats it as a dead rank and applies
    the configured degraded-mode policy.
    """

    def __init__(self, rank: int, reason: str = "injected rank failure"):
        super().__init__(f"rank {rank}: {reason}")
        self.rank = rank


def _unit(seed: int, *parts) -> float:
    """Deterministic uniform draw in [0, 1) from hashed identifiers."""
    blob = repr((seed,) + parts).encode()
    return zlib.crc32(blob) / 2**32


@dataclass
class FaultRule:
    """One declarative fault: an action plus match predicates.

    Parameters
    ----------
    action:
        One of ``delay``, ``crash_rank`` (wire),
        ``corrupt_file``, ``delay_write`` (checkpoint) or
        ``rejoin_rank`` (elastic).
    scope:
        ``"wire"`` (matched against transport sends) or ``"collective"``
        (matched as a rank issues a collective).  Only ``crash_rank``
        supports the collective scope.
    rank:
        Match only this sending/issuing rank (``None`` = any).
    dst:
        Wire scope: match only this destination rank.
    op:
        Collective scope: match only this op name (``"allreduce"``...).
    tag_contains:
        Wire scope: substring match against ``repr(tag)``.
    predicate:
        Extra callable — wire: ``(src, dst, tag) -> bool``; collective:
        ``(rank, op, seq) -> bool``.
    probability:
        Trigger chance per match, drawn deterministically from the
        plan's seed (see module docstring).
    after:
        Skip the first ``after`` matches (per edge) before triggering.
    times:
        Trigger at most this many times (per edge); ``None`` = always.
    delay:
        Sleep seconds for ``delay`` actions.
    """

    action: str
    scope: str = WIRE
    rank: Optional[int] = None
    dst: Optional[int] = None
    op: Optional[str] = None
    tag_contains: Optional[str] = None
    predicate: Optional[Callable] = None
    probability: float = 1.0
    after: int = 0
    times: Optional[int] = None
    delay: float = 0.0
    #: Total trigger count (all edges), maintained by the plan.
    triggered: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; options: {sorted(_ACTIONS)}")
        if self.scope not in (WIRE, COLLECTIVE, CHECKPOINT, ELASTIC):
            raise ValueError(f"unknown fault scope {self.scope!r}")
        if self.scope == COLLECTIVE and self.action != CRASH_RANK:
            raise ValueError("collective-scoped rules only support crash_rank")
        if (self.scope == CHECKPOINT) != (self.action in _CHECKPOINT_ACTIONS):
            raise ValueError(
                "corrupt_file/delay_write are checkpoint-scoped (and the "
                "checkpoint scope supports only them); use the "
                "corrupt_file()/delay_write(seconds) constructors"
            )
        if (self.scope == ELASTIC) != (self.action == REJOIN_RANK):
            raise ValueError(
                "rejoin_rank is elastic-scoped (and the elastic scope "
                "supports only it); use the rejoin_rank(spot, generation=g) "
                "constructor"
            )
        if self.action == REJOIN_RANK and self.rank is None:
            raise ValueError("rejoin_rank requires the returning spot id")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def _matches_wire(self, src: int, dst: int, tag) -> bool:
        if self.scope != WIRE:
            return False
        if self.rank is not None and src != self.rank:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.tag_contains is not None and self.tag_contains not in repr(tag):
            return False
        if self.predicate is not None and not self.predicate(src, dst, tag):
            return False
        return True

    def _matches_collective(self, rank: int, op: str, seq: int) -> bool:
        if self.scope != COLLECTIVE:
            return False
        if self.rank is not None and rank != self.rank:
            return False
        if self.op is not None and op != self.op:
            return False
        if self.predicate is not None and not self.predicate(rank, op, seq):
            return False
        return True

    def _matches_checkpoint(self, rank: int, path: str) -> bool:
        if self.scope != CHECKPOINT:
            return False
        if self.rank is not None and rank != self.rank:
            return False
        if self.tag_contains is not None and self.tag_contains not in path:
            return False
        if self.predicate is not None and not self.predicate(rank, path):
            return False
        return True


# Declarative constructors — `FaultPlan(rules=[delay(0.01, probability=0.1), ...])`.
def delay(seconds: float, **kwargs) -> FaultRule:
    """Rule: add ``seconds`` of latency to matching wire messages."""
    return FaultRule(DELAY, delay=seconds, **kwargs)


def crash_rank(rank: int, scope: str = WIRE, **kwargs) -> FaultRule:
    """Rule: kill ``rank`` at its next matching send or collective."""
    return FaultRule(CRASH_RANK, scope=scope, rank=rank, **kwargs)


def slow_rank(rank: int, seconds: float, **kwargs) -> FaultRule:
    """Rule: delay every send from ``rank`` (a persistent straggler)."""
    return delay(seconds, rank=rank, **kwargs)


def corrupt_file(**kwargs) -> FaultRule:
    """Rule: tear matching checkpoint writes (truncate + flip a byte).

    Matched against ``(rank, path)`` of every file the verified
    checkpoint writer produces; ``tag_contains`` substring-matches the
    path.  The damage is applied to the *final* on-disk bytes — after
    the CRC trailer is computed — so a firing rule produces a genuine
    torn-write signature that loads must reject with ``ChecksumError``.
    """
    return FaultRule(CORRUPT_FILE, scope=CHECKPOINT, **kwargs)


def delay_write(seconds: float, **kwargs) -> FaultRule:
    """Rule: simulate a slow disk — sleep before matching checkpoint
    writes reach the filesystem (exercises async-save overlap)."""
    return FaultRule(DELAY_WRITE, scope=CHECKPOINT, delay=seconds, **kwargs)


def rejoin_rank(spot: int, generation: int = 1, **kwargs) -> FaultRule:
    """Event: spot ``spot`` asks to rejoin during ``generation``.

    The elastic supervisor (``allow_grow=True``) sees the request once
    the run is in generation >= ``generation``, ends the running
    generation at a safe boundary, and re-rendezvouses with the spot
    admitted — so a spot killed in generation 0 with
    ``rejoin_rank(spot, generation=1)`` trains again from generation 2
    onward ("rejoins two generations later").  Without ``allow_grow``
    the event is inert.
    """
    return FaultRule(REJOIN_RANK, scope=ELASTIC, rank=spot, after=generation, **kwargs)


def _tear_bytes(data: bytes) -> bytes:
    """A deterministic torn-write signature: drop the tail third and
    flip a byte near the new end (catches both size and CRC checks)."""
    if len(data) < 3:
        return b""
    cut = max(1, (2 * len(data)) // 3)
    torn = bytearray(data[:cut])
    torn[-1] ^= 0x5A
    return bytes(torn)


class FaultPlan:
    """A seeded set of fault rules, installed on a transport hub.

    Thread-safe: rank threads consult the plan concurrently; per-edge match counters are guarded by one lock and
    probability draws are pure hashes of stable identifiers.

    Usage::

        plan = FaultPlan([slow_rank(1, 0.005),
                          crash_rank(2, scope="collective", op="allreduce",
                                     after=7, times=1)], seed=0)
        hub.install_fault_plan(plan)
    """

    def __init__(self, rules: List[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        # Per-rule, per-edge match counts: wire edges are (src, dst),
        # collective "edges" are the issuing rank.
        self._matches: List[Dict] = [dict() for _ in self.rules]
        self._fired: List[Dict] = [dict() for _ in self.rules]

    def install(self, hub) -> "FaultPlan":
        """Install this plan on ``hub`` (returns self for chaining)."""
        hub.install_fault_plan(self)
        return self

    # -- internal -------------------------------------------------------
    def _fire(self, index: int, rule: FaultRule, edge, *hash_parts) -> bool:
        """Count a match on ``edge`` and decide whether the rule fires."""
        with self._lock:
            count = self._matches[index].get(edge, 0)
            self._matches[index][edge] = count + 1
            if count < rule.after:
                return False
            if rule.times is not None and self._fired[index].get(edge, 0) >= rule.times:
                return False
            if rule.probability < 1.0 and _unit(
                self.seed, index, edge, count, *hash_parts
            ) >= rule.probability:
                return False
            self._fired[index][edge] = self._fired[index].get(edge, 0) + 1
            rule.triggered += 1
        return True

    # -- hooks ----------------------------------------------------------
    def on_send(self, src: int, dst: int, tag) -> None:
        """Apply the wire rules to one send, on the sending thread.

        May sleep (delay rules) and may raise
        :class:`InjectedRankFailure` (wire-scoped crash rules).
        """
        for index, rule in enumerate(self.rules):
            if not rule._matches_wire(src, dst, tag):
                continue
            if not self._fire(index, rule, (src, dst), repr(tag)):
                continue
            if rule.action == CRASH_RANK:
                raise InjectedRankFailure(
                    src, f"fault plan crashed the rank at send tag={tag!r}"
                )
            time.sleep(rule.delay)

    def on_collective(self, rank: int, op: str, seq: int, group_id=None) -> None:
        """Hook called as ``rank`` issues collective ``op`` at ``seq``.

        Raises :class:`InjectedRankFailure` when a collective-scoped
        crash rule fires — on the issuing rank's own thread, *before*
        anything is posted, which places the death exactly at a chosen
        bucket boundary of a DDP backward.
        """
        for index, rule in enumerate(self.rules):
            if not rule._matches_collective(rank, op, seq):
                continue
            if not self._fire(index, rule, rank, op):
                continue
            raise InjectedRankFailure(
                rank,
                f"fault plan crashed the rank issuing {op}#{seq}"
                + (f" (group {group_id})" if group_id is not None else ""),
            )

    def on_checkpoint_write(self, rank: int, path: str, data: bytes) -> bytes:
        """Filter one checkpoint file write; returns the bytes to land.

        The checkpoint engine hands this to the one atomic writer
        (:func:`repro.checkpoint.format.atomic_write`), which calls it
        with the final on-disk bytes — payload plus CRC trailer — so
        ``corrupt_file`` rules produce true torn-write signatures and
        ``delay_write`` rules model a slow disk (the sleep happens on
        whichever thread is writing: the training thread for synchronous
        saves, the engine's writer thread for async ones).
        """
        for index, rule in enumerate(self.rules):
            if not rule._matches_checkpoint(rank, path):
                continue
            if not self._fire(index, rule, rank, path):
                continue
            if rule.action == DELAY_WRITE:
                time.sleep(rule.delay)
            elif rule.action == CORRUPT_FILE:
                data = _tear_bytes(data)
        return data

    # -- elastic rejoin events ------------------------------------------
    def peek_rejoins(self, generation: int, exclude=()) -> List[int]:
        """Matured, unconsumed rejoin requests as of ``generation``.

        Non-destructive (the supervisor polls this mid-generation to
        decide whether to end the generation early); spots in
        ``exclude`` — typically the currently-live membership — are
        never reported.
        """
        exclude = set(exclude)
        with self._lock:
            return sorted(
                rule.rank
                for index, rule in enumerate(self.rules)
                if rule.action == REJOIN_RANK
                and rule.rank not in exclude
                and generation >= rule.after
                and not self._fired[index].get("rejoin")
            )

    def consume_rejoins(
        self, generation: int, exclude=(), limit: Optional[int] = None
    ) -> List[int]:
        """Consume matured rejoin requests (at a generation boundary).

        Each request fires at most once per session; consuming marks it
        fired so the supervisor does not re-admit the same spot every
        generation.  ``limit`` caps how many are consumed (the
        supervisor passes remaining ``max_world_size`` capacity; the
        rest stay pending for a later boundary).  Returns the admitted
        spot ids, sorted.
        """
        exclude = set(exclude)
        admitted = []
        with self._lock:
            for index, rule in enumerate(self.rules):
                if limit is not None and len(admitted) >= limit:
                    break
                if (
                    rule.action == REJOIN_RANK
                    and rule.rank not in exclude
                    and generation >= rule.after
                    and not self._fired[index].get("rejoin")
                ):
                    self._fired[index]["rejoin"] = 1
                    self._matches[index]["rejoin"] = (
                        self._matches[index].get("rejoin", 0) + 1
                    )
                    rule.triggered += 1
                    admitted.append(rule.rank)
        return sorted(admitted)

    # -- reporting ------------------------------------------------------
    def stats(self) -> List[dict]:
        """Per-rule description and trigger counts (JSON-friendly)."""
        with self._lock:
            return [
                {
                    "action": rule.action,
                    "scope": rule.scope,
                    "rank": rule.rank,
                    "op": rule.op,
                    "probability": rule.probability,
                    "triggered": rule.triggered,
                }
                for rule in self.rules
            ]

    def total_triggered(self) -> int:
        """Total number of rule firings across the whole plan."""
        with self._lock:
            return sum(rule.triggered for rule in self.rules)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)})"
