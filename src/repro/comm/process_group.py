"""The ``ProcessGroup`` abstraction.

DDP wraps NCCL, Gloo and MPI behind one ``ProcessGroup`` API (paper
§3.3).  Key semantics reproduced here:

* **Rendezvous construction** — all instances construct together; the
  first arrival blocks until the last joins.
* **Asynchronous execution** — every collective may return a ``Work``
  handle, and issuing one never blocks: the call runs the collective's
  first step on the calling thread (its signed posts, the ring's first
  segment) and ``Work.wait()`` / ``is_completed()`` run the rest there
  too.  There is no communication thread: the paper's separate CUDA
  stream has a resource of its own to overlap onto, and here the rank
  threads already fill the cores (docs/performance.md).
* **Ordered collectives** — operations on all instances must match in
  type/shape/dtype and follow the same order.  A built-in signature
  checker turns the real-world symptom (silent corruption or a hang)
  into a diagnosable :class:`CollectiveMismatchError`.
* **Device restrictions** — a group reads its backend's row in
  :mod:`repro.comm.backends`; on nccl's it only accepts tensors on
  ``gpu:*`` devices, which forces DDP to keep its CPU bitmap copy logic
  (paper §4.2, "Globally Unused Parameters").
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.comm import algorithms, backends
from repro.comm.gates import NOTHING
from repro.comm.store import Store
from repro.comm.transport import Signed, TransportClosedError, TransportHub, TransportTimeoutError
from repro.debug import desync as _desync
from repro.debug.flight_recorder import CollectiveRecord, FlightRecorder, recorder_for
from repro.debug.levels import DEBUG, DETAIL
from repro.utils.logging import logger


class ReduceOp:
    """Reduction operators accepted by collectives.

    ``AVG`` (``allreduce``, ``reduce`` and ``reduce_scatter_flat``,
    floating dtypes) is ``SUM`` plus one division by the group size, done
    inside the collective by the rank that finishes reducing each segment —
    bitwise what ``SUM`` followed by ``/= size`` on the result produces.
    """

    SUM = "sum"
    AVG = "avg"
    PROD = "prod"
    MIN = "min"
    MAX = "max"
    BOR = "bor"
    BAND = "band"


class CollectiveError(RuntimeError):
    """Base class for collective-communication failures."""


class CollectiveMismatchError(CollectiveError):
    """Ranks disagreed on the collective sequence (paper Fig. 3(a) failure)."""


class CollectiveTimeoutError(CollectiveError):
    """A collective did not complete in time (a peer hung or diverged)."""


class Work:
    """Handle of one collective, advanced by whoever holds it.

    ``record`` is the collective's one
    :class:`~repro.debug.flight_recorder.CollectiveRecord` (facts,
    terminal state, start and finish stamps); ``result[0]``
    holds what it returned (None for in-place ops) once ``wait()`` did.
    The collective is a step machine (:func:`~repro.comm.algorithms.run_steps`)
    whose first step ran at issue.  No thread owns the rest: ``wait()``
    parks for each message the steps ask for, ``is_completed()`` takes
    what has arrived and advances as far as that allows.  A
    :class:`~repro.comm.transport.Signed` message whose fingerprint
    disagrees is never used; it raises :class:`CollectiveMismatchError`.
    A wait first completes its group's older collectives, so ranks that
    wait out of issue order still meet.  Ended steps are dropped: a kept
    Work (DDP's ``bucket.work``) holds no buffer.
    """

    def __init__(self, record: CollectiveRecord, group: "Optional[ProcessGroup]" = None,
                 signature: Optional[dict] = None, steps=None):
        self.record, self.result = record, [None]
        self._group, self._signature, self._steps = group, signature, steps
        #: The tag and group ranks of the messages the steps wait for,
        #: those still to be taken, and those taken, by group rank.
        self._tag, self._want, self.missing, self._got = None, (), [], {}
        #: ``(group rank, fingerprint)`` of the first post that disagreed.
        self._diverged = None
        #: Receive stalls by sending rank (telemetry on).
        self._stalls: Optional[dict] = None
        self._lock, self._finished = threading.Lock(), False

    @property
    def description(self) -> str:
        """``op#seq`` — how error messages and the ``comm`` trace row name it."""
        return self.record.name

    def _complete(self, error: Optional[BaseException] = None) -> None:
        """Finish from outside the steps (shutdown, the hang watch's
        desync report); the record keeps its first terminal state."""
        self.record.finish(error)
        self._finished = True

    def _finish(self, error: Optional[BaseException] = None) -> None:
        """The steps ended or failed: close the record, attach the stalls
        last (which lets a read fold it), drop the steps and pieces."""
        self.record.finish(error)
        if self._stalls is None and DEBUG.telemetry:
            self._stalls = {}
        if self._stalls is not None:
            self.record.stalls = self._stalls
        self._finished, self._steps, self._got = True, None, {}
        if self._group is not None:
            self._group._pending.pop(self, None)

    def _advance(self, got) -> bool:
        """Resume the steps with ``got``; True once they ended."""
        try:
            self._tag, want = self._steps.send(got)
        except StopIteration as stop:
            self.result[0] = stop.value
            return True
        except TransportTimeoutError as exc:  # a rooted op's blocking algorithm
            self._steps = None
            raise CollectiveTimeoutError(str(exc)) from exc
        except BaseException:
            self._steps = None
            raise
        self._want, self.missing = want, list(want)
        return False

    def _take(self) -> None:
        """Take whatever messages have arrived, in one hub round."""
        group, missing = self._group, self.missing
        if missing:
            posts = algorithms._collect(
                group.hub, group.global_rank, [group.ranks[o] for o in missing], self._tag)
            self.missing = []
            self._file(missing, posts)

    def _file(self, offsets, posts) -> None:
        """Keep each message (a post that agrees with this rank's
        fingerprint unwrapped), note the first post that does not (never
        kept); the absent stay missing."""
        for offset, post in zip(offsets, posts):
            if post is NOTHING:
                self.missing.append(offset)
            elif type(post) is not Signed:
                self._got[offset] = post
            elif post.signature == self._signature:
                self._got[offset] = post.data
            elif self._diverged is None:
                self._diverged = (offset, post.signature)

    def _drive(self, deadline: Optional[float]) -> bool:
        """Advance the steps as far as the arrived messages allow —
        parking until ``deadline`` for each missing one when given, never
        with None; True once the steps ended."""
        group = self._group
        while True:
            if deadline is None or len(self.missing) > 1:
                self._take()
            while deadline is not None and self.missing and self._diverged is None:
                offset = self.missing[0]
                post = group._await_post(offset, self._tag, self.description, deadline)
                del self.missing[0]
                self._file((offset,), (post,))
            if self._diverged is not None:
                raise group._mismatch(self.record.seq, self._signature, *self._diverged)
            if self.missing:
                return False
            got = [self._got.pop(offset) for offset in self._want]
            if self._advance(got):
                return True

    def _arrived(self) -> bool:
        """Can a poll advance the steps?  A disagreeing post, a closed hub
        or an overdue collective counts (advancing then raises it)."""
        try:
            self._take()
        except TransportClosedError:
            return True
        return (not self.missing or self._diverged is not None or self._overdue())

    def _overdue(self) -> bool:
        return time.perf_counter() - self.record.t_start > self._group.timeout

    def _progress(self, block: bool, timeout: Optional[float]) -> bool:
        """Advance as far as this handle can (``block``: parking up to
        ``timeout``); True once finished, ok or not."""
        if self._finished or self._steps is None:
            return self._finished
        if block:
            for older in list(self._group._pending):
                if older is self:
                    break
                older._progress(True, timeout)
            acquired = self._lock.acquire(timeout=-1 if timeout is None else timeout)
        else:
            acquired = self._lock.acquire(blocking=False)
        if not acquired:  # another thread is advancing it
            return self._finished
        try:
            if self._finished:
                pass
            elif block:
                self._group._execute(self, time.perf_counter() + (
                    self._group.timeout if timeout is None else timeout), timeout is not None)
            elif self._arrived():
                self._group._execute(self, time.perf_counter() if self._overdue() else None)
        finally:
            self._lock.release()
        return self._finished

    def is_completed(self) -> bool:
        """Non-blocking poll: has the collective finished (ok or not)?"""
        return self._progress(False, None)

    def wait(self, timeout: Optional[float] = None) -> None:
        """Complete the collective; re-raise any failure.

        A ``timeout`` that runs out fails the record but leaves the steps
        where they are: a later ``wait()`` carries the exchange to its end,
        so peers are not stranded, then raises that error.
        """
        if not self._progress(True, timeout) and self.record.error is None:
            facts = ", ".join(f"{key}={value}" for key, value in self.record.facts().items())
            self._complete(CollectiveTimeoutError(
                f"timed out waiting for collective {self.description!r} "
                f"({facts}) after {timeout}s (caller-side wait expired)"
            ))
        if self.record.error is not None:
            raise self.record.error

    def __repr__(self) -> str:
        state = "pending" if self.record.t_end is None else "done"
        return f"<Work {self.description} {state}>"


def _as_array(tensor) -> np.ndarray:
    """Accept either a library Tensor or a raw ndarray."""
    if isinstance(tensor, np.ndarray):
        return tensor
    data = getattr(tensor, "data", None)
    if not isinstance(data, np.ndarray):
        raise TypeError(f"collectives operate on tensors/ndarrays, got {type(tensor)}")
    return data


def _fill_spans(buffer: np.ndarray, spans, pieces) -> None:
    """Land an all-gather: piece ``r`` into span ``r`` of ``buffer``'s
    flat view (through a private flat when no view can express it)."""
    flat = buffer.reshape(-1)
    for (lo, hi), piece in zip(spans, pieces):
        flat[lo:hi] = piece
    algorithms._write_back(buffer, flat)


def _device_of(tensor) -> Optional[str]:
    """Device tag, or None for raw ndarrays (treated as device memory)."""
    if isinstance(tensor, np.ndarray):
        return None
    return getattr(tensor, "device", None)


class _Op(NamedTuple):
    """One row of the collective table ``ProcessGroup._collective`` runs."""

    #: Above the size rule, the steps ``fn(hub, ranks, rank, array, operand,
    #: tag, signature)``; with no one-round form, the blocking algorithm
    #: :meth:`ProcessGroup._rooted` runs.
    algorithm: Optional[Callable]
    #: Operands that enter the signature every rank must agree on.
    signature: Tuple[str, ...] = ()
    #: Accounted bytes are ``nbytes × world`` (every rank's tensor lands here).
    world_bytes: bool = False
    #: When the op runs as one round of signed posts (:meth:`ProcessGroup._round`):
    #: ``"small"`` under the size rule (:func:`~repro.comm.algorithms.one_round`),
    #: ``"always"`` at every size — a direct reduce-scatter or all-gather
    #: moves no more bytes than the ring, in one round instead of p − 1.
    one_round: str = ""


_OPS = {
    "allreduce": _Op(algorithms.ring_steps, ("reduce_op",), one_round="small"),
    "broadcast": _Op(algorithms.broadcast_steps, ("src",), one_round="small"),
    "allgather": _Op(None, world_bytes=True, one_round="always"),
    "reduce_scatter_flat": _Op(None, ("reduce_op",), one_round="always"),
    "all_gather_flat": _Op(None, one_round="always"),
    "reduce": _Op(algorithms.reduce, ("root", "reduce_op")),
    "gather": _Op(algorithms.gather, ("root",)),
    "scatter": _Op(algorithms.scatter, ("root",)),
    # No tensor: nothing to size.
    "barrier": _Op(None, one_round="always"),
}


class ProcessGroup:
    """One rank's membership in a communicator group.

    ``backend`` names a row of :mod:`repro.comm.backends`, which sets
    ``.backend`` (the row's name, used by cost models and diagnostics)
    and ``.supports_cpu_tensors`` (whether tensors tagged "cpu" may be
    communicated).  Every backend runs the same AllReduces: one round of
    direct exchange under the size rule, the ring above it.  Per-rank
    instances coordinate purely through the shared
    :class:`TransportHub` and :class:`Store`.
    """

    def __init__(self, store: Store, hub: TransportHub, rank: int, backend: str = "gloo",
                 ranks: Optional[Sequence[int]] = None, group_id: Optional[int] = None,
                 timeout: float = 30.0):
        self.store, self.hub, self.global_rank = store, hub, rank
        self.ranks: List[int] = sorted(ranks) if ranks is not None else list(range(hub.world_size))
        if rank not in self.ranks:
            raise ValueError(f"rank {rank} is not a member of group ranks {self.ranks}")
        self.group_rank = self.ranks.index(rank)
        self.timeout = timeout
        row = backends.backend(backend)
        self.backend, self.supports_cpu_tensors = row.name, row.supports_cpu_tensors
        #: The AllReduce above the size rule, stamped on its records for
        #: the health accounting; benchmarks/e2e's isolated_calls reads it.
        self.algorithm = "ring"
        #: Always None; benchmarks/e2e's isolated_calls reads it.
        self.chunk_bytes = None
        self._seq = 0
        self._group_id = group_id if group_id is not None else 0
        # Fault injection: collective-scoped rules (crash a rank as it
        # issues its n-th collective) ride on the hub's installed plan.
        self._fault_plan = getattr(hub, "fault_plan", None)
        self.bytes_communicated = 0  # for tests and reporting
        self._closed = False
        # Every Work a thread is parked advancing, and since when; the
        # hang watch polls the oldest (``_inflight``).
        self._executing: dict = {}
        # Work issued and not finished, in issue order: a wait completes
        # the older ones first, shutdown fails them all.
        self._pending: dict = {}
        # What _describe says, per (op, shape, dtype, signed operands).
        self._facts: dict = {}
        self._peers = [offset for offset in range(len(self.ranks)) if offset != self.group_rank]
        self._peer_ranks = [self.ranks[offset] for offset in self._peers]

        # Rendezvous: block until every member has constructed (paper §3.3).
        arrival_key = f"pg{self._group_id}/arrivals"
        self.store.add(arrival_key, 1)
        self.store.wait_value(arrival_key, lambda v: v >= len(self.ranks), timeout=timeout)

        # The rank's liveness monitor, once it watches this group for
        # hangs (REPRO_DEBUG ≥ INFO; see repro.comm.liveness).
        self._monitor = None

    @property
    def flight_recorder(self) -> FlightRecorder:
        """This rank's ring of retained collective records (filled while
        ``REPRO_DEBUG`` ≥ INFO or telemetry is on)."""
        return recorder_for(self.global_rank)

    # ------------------------------------------------------------------
    # issue and progress
    # ------------------------------------------------------------------
    @property
    def _inflight(self) -> Optional[Tuple[Work, float]]:
        """The longest-parked Work and since when, or None — what the hang
        watch reports (compute between issue and wait is no hang)."""
        return min(list(self._executing.items()), key=lambda item: item[1], default=None)

    def _execute(self, work: Work, deadline: Optional[float], resumable: bool = False) -> None:
        """Advance ``work``'s steps (:meth:`Work._drive`), listed as
        executing while it may park (hang watch), the thread's receive
        stalls (:data:`algorithms.executing`) booked to it under telemetry.
        Steps that ended or raised finish it; an expired ``resumable``
        deadline (a caller's ``wait(timeout)``) fails only the record."""
        if deadline is not None:
            self._executing[work] = time.perf_counter()
        if DEBUG.telemetry:
            if work._stalls is None:
                work._stalls = {}
            algorithms.executing.stalls = work._stalls
        try:
            done, error = work._drive(deadline), None
        except BaseException as exc:  # propagate through the Work handle
            error = exc
            done = work._steps is None or not (
                resumable and isinstance(exc, CollectiveTimeoutError))
        finally:
            algorithms.executing.stalls = None
            self._executing.pop(work, None)
        if done:
            work._finish(error)
        elif error is not None:
            work.record.finish(error)

    def _issue(self, record: CollectiveRecord, signature: dict) -> None:
        """What every collective does first: check the group is open, fire
        collective-scoped fault rules, retain the record in the rank's ring
        (``REPRO_DEBUG`` ≥ INFO or telemetry on — what every cross-rank view
        reads), and under DETAIL publish this rank's fingerprint."""
        if self._closed:
            raise CollectiveError("process group has been shut down")
        if self._fault_plan is not None:
            # A collective-scoped crash rule raises InjectedRankFailure
            # here, before anything is posted: peers see a vanished rank.
            self._fault_plan.on_collective(self.global_rank, record.op, record.seq, self._group_id)
        if DEBUG.level or DEBUG.telemetry:
            recorder_for(self.global_rank).add(record)
        if DEBUG.level >= DETAIL:
            self.store.set(self._detail_key(record.seq, self.global_rank), signature)

    def shutdown(self, grace: float = 2.0) -> bool:
        """Close the group (idempotent); False if a thread stays stuck.

        Unfinished collectives fail, so a later ``wait()`` raises at once.
        A thread parked advancing one (its peer diverged or died) gets
        ``grace`` seconds, then the hub is closed to wake it; one that
        still does not return is logged.
        """
        if self._closed:
            return not self._executing
        self._closed = True
        if self._monitor is not None:
            # Leave a parting snapshot so a peer's hang report can still
            # attribute a later hang to this (exited) rank.
            self._monitor.unwatch(self)
        for work in list(self._pending):  # a completed one keeps its result
            work._complete(CollectiveError(
                f"process group {self._group_id} shut down before {work.description} completed"))
        self._pending.clear()
        deadline = min(grace, self.timeout)
        if not self._quiesce(deadline):
            logger.warning("collective(s) of group %s on rank %d still parked after "
                           "%.1fs; closing the transport hub to unblock them",
                           self._group_id, self.global_rank, deadline)
            self.hub.close()
            self._quiesce(deadline)
        stranded = [work.description for work in list(self._executing)]
        if stranded:
            logger.error("group %s on rank %d: %s stranded even after the hub closed",
                         self._group_id, self.global_rank, ", ".join(stranded))
        else:
            self._cleanup_store_namespace()
        return not stranded

    def _quiesce(self, timeout: float) -> bool:
        """Wait out threads still advancing a collective; True if none is."""
        end = time.perf_counter() + timeout
        while self._executing and time.perf_counter() < end:
            time.sleep(0.005)
        return not self._executing

    def _cleanup_store_namespace(self) -> None:
        """Drop this group's store keys once every member shut down.

        Rendezvous counters, hang-watch snapshots, barrier and DDP-check
        keys (and DETAIL's per-rank signatures) would otherwise pile up
        across elastic generations.  The last member to shut down cleanly
        deletes the namespace; ranks that die first leave it behind on
        purpose, as postmortem evidence.
        """
        gid = self._group_id
        try:
            arrivals = self.store.add(f"pgfini/{gid}/arrivals", 1)
            if arrivals < len(self.ranks):
                return
            for prefix in (
                f"pg{gid}/",       # rendezvous counter + DETAIL's signatures
                f"pgdebug/{gid}/", # hang-watch alarms and snapshots
                f"mb/{gid}/",      # monitored_barrier counters
                f"ddpchk/{gid}/",  # DDP construction consistency checks
                f"pgfini/{gid}/",  # this counter itself
            ):
                self.store.delete_prefix(prefix)
        except Exception:
            logger.exception("store cleanup for group %s failed (keys left behind)", gid)

    # ------------------------------------------------------------------
    # consistency checking
    # ------------------------------------------------------------------
    # Every rank must issue the same collective at sequence ``seq`` with
    # the same fingerprint, or real libraries corrupt data or hang (paper
    # §3.3); we raise a CollectiveMismatchError with a field-level diff.
    # The fingerprint travels on the hub under the tag ``(group, seq)``
    # (see Work), so ranks that disagree on the protocol meet there.
    def _detail_key(self, seq: int, rank: int) -> str:
        return f"pg{self._group_id}/sig/{seq}/rank{rank}"

    def _mismatch(self, seq: int, signature: dict, peer: int, theirs: dict):
        """The error for group rank ``peer`` having issued ``theirs``,
        rendered against the lower group rank of the two (the leader if
        it is one), so both sides of a disagreement report it alike."""
        (low, low_sig), (high, high_sig) = sorted(
            [(self.group_rank, signature), (peer, theirs)], key=lambda side: side[0])
        peer_sigs = None
        if DEBUG.level >= DETAIL:
            # Best-effort gather: peers publish at issue, so a short wait
            # usually collects the whole group.
            deadline = time.perf_counter() + min(1.0, self.timeout / 4.0)
            keys = {r: self._detail_key(seq, r) for r in self.ranks}
            while time.perf_counter() < deadline:
                if all(self.store.try_get(k) is not None for k in keys.values()):
                    break
                time.sleep(0.01)
            peer_sigs = {r: sig for r, k in keys.items()
                         if (sig := self.store.try_get(k)) is not None}
        return CollectiveMismatchError(_desync.render_mismatch(
            self._group_id, seq, self.ranks[high], high_sig, self.ranks[low], low_sig,
            peer_sigs, role="leader" if low == 0 else "peer",
        ))

    def _await_post(self, offset: int, tag: tuple, what: str, deadline: float) -> Signed:
        """Park until ``deadline`` for group rank ``offset``'s message
        under ``tag``, which the collective ``what`` waits for."""
        src = self.ranks[offset]
        try:
            return algorithms._recv(self.hub, self.global_rank, src, tag,
                                    max(0.0, deadline - time.perf_counter()))
        except TransportTimeoutError:
            raise CollectiveTimeoutError(
                f"rank {self.global_rank} timed out waiting for rank {src}'s message to "
                f"{what} in group {self._group_id} (peer rank diverged, hung or exited)"
            ) from None

    def _check_device(self, tensor) -> None:
        if not self.supports_cpu_tensors and _device_of(tensor) == "cpu":
            raise CollectiveError(f"backend {self.backend!r} only supports device tensors "
                                  f"(got a tensor on 'cpu'); copy to a gpu:* device first")

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in this group (the p of the α–β model)."""
        return len(self.ranks)

    def _collective(self, name: str, tensor, async_op: bool = False, **operands):
        """The one path every collective takes (paper §3.3's uniform contract).

        Device check → the op's facts (:meth:`_describe`, once per op,
        shape, dtype and signed operands) → sequence number → the one
        record, issued (:meth:`_issue`) → the steps (:meth:`_round`, the
        row's algorithm or :meth:`_rooted`) → a :class:`Work` that runs
        the first step here.  ``operands`` are the op's keyword operands
        in the algorithm's positional order.  Returns the Work when
        ``async_op``, else what the collective returned once waited.
        """
        row = _OPS[name]
        array = None
        if tensor is not None:  # scatter and barrier carry no tensor
            self._check_device(tensor)
            array = _as_array(tensor)
        key = (name, None if array is None else (array.shape, array.dtype),
               *[operands[field] for field in row.signature])
        facts = self._facts.get(key)
        if facts is None:
            if len(self._facts) >= 1024:
                self._facts.clear()
            facts = self._facts[key] = self._describe(name, row, array, operands)
        signature, record_facts, wire, split = facts
        seq = self._seq
        self._seq += 1
        tag = (self._group_id, seq)
        if wire is not None:
            self.bytes_communicated += wire
        record = CollectiveRecord(seq, self._group_id, record_facts, wire)
        self._issue(record, signature)
        args = ([] if array is None else [array]) + list(operands.values())
        if split:
            steps = self._round(name, tag, signature, array, operands)
        elif row.one_round:
            if name == "allreduce":
                record.extra["algorithm"] = self.algorithm
            steps = row.algorithm(self.hub, self.ranks, self.group_rank, *args, tag, signature)
        else:
            steps = self._rooted(row.algorithm, args, tag, signature)
        work = Work(record, self, signature, steps)
        try:
            ended, error = work._advance(None), None
        except Exception as exc:  # raised by wait(), as a later step's would be
            ended, error = True, exc
        if ended:
            work._finish(error)
        else:
            self._pending[work] = None
        if async_op:
            return work
        work.wait()
        return work.result[0]

    def _describe(self, name: str, row: _Op, array, operands: dict) -> tuple:
        """``(fingerprint, record facts, accounted bytes, one round)``;
        raises for an ``avg`` of a non-floating dtype, before a sequence
        number is spent."""
        if operands.get("reduce_op") == ReduceOp.AVG:
            algorithms.check_avg_dtype(array.dtype)
        signature = _desync.fingerprint(
            name, array, **{field: operands[field] for field in row.signature})
        world = len(self.ranks)
        wire = None if array is None else array.nbytes * (world if row.world_bytes else 1)
        split = row.one_round == "always" or (
            row.one_round == "small" and algorithms.one_round(array.nbytes, world))
        record_facts = dict(signature, world=world, backend=self.backend)
        if split and name == "allreduce":
            record_facts["algorithm"] = "naive"
        return signature, record_facts, wire, split

    def _round(self, name: str, tag: tuple, signature: dict, array, operands: dict):
        """Steps of a one-round collective.  At issue: post a signed
        private copy of what each peer needs from this rank — the buffer
        (a broadcast's only from its root), an all-gather's contribution,
        a reduce-scatter's span of that peer — in one hub round.  Then
        take every peer's post and land the result."""
        me, world = self.group_rank, len(self.ranks)
        pieces, missing, peers = [None] * world, list(self._peers), self._peer_ranks
        op, posts, land = operands.get("reduce_op"), None, None
        if name == "broadcast":
            src = operands["src"]
            if me == src:
                missing, pieces[me] = [], array.copy()
            else:
                missing, posts = [src], []
                land = lambda got: np.copyto(array, got[src])
        elif name == "reduce_scatter_flat":
            flat = array.reshape(-1)
            spans = algorithms.partition_spans(flat.size, world)
            posts = [((self.ranks[offset],), flat[lo:hi].copy())
                     for offset, (lo, hi) in enumerate(spans) if offset != me]
            pieces[me] = flat[slice(*spans[me])]  # the caller's, lent until wait()
            land = lambda got: algorithms.reduced(got, op)
        elif name == "all_gather_flat":
            spans, shard = algorithms.partition_spans(array.size, world), operands["shard"]
            mine = array.reshape(-1)[slice(*spans[me])] if shard is None else shard
            pieces[me] = mine.flatten()
            land = lambda got: _fill_spans(array, spans, got)
        elif name == "allgather":
            pieces[me], land = array.flatten(), np.stack
        elif array is not None and world > 1:  # an AllReduce
            pieces[me] = array.copy()
            land = lambda got: algorithms.reduce_in_order(array, got, op)
        if posts is None:  # this rank's piece to every peer (a barrier's: None)
            posts = [(peers, pieces[me])]
        for dsts, payload in posts:
            if dsts:
                self.hub.post(self.global_rank, dsts, tag, Signed(signature, payload))
        got = yield tag, missing
        for offset, piece in zip(missing, got):
            pieces[offset] = piece
        if land is not None:
            return land(pieces)

    def _rooted(self, algorithm: Callable, args: list, tag: tuple, signature: dict):
        """Steps of a rooted op (reduce, gather, scatter).  Its own
        messages cannot carry the fingerprint — ranks that disagree on
        the root may exchange none — so at issue group rank 0 posts it
        alone under ``tag`` and every other rank takes it first; then
        the blocking algorithm runs."""
        if self.group_rank == 0:
            if self._peer_ranks:
                self.hub.post(self.global_rank, self._peer_ranks, tag, Signed(signature, None))
            yield tag, ()
        else:
            yield tag, (0,)
        return algorithm(self.hub, self.ranks, self.group_rank, *args, tag, self.timeout)

    def allreduce(self, tensor, op: str = ReduceOp.SUM, async_op: bool = False):
        """Reduce ``tensor`` in place across the group (sum by default).

        When ``Work.wait()`` returns the tensor is the caller's again (large
        ones are lent to peers, see :mod:`repro.comm.algorithms`).  Under
        the size rule the call posts a copy — the contribution — and the
        reduction runs in ``wait()`` / ``is_completed()``; above it the
        call sends the ring's first segment and they run the other steps.
        """
        return self._collective("allreduce", tensor, async_op, reduce_op=op)

    def broadcast(self, tensor, src: int = 0, async_op: bool = False):
        """Broadcast from group-rank ``src`` into every rank's tensor.

        Under the size rule the root posts one copy to each peer at issue
        and each peer receives it in ``wait()``; above it the tree
        broadcast's root sends at issue and every other rank receives
        and forwards in ``wait()``.
        """
        return self._collective("broadcast", tensor, async_op, src=src)

    def allgather(self, tensor, async_op: bool = False):
        """Gather every rank's tensor into a new ``(world, n)`` array (the
        sync form's return value, ``Work.result[0]`` otherwise), row ``r``
        rank ``r``'s: one round, the call posting a copy to every peer."""
        return self._collective("allgather", tensor, async_op)

    def reduce_scatter_flat(self, tensor, op: str = ReduceOp.SUM, async_op: bool = False):
        """Reduce across the group and return this rank's contiguous span.

        The flat tensor is partitioned with
        :func:`~repro.comm.algorithms.partition_spans`; rank ``r`` gets
        back the fully reduced span ``r`` as a new array (``result[0]``
        of the async form).  One round at every size: the call posts each
        peer a copy of its span, and ``wait()`` reduces span ``r``'s
        pieces in group-rank order (the caller's own span stays lent until
        then).  The gradient-sharding primitive of :mod:`repro.sharded`.
        """
        return self._collective("reduce_scatter_flat", tensor, async_op, reduce_op=op)

    #: The name torch gives the collective, and one the repo benchmark's
    #: tracer wraps by name (``benchmarks/e2e/tracing.py``); the same method.
    reduce_scatter = reduce_scatter_flat

    def all_gather_flat(self, tensor, shard=None, async_op: bool = False):
        """Fill ``tensor`` in place with every rank's contiguous span.

        The inverse of :meth:`reduce_scatter_flat`.  Rank ``r``
        contributes span ``r`` — ``shard`` when given (its element count
        must match the span), else the tensor's own span — copied at the
        call and posted to every peer in one round.  The
        parameter-materialization primitive of :mod:`repro.sharded`.
        """
        shard_array = None
        if shard is not None:  # checked before a sequence number is spent
            shard_array, size = _as_array(shard), _as_array(tensor).size
            lo, hi = algorithms.partition_spans(size, self.size)[self.group_rank]
            if shard_array.size != hi - lo:
                raise ValueError(
                    f"shard has {shard_array.size} elements but group rank "
                    f"{self.group_rank}'s span of a {size}-element tensor over "
                    f"{self.size} ranks holds {hi - lo}")
        return self._collective("all_gather_flat", tensor, async_op, shard=shard_array)

    def reduce(self, tensor, root: int = 0, op: str = ReduceOp.SUM):
        """Reduce into group-rank ``root``'s tensor (synchronous; the
        other ranks' tensors are left with partial results, as in MPI)."""
        self._collective("reduce", tensor, root=root, reduce_op=op)

    def gather(self, tensor, root: int = 0):
        """Gather tensors at ``root``; returns (world, n) there, None elsewhere."""
        return self._collective("gather", tensor, root=root)

    def scatter(self, chunks=None, root: int = 0):
        """Scatter root's per-rank chunks; returns this rank's chunk."""
        return self._collective("scatter", None, chunks=chunks, root=root)

    def barrier(self) -> None:
        """Block until every member rank reaches this barrier: one round
        (≈ α) of signed posts without data, p − 1 messages each way per
        rank, on the calling thread; issue it from the rank's own thread."""
        self._collective("barrier", None)

    def send(self, tensor, dst: int, tag: object = "p2p") -> None:
        """Point-to-point send to group-rank ``dst`` (paper §2.3 contrasts
        this with collectives; provided for parameter-server-style code)."""
        array = _as_array(tensor)
        self.bytes_communicated += array.nbytes
        self.hub.send(self.global_rank, self.ranks[dst], ("p2p", self._group_id, tag), array.copy())

    def recv(self, tensor, src: int, tag: object = "p2p") -> None:
        """Blocking point-to-point receive from group-rank ``src``."""
        array = _as_array(tensor)
        incoming = self.hub.recv(
            self.global_rank, self.ranks[src], ("p2p", self._group_id, tag), self.timeout)
        array[...] = incoming.reshape(array.shape)
