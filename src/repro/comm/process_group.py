"""The ``ProcessGroup`` abstraction.

DDP wraps NCCL, Gloo and MPI behind one ``ProcessGroup`` API (paper
§3.3).  Key semantics reproduced here:

* **Rendezvous construction** — all instances construct together; the
  first arrival blocks until the last joins.
* **Asynchronous execution** — every collective may return a ``Work``
  handle; each group membership owns one dedicated communication worker
  thread (the analog of NCCL's dedicated CUDA stream) draining a FIFO
  queue, so communication genuinely proceeds concurrently with the
  caller's computation.  Collectives that should run concurrently with
  each other go to different groups, used in turn by
  :class:`~repro.comm.round_robin.RoundRobinProcessGroup` (paper §3.3).
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

import queue
import threading
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.comm import algorithms, backends
from repro.comm.gates import NOTHING
from repro.comm.store import Store
from repro.comm.transport import (
    Signed,
    TransportClosedError,
    TransportHub,
    TransportTimeoutError,
)
from repro.debug import desync as _desync
from repro.debug.flight_recorder import CollectiveRecord, FlightRecorder, recorder_for
from repro.debug.levels import DEBUG, DETAIL
from repro.utils.logging import logger
from repro.utils.rank import set_current_rank


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
    """Handle for an asynchronously executing collective.

    ``record`` is the collective's one
    :class:`~repro.debug.flight_recorder.CollectiveRecord`: its facts,
    terminal state and scheduled/started/finished stamps, so a holder
    (the reducer's latency and overlap accounting) reads how long the
    operation ran, not how long it waited.  ``result[0]`` holds what the
    algorithm returned (None for in-place ops) once ``wait()`` returns.

    This handle is a collective a communication worker runs: ``wait()``
    parks on an event the worker sets.  A one-round collective (a small
    AllReduce or broadcast, and every reduce-scatter, all-gather and
    barrier) is a :class:`_RoundWork` and makes progress in ``wait()`` /
    ``is_completed()`` instead.
    """

    def __init__(self, record: CollectiveRecord):
        self.record = record
        self.result: list = [None]
        self._done = threading.Event()

    @property
    def description(self) -> str:
        """``op#seq`` — how error messages and the ``comm`` trace row name it."""
        return self.record.name

    def _complete(self, error: Optional[BaseException] = None) -> None:
        # The record keeps its first terminal state: the hang watch
        # may fail a stuck Work with a desync report before the worker's
        # own (less precise) transport timeout surfaces.
        self.record.finish(error)
        self._done.set()

    def _progress(self, block: bool, timeout: Optional[float]) -> bool:
        """Advance the collective as far as this handle can; True once it
        finished (ok or not).  ``block`` waits up to ``timeout``."""
        return self._done.wait(timeout) if block else self._done.is_set()

    def is_completed(self) -> bool:
        """Non-blocking poll: has the collective finished (ok or not)?"""
        return self._progress(False, None)

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the collective finishes; re-raise any failure.

        A caller-side timeout does not leave the collective dangling:
        its record — which would otherwise stay "started" forever — is
        finished as failed with the timeout error (first terminal state
        wins, so a worker that finishes in the same instant keeps its
        result).
        """
        if not self._progress(True, timeout):
            facts = ", ".join(
                f"{key}={value}" for key, value in self.record.facts().items()
            )
            self._complete(CollectiveTimeoutError(
                f"timed out waiting for collective {self.description!r} "
                f"({facts}) after {timeout}s (caller-side wait expired)"
            ))
        if self.record.error is not None:
            raise self.record.error

    def __repr__(self) -> str:
        state = "pending" if self.record.t_end is None else "done"
        return f"<Work {self.description} {state}>"


class _RoundWork(Work):
    """A one-round collective, completed on the caller.

    Its signed contributions (:class:`~repro.comm.transport.Signed`) went
    out at issue; no thread owns it.  The first ``wait()``, or an
    ``is_completed()`` that finds every post there, takes the peers'
    posts, compares their fingerprints, lands the result and runs
    ``ProcessGroup._execute`` — exactly once, under a lock the other
    askers park on.  Then it drops the pieces and the caller's buffer:
    a Work its holder keeps (DDP's reducer keeps ``bucket.work`` until
    the next backward) holds no contribution.
    """

    def __init__(self, record, group: "ProcessGroup", signature: dict,
                 pieces: list, missing: list, land: Optional[Callable]):
        self.record, self.result = record, [None]
        self._group, self._signature = group, signature
        self._tag = (group._group_id, record.seq)
        #: Contributions by group rank (this rank's own in its place),
        #: and the group ranks whose post is still to be taken, in order.
        self.pieces, self.missing = pieces, missing
        #: ``land(pieces)`` writes the result and returns ``result[0]``;
        #: None when nothing lands (a barrier, a broadcast's root).
        self._land_pieces = land
        #: ``(group rank, fingerprint)`` of the first post that disagreed.
        self._diverged = None
        self._lock = threading.Lock()
        self._finished = False

    def _complete(self, error: Optional[BaseException] = None) -> None:
        self.record.finish(error)
        self._finished = True

    def _progress(self, block: bool, timeout: Optional[float]) -> bool:
        if self._finished:
            return True
        if block:
            acquired = self._lock.acquire(timeout=-1 if timeout is None else timeout)
        else:
            acquired = self._lock.acquire(blocking=False)
        if not acquired:  # another thread is completing it
            return self._finished
        try:
            # A poll completes what has all arrived — or, past the group
            # timeout, fails it the way a parked receive would have.
            if not self._finished and (block or self._arrived()):
                self._group._execute(self, self._land, timeout if block else 0.0)
                self._finished = True
                self.pieces = self._land_pieces = None
        finally:
            self._lock.release()
        return self._finished

    def _take(self) -> None:
        """Take whatever posts have arrived, in one hub round."""
        group, missing = self._group, self.missing
        if missing:
            posts = algorithms._collect(
                group.hub, group.global_rank, [group.ranks[o] for o in missing], self._tag)
            self.missing = []
            self._file(missing, posts)

    def _file(self, offsets, posts) -> None:
        """Keep each post that agrees with this rank's fingerprint, note
        the first that does not (never kept); the absent stay missing."""
        for offset, post in zip(offsets, posts):
            if post is NOTHING:
                self.missing.append(offset)
            elif post.signature == self._signature:
                self.pieces[offset] = post.data
            elif self._diverged is None:
                self._diverged = (offset, post.signature)

    def _arrived(self) -> bool:
        """Without parking: can completing finish here?  A disagreeing
        post or a closed hub counts (completing then raises it)."""
        try:
            self._take()
        except TransportClosedError:
            return True
        return (not self.missing or self._diverged is not None
                or time.perf_counter() - self.record.t_start > self._group.timeout)

    def _land(self, timeout: Optional[float]):
        """Complete the collective: receive the rest, land the result."""
        group = self._group
        deadline = time.perf_counter() + (group.timeout if timeout is None else timeout)
        self._take()
        while self.missing and self._diverged is None:
            offset = self.missing.pop(0)
            post = group._await_post(offset, self._tag, self.description, deadline)
            self._file((offset,), (post,))
        if self._diverged is not None:
            raise group._mismatch(self.record.seq, self._signature, *self._diverged)
        if self._land_pieces is not None:
            return self._land_pieces(self.pieces)


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

    #: Worker path: ``fn(hub, ranks, rank, [array,] *operands, tag,
    #: timeout)``; None = no worker path at all.
    algorithm: Optional[Callable]
    #: Operands that enter the signature every rank must agree on.
    signature: Tuple[str, ...] = ()
    #: Accounted bytes are ``nbytes × world`` (every rank's tensor lands here).
    world_bytes: bool = False
    #: When the op runs as one round of signed posts on the caller
    #: (:meth:`ProcessGroup._round`) instead of on the worker: ``"small"``
    #: under the size rule (:func:`~repro.comm.algorithms.one_round`),
    #: ``"always"`` at every size.  A direct reduce-scatter or all-gather
    #: moves the ring's (p − 1)/p · n bytes per rank in one round instead
    #: of p − 1; a direct AllReduce or broadcast moves (p − 1) · n.
    one_round: str = ""


_OPS = {
    "allreduce": _Op(algorithms.allreduce_ring, ("reduce_op",), one_round="small"),
    "broadcast": _Op(algorithms.broadcast, ("src",), one_round="small"),
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

    def __init__(
        self,
        store: Store,
        hub: TransportHub,
        rank: int,
        backend: str = "gloo",
        ranks: Optional[Sequence[int]] = None,
        group_id: Optional[int] = None,
        timeout: float = 30.0,
    ):
        self.store = store
        self.hub = hub
        self.global_rank = rank
        self.ranks: List[int] = sorted(ranks) if ranks is not None else list(
            range(hub.world_size)
        )
        if rank not in self.ranks:
            raise ValueError(f"rank {rank} is not a member of group ranks {self.ranks}")
        self.group_rank = self.ranks.index(rank)
        self.timeout = timeout
        row = backends.backend(backend)
        self.backend = row.name
        self.supports_cpu_tensors = row.supports_cpu_tensors
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
        # Byte counter for tests and reporting.
        self.bytes_communicated = 0
        self._closed = False
        # Every Work some thread is executing — a worker its queued
        # collective, a caller the completion of a split-phase one — and
        # since when; the hang watch polls the oldest (``_inflight``).
        self._executing: dict = {}
        # Small-collective Work posted and not yet completed (shutdown
        # fails it, so no later wait() parks on it).
        self._pending: set = set()
        # What _describe says, per (op, shape, dtype, signed operands).
        self._facts: dict = {}
        self._peers = [offset for offset in range(len(self.ranks)) if offset != self.group_rank]
        self._peer_ranks = [self.ranks[offset] for offset in self._peers]
        #: Set when shutdown could not join a communication worker.
        self.worker_stuck = False

        # Rendezvous: block until every member has constructed (paper §3.3).
        arrival_key = f"pg{self._group_id}/arrivals"
        self.store.add(arrival_key, 1)
        self.store.wait_value(
            arrival_key, lambda v: v >= len(self.ranks), timeout=timeout
        )

        # The rank's liveness monitor, once it watches this group for
        # hangs (REPRO_DEBUG ≥ INFO; see repro.comm.liveness).
        self._monitor = None

        # The dedicated communication worker and its FIFO queue.
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._worker = threading.Thread(
            target=self._worker_loop,
            name=f"pg{self._group_id}-rank{self.global_rank}-comm",
            daemon=True,
        )
        self._worker.start()

    @property
    def flight_recorder(self) -> FlightRecorder:
        """This rank's ring of retained collective records (the one
        store every cross-rank view reads; filled while ``REPRO_DEBUG``
        ≥ INFO or telemetry is on)."""
        return recorder_for(self.global_rank)

    # ------------------------------------------------------------------
    # worker machinery
    # ------------------------------------------------------------------
    @property
    def _inflight(self) -> Optional[Tuple[Work, float]]:
        """The longest-executing Work and since when, or None — what the
        hang watch reports.  A small collective counts from when a
        thread began to complete it: compute after its post is no hang."""
        return min(list(self._executing.items()), key=lambda item: item[1], default=None)

    def _worker_loop(self) -> None:
        # Worker threads carry the owning rank's identity so telemetry
        # and log records from inside collectives attribute
        # correctly (the rank contextvar does not cross thread spawns).
        set_current_rank(self.global_rank)
        while True:
            item = self._queue.get()
            if item is None:
                return
            fn, work = item
            work.record.start()
            self._execute(work, fn)
            work._done.set()
            # Parked in get() until the next one, these would keep the
            # finished collective's buffers alive.
            item = fn = work = None

    def _execute(self, work: Work, run: Callable, *args) -> None:
        """Run ``work``'s collective body between its bookkeeping stamps.

        Both paths share it — the worker for a queued collective, a small
        collective's Work for its completion: listed as executing
        (hang watch), ``run(*args)`` into ``work.result[0]``, record finished
        with what it raised, and under telemetry the thread's receive
        stalls (:data:`algorithms.executing`) attached last, which lets a
        read fold the record.  Waiters are released after it returns.
        """
        record = work.record
        self._executing[work] = time.perf_counter()
        stalls = None
        if DEBUG.telemetry:
            stalls = algorithms.executing.stalls = {}
        error: Optional[BaseException] = None
        try:
            work.result[0] = run(*args)
        except BaseException as exc:  # propagate through the Work handle
            error = exc
        record.finish(error)
        del self._executing[work]
        self._pending.discard(work)
        if stalls is not None:
            algorithms.executing.stalls = None
            record.stalls = stalls

    def _issue(self, record: CollectiveRecord, signature: dict) -> None:
        """What every collective does first on the issuing thread: check
        the group is open, fire collective-scoped fault rules, retain
        the record in the rank's ring (``REPRO_DEBUG`` ≥ INFO or
        telemetry on) — the one store the causal timeline, the trace and
        the health series are read from — and under DETAIL publish this
        rank's fingerprint for :meth:`_mismatch`'s per-rank report."""
        if self._closed:
            raise CollectiveError("process group has been shut down")
        if self._fault_plan is not None:
            # Raises InjectedRankFailure on the issuing rank's own
            # thread when a collective-scoped crash rule fires — before
            # the collective is queued, so peers see a vanished rank.
            self._fault_plan.on_collective(
                self.global_rank, record.op, record.seq, self._group_id
            )
        if DEBUG.level or DEBUG.telemetry:
            recorder_for(self.global_rank).add(record)
        if DEBUG.level >= DETAIL:
            self.store.set(self._detail_key(record.seq, self.global_rank), signature)

    def _submit(self, fn, record: CollectiveRecord, async_op: bool):
        """Queue ``fn`` on the communication worker.

        The worker runs collectives in issue order, which is the same
        order on every rank.  Returns the :class:`Work` when
        ``async_op``; otherwise waits and returns what ``fn`` returned.
        """
        work = Work(record)
        self._queue.put((fn, work))
        if async_op:
            return work
        work.wait(self.timeout + 5.0)
        return work.result[0]

    def install_fault_plan(self, plan) -> None:
        """Install (or with ``None`` remove) a fault plan on this group.

        Overrides the plan inherited from the hub for collective-scoped
        rules; wire-scoped rules always live on the transport hub.
        """
        self._fault_plan = plan

    def shutdown(self, grace: float = 2.0) -> bool:
        """Stop the worker thread (idempotent); returns True if it joined.

        A worker blocked in a transport ``recv`` — a peer's message or
        the leader's fingerprint, whose sender diverged or died — cannot
        see the queue sentinel, so after ``grace`` seconds the hub is
        closed to wake it with ``TransportClosedError`` instead of
        stranding the thread.  Split-phase collectives nobody
        completed fail, so a later ``wait()`` raises at once; a thread
        parked completing one is woken like a blocked worker.  Workers
        (or such threads) that still fail to finish are reported via
        ``worker_stuck`` and a log line.
        """
        if self._closed:
            return not self._worker.is_alive()
        self._closed = True
        if self._monitor is not None:
            # Leave a parting snapshot so a peer's hang report can still
            # attribute a later hang to this (exited) rank.
            self._monitor.unwatch(self)
        for work in list(self._pending):  # a completed one keeps its result
            work._complete(CollectiveError(
                f"process group {self._group_id} shut down before "
                f"{work.description} completed"
            ))
        self._pending.clear()
        self._queue.put(None)
        deadline = min(grace, self.timeout)
        if not self._quiesce(deadline):
            logger.warning(
                "comm worker of group %s on rank %d did not drain within "
                "%.1fs; closing the transport hub to unblock them",
                self._group_id, self.global_rank, deadline,
            )
            self.hub.close()
            self._quiesce(deadline)
        stranded = [self._worker.name] if self._worker.is_alive() else []
        stranded += [work.description for work in list(self._executing)]
        self.worker_stuck = bool(stranded)
        if self.worker_stuck:
            logger.error(
                "comm worker or collective completion(s) of group %s on "
                "rank %d did not finish even after the transport hub was "
                "closed (%s stranded)",
                self._group_id, self.global_rank, ", ".join(stranded),
            )
        else:
            self._cleanup_store_namespace()
        return not self.worker_stuck

    def _quiesce(self, timeout: float) -> bool:
        """Join the worker, then wait out callers still completing a
        split-phase collective; True if nothing is left executing."""
        self._worker.join(timeout=timeout)
        end = time.perf_counter() + timeout
        while self._executing and time.perf_counter() < end:
            time.sleep(0.005)
        return not self._executing and not self._worker.is_alive()

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
            logger.exception(
                "store cleanup for group %s failed (keys left behind)", gid
            )

    # ------------------------------------------------------------------
    # consistency checking
    # ------------------------------------------------------------------
    # Every rank must issue the same collective at sequence ``seq`` with
    # the same fingerprint, or real libraries corrupt data or hang (paper
    # §3.3); we raise a CollectiveMismatchError with a field-level diff.
    # The fingerprint travels on the hub under the tag ``(group, seq)``:
    # with a small collective's contribution, or alone from a worker-path
    # leader.  Ranks that disagree on the protocol meet in that mailbox.
    def _detail_key(self, seq: int, rank: int) -> str:
        return f"pg{self._group_id}/sig/{seq}/rank{rank}"

    def _check_signature(self, record: CollectiveRecord, signature: dict) -> None:
        """The worker path's check: the leader posts its fingerprint,
        without data, under the tag a small collective's post uses; every
        other rank takes it and compares."""
        tag = (self._group_id, record.seq)
        if self.group_rank == 0:
            if self._peer_ranks:
                self.hub.post(self.global_rank, self._peer_ranks, tag, Signed(signature, None))
            return
        post = self._await_post(0, tag, record.name, time.perf_counter() + self.timeout)
        if post.signature != signature:
            raise self._mismatch(record.seq, signature, 0, post.signature)

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
            peer_sigs = {
                r: sig for r, k in keys.items()
                if (sig := self.store.try_get(k)) is not None
            }
        return CollectiveMismatchError(_desync.render_mismatch(
            self._group_id, seq, self.ranks[high], high_sig, self.ranks[low], low_sig,
            peer_sigs, role="leader" if low == 0 else "peer",
        ))

    def _await_post(self, offset: int, tag: tuple, what: str, deadline: float) -> Signed:
        """Park until ``deadline`` for group rank ``offset``'s post under
        ``tag`` — a small collective's contribution, or the fingerprint
        of a worker-path leader; either path's ``what`` names it."""
        src = self.ranks[offset]
        try:
            return algorithms._recv(self.hub, self.global_rank, src, tag,
                                    max(0.0, deadline - time.perf_counter()))
        except TransportTimeoutError:
            raise CollectiveTimeoutError(
                f"rank {self.global_rank} timed out waiting for rank {src}'s post "
                f"to {what} in group {self._group_id} (peer rank diverged, hung "
                f"or exited)"
            ) from None

    def _next_tag(self, op_name: str) -> tuple:
        seq = self._seq
        self._seq += 1
        return (self._group_id, seq, op_name)

    def _check_device(self, tensor) -> None:
        if not self.supports_cpu_tensors and _device_of(tensor) == "cpu":
            raise CollectiveError(
                f"backend {self.backend!r} only supports device tensors "
                f"(got a tensor on 'cpu'); copy to a gpu:* device first"
            )

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
        shape, dtype and signed operands) → sequence number → the
        collective's one record, issued (:meth:`_issue`) → :meth:`_round`
        on this thread (a one-round row, at its size), or
        ``_submit`` of a closure that checks the signature, runs the op's
        algorithm and translates transport timeouts.  ``name`` selects
        the row of ``_OPS``;
        ``operands`` are the op's keyword operands in the algorithm's
        positional order.  Returns the :class:`Work` when ``async_op``,
        else the algorithm's result (None for in-place ops).
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
        tag = self._next_tag(name)
        if wire is not None:
            self.bytes_communicated += wire
        record = CollectiveRecord(tag[1], self._group_id, record_facts, wire)
        self._issue(record, signature)
        if split:
            return self._round(record, signature, array, operands, async_op)
        if name == "allreduce":
            record.extra["algorithm"] = self.algorithm
        args = ([] if array is None else [array]) + list(operands.values())

        def run():
            self._check_signature(record, signature)
            try:
                return row.algorithm(
                    self.hub, self.ranks, self.group_rank, *args, tag, self.timeout)
            except TransportTimeoutError as exc:
                raise CollectiveTimeoutError(str(exc)) from exc

        return self._submit(run, record, async_op)

    def _describe(self, name: str, row: _Op, array, operands: dict) -> tuple:
        """``(fingerprint, record facts, accounted bytes, one round)``;
        raises for an ``avg`` of a non-floating dtype, before a sequence
        number is spent."""
        if operands.get("reduce_op") == ReduceOp.AVG:
            algorithms.check_avg_dtype(array.dtype)
        signature = _desync.fingerprint(
            name, array, **{field: operands[field] for field in row.signature}
        )
        world = len(self.ranks)
        wire = None if array is None else array.nbytes * (world if row.world_bytes else 1)
        split = row.one_round == "always" or (
            row.one_round == "small" and algorithms.one_round(array.nbytes, world))
        record_facts = dict(signature, world=world, backend=self.backend)
        if split and name == "allreduce":
            record_facts["algorithm"] = "naive"
        return signature, record_facts, wire, split

    def _round(self, record: CollectiveRecord, signature: dict, array, operands: dict,
               async_op: bool):
        """Run a one-round collective on this thread: post a signed
        private copy of what each peer needs from this rank — the buffer
        (a broadcast's only from its root), an all-gather's contribution,
        a reduce-scatter's span of that peer — in one hub round; the
        :class:`_RoundWork` lands the result on whoever waits for it."""
        me, world, name = self.group_rank, len(self.ranks), record.op
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
        work = _RoundWork(record, self, signature, pieces, missing, land)
        record.start()
        try:
            for dsts, payload in posts:
                if dsts:
                    self.hub.post(self.global_rank, dsts, work._tag, Signed(signature, payload))
        except Exception as exc:  # raised by wait(), as a worker's would be
            work._complete(exc)
        else:
            self._pending.add(work)
        if async_op:
            return work
        work.wait()
        return work.result[0]

    def allreduce(self, tensor, op: str = ReduceOp.SUM, async_op: bool = False):
        """Reduce ``tensor`` in place across the group (sum by default).

        When ``Work.wait()`` returns the tensor is the caller's again (large
        ones are lent to peers, see :mod:`repro.comm.algorithms`).  Under
        the size rule the call posts a copy — the contribution — and the
        reduction runs in ``wait()`` / ``is_completed()``.
        """
        return self._collective("allreduce", tensor, async_op, reduce_op=op)

    def broadcast(self, tensor, src: int = 0, async_op: bool = False):
        """Broadcast from group-rank ``src`` into every rank's tensor.

        Under the size rule the root posts one copy to each peer at issue
        and each peer receives it in ``wait()`` (split phase); above it a
        communication worker runs the tree broadcast.
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
        back the fully reduced span ``r`` as a new array.  One round at
        every size: the call posts each peer a copy of that peer's span,
        and ``wait()`` reduces the pieces of span ``r`` in group-rank
        order (the caller's tensor is not modified, and its own span is
        read there, so it stays lent until then).  This is the
        gradient-sharding primitive of the ZeRO stages
        (:mod:`repro.sharded`).  With ``async_op=True`` returns a
        :class:`Work` whose ``result[0]`` holds the span after ``wait()``.
        """
        return self._collective("reduce_scatter_flat", tensor, async_op, reduce_op=op)

    #: The name torch gives the collective, and one the repo benchmark's
    #: tracer wraps by name (``benchmarks/e2e/tracing.py``); the same method.
    reduce_scatter = reduce_scatter_flat

    def all_gather_flat(self, tensor, shard=None, async_op: bool = False):
        """Fill ``tensor`` in place with every rank's contiguous span.

        The inverse of :meth:`reduce_scatter_flat`: the flat tensor is
        partitioned with
        :func:`~repro.comm.algorithms.partition_spans` and after the
        collective every rank holds all spans.  Rank ``r`` contributes
        span ``r`` — from ``shard`` when given (its element count must
        match the span), otherwise from the tensor's own span, copied at
        the call and posted to every peer in one round.  This is the
        parameter-materialization primitive of the ZeRO stages
        (:mod:`repro.sharded`).
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
        self.hub.send(
            self.ranks[self.group_rank], self.ranks[dst], ("p2p", self._group_id, tag),
            array.copy(),
        )

    def recv(self, tensor, src: int, tag: object = "p2p") -> None:
        """Blocking point-to-point receive from group-rank ``src``."""
        array = _as_array(tensor)
        incoming = self.hub.recv(
            self.ranks[self.group_rank], self.ranks[src], ("p2p", self._group_id, tag),
            self.timeout,
        )
        array[...] = incoming.reshape(array.shape)
