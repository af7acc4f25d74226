"""The ``ProcessGroup`` abstraction and its backend implementations.

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
* **Device restrictions** — ``ProcessGroupNccl`` only accepts tensors on
  ``gpu:*`` devices, which forces DDP to keep its CPU bitmap copy logic
  (paper §4.2, "Globally Unused Parameters").
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.comm import algorithms
from repro.comm.store import Store, StoreTimeoutError
from repro.comm.transport import TransportClosedError, TransportHub, TransportTimeoutError
from repro.debug import desync as _desync
from repro.debug.flight_recorder import CollectiveRecord, FlightRecorder, recorder_for
from repro.debug.levels import DEBUG, DETAIL
from repro.telemetry.health import accounting as _health
from repro.telemetry.metrics import registry_for
from repro.telemetry.spans import TRACER
from repro.utils.logging import logger
from repro.utils.rank import set_current_rank


class ReduceOp:
    """Reduction operators accepted by collectives.

    ``AVG`` (``allreduce``, ``reduce`` and ``reduce_scatter_flat``,
    floating dtypes) is ``SUM`` plus one division by the group size, done
    inside the collective by the rank that finishes reducing each chunk —
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
    its terminal state, and the scheduled/started/finished stamps
    (``perf_counter`` seconds) written around the collective's execution
    — so callers holding the handle, notably the reducer's per-bucket
    latency and overlap-ratio accounting, can read how long the operation
    actually ran, as opposed to how long they waited on it.
    ``result[0]`` holds what the collective's algorithm returned (None
    for in-place ops) once ``wait()`` returns.

    This handle is a collective above the size rule
    (:func:`~repro.comm.algorithms.one_round`), run by a communication
    worker: ``wait()`` parks on an event the worker sets.  A small
    collective is a :class:`_SplitWork` and makes progress in ``wait()``
    / ``is_completed()`` instead.
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
        # The record keeps its first terminal state: the hang watchdog
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


class _SplitWork(Work):
    """A collective under the size rule, completed on the caller.

    Its contribution was posted at issue (``exchange``, an
    :class:`~repro.comm.algorithms.OneRound`); nothing is queued and no
    thread owns it.  The first ``wait()`` — or an ``is_completed()`` that
    finds every contribution already there — checks the leader's
    signature (non-leaders), receives what is missing, lands the result
    and runs the group's bookkeeping (``ProcessGroup._execute``).  A lock
    makes that happen exactly once however many threads ask; a thread
    that finds another one completing parks on the lock.
    """

    def __init__(self, record, group: "ProcessGroup", signature: dict, retries):
        self.record = record
        self.result = [None]
        self._group = group
        self._exchange = None  # set once posted
        self._signature = signature
        #: Non-leaders still have to see the leader's signature.
        self._verify = group.group_rank != 0
        self._retries = retries
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
            if not self._finished and (
                block or self._arrived()
                or time.perf_counter() - self.record.t_start > self._group.timeout
            ):
                self._group._execute(
                    self, lambda: self._land(timeout if block else 0.0), self._retries)
                self._finished = True
        finally:
            self._lock.release()
        return self._finished

    def _arrived(self) -> bool:
        """Without parking: is everything needed to complete here?  An
        error counts (completing then raises it)."""
        try:
            if self._verify:
                leader = self._group.store.try_get(self._group._signature_key(self.record.seq))
                if leader is None:
                    return False
                if leader != self._signature:
                    return True
                self._verify = False
            return self._exchange.drain(False)
        except TransportClosedError:
            return True

    def _land(self, timeout: Optional[float]):
        """Complete the collective: verify, receive the rest, land the result."""
        group = self._group
        if self._verify:
            group._verify_signature(self.record.seq, self._signature)
        try:
            self._exchange.drain(True, group.timeout if timeout is None else timeout)
        except TransportTimeoutError as exc:
            raise CollectiveTimeoutError(str(exc)) from exc
        self._exchange.finish()


def _as_array(tensor) -> np.ndarray:
    """Accept either a library Tensor or a raw ndarray."""
    if isinstance(tensor, np.ndarray):
        return tensor
    data = getattr(tensor, "data", None)
    if not isinstance(data, np.ndarray):
        raise TypeError(f"collectives operate on tensors/ndarrays, got {type(tensor)}")
    return data


def _device_of(tensor) -> Optional[str]:
    """Device tag, or None for raw ndarrays (treated as device memory)."""
    if isinstance(tensor, np.ndarray):
        return None
    return getattr(tensor, "device", None)


class _Op(NamedTuple):
    """One row of the collective table ``ProcessGroup._collective`` runs."""

    #: Worker path: ``fn(hub, ranks, rank, [array,] *operands, tag,
    #: timeout[, chunk_bytes])``; None = the group's current AllReduce
    #: algorithm, resolved per call.
    algorithm: Optional[Callable]
    #: Operands that enter the signature every rank must agree on.
    signature: Tuple[str, ...] = ()
    #: Accounted bytes are ``nbytes × world`` (every rank's tensor lands here).
    world_bytes: bool = False
    #: The group's ``chunk_bytes`` is forwarded to the algorithm.
    chunked: bool = False
    #: Split phase under the size rule: ``cls(hub, ranks, rank, [array,]
    #: *operands, tag)`` posts at issue (an ``algorithms.OneRound``).
    one_round: Optional[Callable] = None


def _barrier_round(hub, ranks, me, tag) -> algorithms.OneRound:
    """The barrier: a one-element split-phase AllReduce of a token."""
    return algorithms.OneRoundAllreduce(hub, ranks, me, np.zeros(1, np.int64), "sum", tag)


def _allgather(hub, ranks, me, array, tag, timeout, chunk_bytes) -> np.ndarray:
    """Every rank's tensor as row ``r`` of a ``(world, n)`` array: the
    flat ring all-gather with this rank's tensor as its shard."""
    out = np.empty((len(ranks), array.size), dtype=array.dtype)
    algorithms.all_gather_into_flat(hub, ranks, me, out, array, tag, timeout, chunk_bytes)
    return out


_OPS = {
    "allreduce": _Op(None, ("reduce_op",), chunked=True,
                     one_round=algorithms.OneRoundAllreduce),
    "broadcast": _Op(algorithms.broadcast, ("src",), chunked=True,
                     one_round=algorithms.OneRoundBroadcast),
    "allgather": _Op(_allgather, world_bytes=True, chunked=True),
    "reduce_scatter_flat": _Op(
        algorithms.reduce_scatter_flat, ("reduce_op",), chunked=True
    ),
    "all_gather_flat": _Op(algorithms.all_gather_into_flat, chunked=True),
    "reduce": _Op(algorithms.reduce, ("root", "reduce_op"), chunked=True),
    "gather": _Op(algorithms.gather, ("root",)),
    "scatter": _Op(algorithms.scatter, ("root",)),
    # No tensor, so always under the size rule: never reaches a worker.
    "barrier": _Op(None, one_round=_barrier_round),
}

#: ``ReliableTransportHub.retry_totals_for`` order; per-collective deltas
#: land under these names in the record's ``extra``.
_RETRY_COUNTERS = ("retries", "retransmits", "duplicates_dropped", "corrupt_detected")


class ProcessGroup:
    """One rank's membership in a communicator group.

    Subclasses choose the default AllReduce algorithm and the accepted
    device kinds.  Per-rank instances coordinate purely through the
    shared :class:`TransportHub` and :class:`Store`.
    """

    #: Backend name, e.g. "nccl" — used by cost models and diagnostics.
    backend = "base"
    #: Default AllReduce algorithm key into ``algorithms.ALLREDUCE_ALGORITHMS``.
    default_algorithm = "ring"
    #: Whether tensors tagged "cpu" may be communicated.
    supports_cpu_tensors = True

    def __init__(
        self,
        store: Store,
        hub: TransportHub,
        rank: int,
        ranks: Optional[Sequence[int]] = None,
        group_id: Optional[int] = None,
        timeout: float = 30.0,
        algorithm: Optional[str] = None,
        chunk_bytes: Optional[int] = None,
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
        self.algorithm = algorithm or self.default_algorithm
        if self.algorithm not in algorithms.ALLREDUCE_ALGORITHMS:
            raise ValueError(f"unknown allreduce algorithm {self.algorithm!r}")
        #: Default transfer-chunk size forwarded to the AllReduce
        #: algorithm (None → the module default in ``algorithms``).
        self.chunk_bytes = chunk_bytes
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
        # since when; the hang watchdog polls the oldest (``_inflight``).
        self._executing: dict = {}
        # Split-phase Work posted and not yet completed (shutdown fails
        # it, so no later wait() parks on it).
        self._pending: set = set()
        # With a retrying transport, this rank's retry counter movement
        # is attributed to the collective that ran (approximate while
        # several run at once).
        self._retry_probe = getattr(hub, "retry_totals_for", None)
        #: Set when shutdown could not join a communication worker.
        self.worker_stuck = False

        # Rendezvous: block until every member has constructed (paper §3.3).
        arrival_key = f"pg{self._group_id}/arrivals"
        self.store.add(arrival_key, 1)
        self.store.wait_value(
            arrival_key, lambda v: v >= len(self.ranks), timeout=timeout
        )

        # Debug layer (REPRO_DEBUG=INFO|DETAIL): a hang watchdog thread
        # for this group membership.
        self._watchdog = None
        if DEBUG.level:
            from repro.debug.watchdog import HangWatchdog

            self._watchdog = HangWatchdog(self)

        # The dedicated communication worker and its FIFO queue.
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._worker = threading.Thread(
            target=self._worker_loop,
            name=f"pg{self._group_id}-rank{self.global_rank}-comm",
            daemon=True,
        )
        self._worker.start()
        if self._watchdog is not None:
            self._watchdog.start()

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
        """The longest-executing Work and since when, or None.

        The hang watchdog polls this; with several collectives executing
        at once (the worker's and callers completing split-phase ones)
        the longest-running one is the one worth reporting.  A
        split-phase collective counts from the moment a thread began to
        complete it, not from its post: the caller's compute in between
        is not a hang.
        """
        return min(list(self._executing.items()), key=lambda item: item[1], default=None)

    def _worker_loop(self) -> None:
        # Worker threads carry the owning rank's identity so telemetry
        # spans and log records from inside collectives attribute
        # correctly (the rank contextvar does not cross thread spawns).
        set_current_rank(self.global_rank)
        while True:
            item = self._queue.get()
            if item is None:
                return
            fn, work = item
            retries = self._retries()
            work.record.start()
            self._execute(work, fn, retries)
            work._done.set()

    def _retries(self):
        """This rank's retry counters now, or None on a plain hub."""
        return self._retry_probe(self.global_rank) if self._retry_probe else None

    def _execute(self, work: Work, run: Callable, retries) -> None:
        """Run ``work``'s collective body between its bookkeeping stamps.

        The one sequence both paths share — the worker loop for every
        queued collective, a split-phase Work for its completion step:
        listed as executing (watchdog), health bracket opened, ``run()``
        into ``work.result[0]``, record finished with what it raised,
        retry deltas since ``retries`` attached, health metrics
        published.  The caller releases waiters after it returns, so a
        thread returning from ``wait()`` finds every view written.
        """
        record = work.record
        self._executing[work] = time.perf_counter()
        self._observe(record, "start")
        error: Optional[BaseException] = None
        try:
            work.result[0] = run()
        except BaseException as exc:  # propagate through the Work handle
            error = exc
        record.finish(error)
        del self._executing[work]
        self._pending.discard(work)
        if retries is not None:
            for name, before, after in zip(_RETRY_COUNTERS, retries, self._retries()):
                if after > before:
                    record.extra[name] = after - before
        self._observe(record, "finish")

    def _observe(self, record: CollectiveRecord, stage: str) -> None:
        """Hand ``record`` at ``stage`` to the two views that need a hook.

        The one place observers attach to a collective: ``"schedule"``
        comes from the issuing thread, ``"start"`` and ``"finish"`` from
        whichever thread executes it (:meth:`_execute`).

        * the record ring (``REPRO_DEBUG`` ≥ INFO or telemetry on) —
          retains the record from schedule on; later stamps show through
          the reference, and the causal timeline, the ``comm`` trace row
          and the profiler are read from it;
        * health accounting (telemetry + its kill switch) — brackets
          execution so the algorithms' receive helper can attribute
          stalls per source, and publishes efficiency metrics at finish.
        """
        if stage == "schedule":
            if DEBUG.level or TRACER.enabled:
                recorder_for(self.global_rank).add(record)
        elif _health.collecting_enabled():
            if stage == "start":
                _health.begin_collective()
            else:
                _health.record_collective(
                    self.global_rank, record, len(self.ranks), self.backend
                )

    def _issue(self, record: CollectiveRecord) -> None:
        """What every collective does first on the issuing thread: check
        the group is open, fire collective-scoped fault rules, observe
        the schedule stamp."""
        if self._closed:
            raise CollectiveError("process group has been shut down")
        if self._fault_plan is not None:
            # Raises InjectedRankFailure on the issuing rank's own
            # thread when a collective-scoped crash rule fires — before
            # the collective is queued, so peers see a vanished rank.
            self._fault_plan.on_collective(
                self.global_rank, record.op, record.seq, self._group_id
            )
        self._observe(record, "schedule")

    def _submit(self, fn, record: CollectiveRecord, async_op: bool):
        """Queue ``fn`` on the communication worker.

        The worker runs collectives in issue order, which is the same
        order on every rank.  Returns the :class:`Work` when
        ``async_op``; otherwise waits and returns what ``fn`` returned.
        """
        self._issue(record)
        work = Work(record)
        self._queue.put((fn, work))
        if async_op:
            return work
        work.wait(self.timeout + 5.0)
        return work.result[0]

    def _post(self, post, record: CollectiveRecord, signature: dict, async_op: bool):
        """Run a split-phase collective's first half on this thread.

        Publishes the ``signature``, stamps the start and runs ``post()``
        — the contribution is on the wire when this returns — and hands
        back a :class:`_SplitWork` that completes on whoever waits for
        it.  Returns the Work when ``async_op``; otherwise waits and
        returns what the collective returned.
        """
        self._issue(record)
        self._publish_signature(record.seq, signature)
        work = _SplitWork(record, self, signature, self._retries())
        record.start()
        try:
            work._exchange = post()
            self._pending.add(work)
        except Exception as exc:  # raised by wait(), as a worker's would be
            work._complete(exc)
        if async_op:
            return work
        work.wait()
        return work.result[0]

    def install_fault_plan(self, plan) -> None:
        """Install (or with ``None`` remove) a fault plan on this group.

        Overrides the plan inherited from the hub for collective-scoped
        rules; wire-scoped rules always live on the transport hub.
        """
        self._fault_plan = plan

    # ------------------------------------------------------------------
    # live retuning (repro.autotune)
    # ------------------------------------------------------------------
    def set_algorithm(self, algorithm: str) -> None:
        """Switch the AllReduce algorithm for *future* collectives.

        The algorithm is resolved per call, so the switch takes effect
        on the next collective issued.  Every rank must switch at the
        same sequence point — ranks running different algorithms for
        the same collective would deadlock on mismatched message
        patterns.  The autotuner applies this only at agreed iteration
        boundaries.
        """
        if algorithm not in algorithms.ALLREDUCE_ALGORITHMS:
            raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
        self.algorithm = algorithm

    def set_chunk_bytes(self, chunk_bytes: Optional[int]) -> None:
        """Set the pipelining chunk size for future collectives
        (``None`` restores the module default).  Chunking never changes
        results, but all ranks must agree — chunk boundaries define the
        per-step message sequence."""
        if chunk_bytes is not None and chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.chunk_bytes = chunk_bytes

    def shutdown(self, grace: float = 2.0) -> bool:
        """Stop the worker thread (idempotent); returns True if it joined.

        A worker blocked in a transport ``recv`` (its peer diverged or
        died) cannot see the queue sentinel, so after ``grace`` seconds
        the hub is closed to wake it with ``TransportClosedError``
        instead of stranding the thread.  Split-phase collectives nobody
        completed fail, so a later ``wait()`` raises at once; a thread
        parked completing one is woken like a blocked worker.  Workers
        (or such threads) that still fail to finish are reported via
        ``worker_stuck`` and a log line.
        """
        if self._closed:
            return not self._worker.is_alive()
        self._closed = True
        if self._watchdog is not None:
            # Leave a parting snapshot so a peer's watchdog can still
            # attribute a later hang to this (exited) rank.
            try:
                self._watchdog.publish_state(status="shutdown")
            except Exception:
                logger.exception("failed to publish parting debug state")
            self._watchdog.stop()
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

        Collectives leave one signature key per sequence number (plus
        rendezvous counters, watchdog snapshots, barrier and DDP-check
        keys), which would grow the store without bound across long
        elastic runs that create a fresh group per generation.  The last
        member to shut down cleanly deletes the whole namespace — at
        that point no watchdog can still need the parting snapshots.
        Ranks that die without reaching shutdown leave the keys behind
        on purpose: they are the postmortem evidence.
        """
        gid = self._group_id
        try:
            arrivals = self.store.add(f"pgfini/{gid}/arrivals", 1)
            if arrivals < len(self.ranks):
                return
            for prefix in (
                f"pg{gid}/",       # rendezvous counter + per-seq signatures
                f"pgdebug/{gid}/", # watchdog alarms and snapshots
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
    # Every rank must issue the same collective at sequence ``seq``: the
    # group leader publishes its fingerprint (op, shape, dtype, nbytes,
    # reduce op / src / root) and everyone else compares.  Real libraries
    # would corrupt data or hang here (paper §3.3); we raise a
    # CollectiveMismatchError carrying a field-level diff — and, under
    # REPRO_DEBUG=DETAIL, every rank's signature so the report shows
    # exactly who diverged.  A worker-run collective does both halves
    # before its algorithm; a split-phase one publishes at issue and
    # verifies at completion.
    def _signature_key(self, seq: int) -> str:
        return f"pg{self._group_id}/sig/{seq}"

    def _publish_signature(self, seq: int, signature: dict) -> None:
        """The leader's fingerprint (every rank's too under DETAIL)."""
        if DEBUG.level >= DETAIL:
            self.store.set(f"{self._signature_key(seq)}/rank{self.global_rank}", signature)
        if self.group_rank == 0:
            self.store.set(self._signature_key(seq), signature)

    def _verify_signature(self, seq: int, signature: dict) -> None:
        """A non-leader's comparison against the leader's fingerprint."""
        if self.group_rank == 0:
            return
        key = self._signature_key(seq)
        leader_sig = self._wait_leader_signature(key, seq)
        if leader_sig != signature:
            peer_sigs = None
            if DEBUG.level >= DETAIL:
                # Best-effort gather: peers publish before comparing, so
                # a short wait usually collects the whole group.
                deadline = time.perf_counter() + min(1.0, self.timeout / 4.0)
                keys = {r: f"{key}/rank{r}" for r in self.ranks}
                while time.perf_counter() < deadline:
                    if all(self.store.try_get(k) is not None for k in keys.values()):
                        break
                    time.sleep(0.01)
                peer_sigs = {
                    r: sig for r, k in keys.items()
                    if (sig := self.store.try_get(k)) is not None
                }
            raise CollectiveMismatchError(
                _desync.render_mismatch(
                    self._group_id, seq, self.global_rank, signature,
                    self.ranks[0], leader_sig, peer_sigs,
                )
            )

    def _wait_leader_signature(self, key: str, seq: int) -> dict:
        """Blocking read of the leader's signature, sliced so a shutdown
        (``self._closed``) wakes the worker instead of stranding it for
        the full group timeout."""
        deadline = time.perf_counter() + self.timeout
        while True:
            remaining = deadline - time.perf_counter()
            try:
                return self.store.get(key, timeout=max(0.0, min(0.25, remaining)))
            except StoreTimeoutError:
                if self._closed or self.hub.closed:
                    raise CollectiveError(
                        f"process group {self._group_id} shut down while "
                        f"waiting for the leader's signature of collective "
                        f"#{seq}"
                    ) from None
                if remaining <= 0:
                    raise CollectiveTimeoutError(
                        f"rank {self.global_rank} timed out after "
                        f"{self.timeout}s waiting for the leader (rank "
                        f"{self.ranks[0]}) to issue collective #{seq} in "
                        f"group {self._group_id} — the leader diverged, "
                        f"hung, or exited"
                    ) from None

    def _next_tag(self, op_name: str) -> tuple:
        seq = self._seq
        self._seq += 1
        return (self._group_id, seq, op_name)

    def _check_device(self, tensor) -> None:
        if not self.supports_cpu_tensors and _device_of(tensor) == "cpu":
            raise CollectiveError(
                f"{type(self).__name__} only supports device tensors "
                f"(got a tensor on 'cpu'); copy to a gpu:* device first"
            )

    def _record_op_metrics(self, op_name: str, nbytes: int) -> None:
        if TRACER.enabled:
            registry = registry_for(self.global_rank)
            registry.counter(f"{op_name}.count").add(1)
            registry.counter(f"{op_name}.bytes").add(nbytes)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in this group (the p of the α–β model)."""
        return len(self.ranks)

    def _collective(self, name: str, tensor, async_op: bool = False, **operands):
        """The one path every collective takes (paper §3.3's uniform contract).

        Device check → sequence number → fingerprint → byte accounting →
        the collective's one record → either ``_submit`` of a closure
        that checks the signature, runs the op's algorithm and translates
        transport timeouts (for a communication worker), or — for a row
        with a one-round form, under the size rule — ``_post`` of that
        form on this thread.  ``name`` selects the row of ``_OPS``;
        ``operands`` are the op's keyword operands in the algorithm's
        positional order.  Returns what the public method returns: the
        :class:`Work` when ``async_op``, else the algorithm's result
        (None for in-place ops).
        """
        row = _OPS[name]
        array = wire = None
        if tensor is not None:  # scatter and barrier carry no tensor
            self._check_device(tensor)
            array = _as_array(tensor)
        if operands.get("reduce_op") == ReduceOp.AVG:
            # On the issuing thread, before a sequence number is spent.
            algorithms.check_avg_dtype(array.dtype)
        tag = self._next_tag(name)
        seq = tag[1]
        signature = _desync.fingerprint(
            name, array, **{key: operands[key] for key in row.signature}
        )
        if array is not None:
            wire = array.nbytes * (len(self.ranks) if row.world_bytes else 1)
            self.bytes_communicated += wire
            self._record_op_metrics(name, wire)
        record = CollectiveRecord(seq, self._group_id, signature, wire)
        args = ([] if array is None else [array]) + list(operands.values())
        split = row.one_round is not None and (
            array is None or algorithms.one_round(array.nbytes, len(self.ranks))
        )
        if name == "allreduce":
            record.extra["algorithm"] = "naive" if split else self.algorithm
        if split:
            # Messages are filed under the fingerprint too, so a peer's
            # mismatched post is never consumed, only diagnosed.
            key = (tag, tuple(signature.values()))

            def post():
                return row.one_round(self.hub, self.ranks, self.group_rank, *args, key)

            return self._post(post, record, signature, async_op)
        algorithm = row.algorithm or algorithms.ALLREDUCE_ALGORITHMS[self.algorithm]

        def run():
            self._publish_signature(seq, signature)
            self._verify_signature(seq, signature)
            chunk = (self.chunk_bytes,) if row.chunked else ()
            try:
                return algorithm(
                    self.hub, self.ranks, self.group_rank, *args, tag,
                    self.timeout, *chunk,
                )
            except TransportTimeoutError as exc:
                raise CollectiveTimeoutError(str(exc)) from exc

        return self._submit(run, record, async_op)

    def allreduce(self, tensor, op: str = ReduceOp.SUM, async_op: bool = False):
        """Reduce ``tensor`` in place across the group (sum by default).

        When an ``async_op`` call's ``Work.wait()`` returns, the tensor
        is the caller's again: no peer still reads it (large tensors are
        lent to peers rather than copied, see :mod:`repro.comm.algorithms`).
        Under the size rule the call posts a copy of the tensor to every
        peer before it returns — that copy is the contribution — and the
        receives and the reduction run in ``wait()`` / ``is_completed()``.
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
        sync form's return value, ``Work.result[0]`` otherwise): the ring
        of :meth:`all_gather_flat`, with row ``r`` as rank ``r``'s span."""
        return self._collective("allgather", tensor, async_op)

    def reduce_scatter_flat(self, tensor, op: str = ReduceOp.SUM, async_op: bool = False):
        """Reduce across the group and return this rank's contiguous span.

        The flat tensor is partitioned with
        :func:`~repro.comm.algorithms.partition_spans`; rank ``r`` gets
        back the fully reduced span ``r`` as a new array (the caller's
        tensor is not modified, and stays lent to the peers until the
        collective completed).  This is the gradient-sharding
        primitive of the ZeRO stages (:mod:`repro.sharded`).  With
        ``async_op=True`` returns a :class:`Work` whose ``result[0]``
        holds the span after ``wait()``.
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
        match the span), otherwise from the tensor's own span.  This is
        the parameter-materialization primitive of the ZeRO stages
        (:mod:`repro.sharded`).
        """
        shard_array = None if shard is None else _as_array(shard)
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
        """Block until every member rank reaches this barrier.

        A one-element split-phase AllReduce of a token: every rank posts
        to every peer, then receives from every peer — one round, ≈ α,
        p − 1 messages each way per rank, entirely on the calling thread
        (no communication worker is involved).  Thread-safe like every
        collective here: issue from the rank's own thread.
        """
        self._collective("barrier", None)

    def send(self, tensor, dst: int, tag: object = "p2p") -> None:
        """Point-to-point send to group-rank ``dst`` (paper §2.3 contrasts
        this with collectives; provided for parameter-server-style code)."""
        array = _as_array(tensor)
        self.bytes_communicated += array.nbytes
        self._record_op_metrics("p2p.send", array.nbytes)
        self.hub.send(
            self.ranks[self.group_rank], self.ranks[dst], ("p2p", self._group_id, tag),
            array.copy(),
        )

    def recv(self, tensor, src: int, tag: object = "p2p") -> None:
        """Blocking point-to-point receive from group-rank ``src``."""
        array = _as_array(tensor)
        self._record_op_metrics("p2p.recv", array.nbytes)
        incoming = self.hub.recv(
            self.ranks[self.group_rank], self.ranks[src], ("p2p", self._group_id, tag),
            self.timeout,
        )
        array[...] = incoming.reshape(array.shape)


class ProcessGroupNccl(ProcessGroup):
    """NCCL personality: ring AllReduce, device tensors only.

    Like ``ProcessGroupNCCL`` in the paper (§4.2), CPU tensors are
    rejected — DDP must stage its unused-parameter bitmap through a
    device-resident copy when running on this backend.
    """

    backend = "nccl"
    default_algorithm = "ring"
    supports_cpu_tensors = False


class ProcessGroupGloo(ProcessGroup):
    """Gloo personality: halving-doubling AllReduce, CPU tensors fine."""

    backend = "gloo"
    default_algorithm = "halving_doubling"
    supports_cpu_tensors = True


class ProcessGroupMpi(ProcessGroup):
    """MPI personality: the paper's third backend option (§3.3).

    Tree-based AllReduce (latency-optimized, as in classic MPI
    implementations); CPU tensors accepted.  The paper does not evaluate
    MPI, so no cost-model personality is calibrated for it.
    """

    backend = "mpi"
    default_algorithm = "tree"
    supports_cpu_tensors = True


BACKENDS = {
    "nccl": ProcessGroupNccl,
    "gloo": ProcessGroupGloo,
    "mpi": ProcessGroupMpi,
}
