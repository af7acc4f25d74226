"""Rank contexts, group initialization, and the thread harness.

``run_distributed(world_size, fn)`` is the library's ``torchrun``: it
creates the shared rendezvous store and transport hub, launches one
thread per rank, runs ``fn(rank)`` (or ``fn()``) inside a rank context,
joins, and re-raises the first failure.  Within a rank thread the usual
``init_process_group`` / ``get_rank`` / ``new_process_group`` APIs are
available, mirroring ``torch.distributed``.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.comm.process_group import BACKENDS, ProcessGroup
from repro.comm.round_robin import RoundRobinProcessGroup
from repro.comm.store import Store, StoreTimeoutError
from repro.comm.transport import TransportHub
from repro.utils.logging import logger
from repro.utils.rank import set_current_rank

_thread_ctx = threading.local()


@dataclass
class DistributedContext:
    """Everything a rank thread needs to participate in collectives."""

    rank: int
    world_size: int
    store: Store
    hub: TransportHub
    default_group: Optional[ProcessGroup] = None
    _owned_groups: List = field(default_factory=list)

    def close(self) -> None:
        """Shut down every owned group.

        A communication worker wedged in a transport ``recv`` (its peer
        diverged or died) is woken by the group's shutdown closing the
        hub; any worker that still fails to join is reported instead of
        silently stranded.
        """
        # Capture the run's final metrics before the groups go away —
        # without this, anything since the last sampler tick is lost.
        from repro.telemetry.observatory.sampler import flush_active_samplers

        flush_active_samplers()
        stuck: List[str] = []
        for group in self._owned_groups:
            if not group.shutdown():
                stuck.append(f"pg{group._group_id}")
        self._owned_groups.clear()
        self.default_group = None
        if stuck:
            logger.error(
                "rank %d: communication workers of %s could not be joined "
                "at context close", self.rank, ", ".join(stuck),
            )


def _set_context(ctx: Optional[DistributedContext]) -> None:
    _thread_ctx.ctx = ctx


def get_context() -> DistributedContext:
    """This thread's distributed context; raises outside a rank thread."""
    ctx = getattr(_thread_ctx, "ctx", None)
    if ctx is None:
        raise RuntimeError(
            "no distributed context on this thread; run inside run_distributed() "
            "or call init_process_group() with explicit store/hub"
        )
    return ctx


def get_rank() -> int:
    """Calling thread's global rank (``torch.distributed.get_rank``)."""
    return get_context().rank


def get_world_size() -> int:
    """Total rank count of the calling thread's distributed context."""
    return get_context().world_size


def init_process_group(
    backend: str = "nccl",
    store: Optional[Store] = None,
    hub: Optional[TransportHub] = None,
    rank: Optional[int] = None,
    world_size: Optional[int] = None,
    timeout: float = 30.0,
    group_id=0,
    **kwargs,
) -> ProcessGroup:
    """Create (or recreate) the default process group for this rank.

    Inside ``run_distributed`` the store/hub/rank arguments default to
    the harness-provided context; standalone callers must pass them.
    ``group_id`` namespaces the group's store keys and message tags —
    the elastic supervisor passes a fresh id per re-rendezvous
    generation so stale keys from a dead generation cannot bleed in.
    """
    ctx = getattr(_thread_ctx, "ctx", None)
    if ctx is None:
        if store is None or hub is None or rank is None or world_size is None:
            raise RuntimeError(
                "outside run_distributed(), init_process_group needs "
                "store=, hub=, rank=, world_size="
            )
        ctx = DistributedContext(rank, world_size, store, hub)
        _set_context(ctx)
        set_current_rank(rank)
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; options: {sorted(BACKENDS)}")
    group = BACKENDS[backend](
        ctx.store, ctx.hub, ctx.rank, group_id=group_id, timeout=timeout, **kwargs
    )
    ctx.default_group = group
    ctx._owned_groups.append(group)
    return group


def new_process_group(
    backend: str = "nccl",
    ranks: Optional[Sequence[int]] = None,
    timeout: float = 30.0,
    **kwargs,
) -> ProcessGroup:
    """Create an additional group (for round-robin or sub-groups).

    Every member rank must call this the same number of times in the
    same order; the group id is allocated collectively through the store.
    """
    ctx = get_context()
    member_ranks = sorted(ranks) if ranks is not None else list(range(ctx.world_size))
    # Allocate one id per (call-site order, membership); the first caller
    # bumps the counter, everyone else reads the same value via the
    # per-rank call count so ids align without a global barrier.
    count_key = f"pg_alloc/{tuple(member_ranks)}/rank{ctx.rank}"
    nth_call = ctx.store.add(count_key, 1)
    id_key = f"pg_id/{tuple(member_ranks)}/{nth_call}"
    if ctx.rank == member_ranks[0]:
        group_id = ctx.store.add("pg_id_counter", 1)
        ctx.store.set(id_key, group_id)
    else:
        group_id = ctx.store.get(id_key, timeout=timeout)
    if ctx.rank not in member_ranks:
        # As in torch.distributed.new_group: every rank calls, only
        # members receive a usable group.
        return None
    group = BACKENDS[backend](
        ctx.store,
        ctx.hub,
        ctx.rank,
        ranks=member_ranks,
        group_id=group_id,
        timeout=timeout,
        **kwargs,
    )
    ctx._owned_groups.append(group)
    return group


def new_round_robin_group(
    backend: str = "nccl", num_groups: int = 2, timeout: float = 30.0, **kwargs
) -> RoundRobinProcessGroup:
    """Compose ``num_groups`` fresh groups into a round-robin dispatcher."""
    members = [
        new_process_group(backend, timeout=timeout, **kwargs) for _ in range(num_groups)
    ]
    return RoundRobinProcessGroup(members)


def monitored_barrier(
    timeout: Optional[float] = None, group=None
) -> None:
    """A barrier that *names* the ranks that failed to reach it.

    The plain ``barrier()`` collective inherits the failure mode it is
    supposed to debug: if a rank diverged, the barrier itself hangs into
    an anonymous timeout.  ``monitored_barrier`` runs through the
    rendezvous store instead — every rank checks in, the group's first
    rank (the monitor) waits for all arrivals and releases everyone, and
    a timeout raises on the monitor with the exact set of missing ranks
    (on other ranks, with the monitor named as unresponsive).

    Like ``torch.distributed.monitored_barrier``: every member rank must
    call it the same number of times, at the same points.
    """
    ctx = get_context()
    pg = group if group is not None else ctx.default_group
    if pg is not None:
        ranks, group_id, store = list(pg.ranks), pg._group_id, pg.store
        my_rank = pg.global_rank
        timeout = timeout if timeout is not None else pg.timeout
    else:
        ranks, group_id, store = list(range(ctx.world_size)), "ctx", ctx.store
        my_rank = ctx.rank
        timeout = timeout if timeout is not None else store.timeout
    # Per-rank call counter: all ranks call in the same order, so the
    # counter aligns barrier instances without a collective.
    seq = store.add(f"mb/{group_id}/count/rank{my_rank}", 1)
    prefix = f"mb/{group_id}/{seq}"
    store.set(f"{prefix}/arrive/rank{my_rank}", time.perf_counter())
    monitor = ranks[0]
    if my_rank == monitor:
        arrive_keys = [f"{prefix}/arrive/rank{r}" for r in ranks]
        try:
            store.wait(arrive_keys, timeout=timeout)
        except StoreTimeoutError:
            missing = sorted(
                r for r in ranks
                if store.try_get(f"{prefix}/arrive/rank{r}") is None
            )
            store.set(f"{prefix}/release", {"ok": False, "missing": missing})
            raise RuntimeError(
                f"monitored_barrier #{seq} (group {group_id}) timed out "
                f"after {timeout}s: rank(s) {missing} never reached the "
                f"barrier (diverged, hung, or exited)"
            ) from None
        store.set(f"{prefix}/release", {"ok": True})
    else:
        try:
            release = store.get(f"{prefix}/release", timeout=timeout)
        except StoreTimeoutError:
            raise RuntimeError(
                f"monitored_barrier #{seq} (group {group_id}): no release "
                f"from monitor rank {monitor} within {timeout}s (the "
                f"monitor hung, or is itself waiting on a missing rank)"
            ) from None
        if not release["ok"]:
            raise RuntimeError(
                f"monitored_barrier #{seq} (group {group_id}) failed: "
                f"monitor rank {monitor} reported rank(s) "
                f"{release['missing']} missing"
            )


def destroy_process_group() -> None:
    """Tear down every group this rank created (idempotent)."""
    ctx = getattr(_thread_ctx, "ctx", None)
    if ctx is not None:
        ctx.close()


def run_distributed(
    world_size: int,
    fn: Callable,
    backend: Optional[str] = None,
    timeout: float = 30.0,
    store: Optional[Store] = None,
    hub: Optional[TransportHub] = None,
    fault_plan=None,
    **group_kwargs,
) -> List:
    """Run ``fn`` on ``world_size`` rank threads; returns per-rank results.

    ``fn`` may accept zero arguments or a single ``rank`` argument.  When
    ``backend`` is given, a default process group is initialized before
    ``fn`` runs; extra keyword arguments (e.g. ``chunk_bytes=65536``,
    ``algorithm="tree"``) are forwarded to the
    backend constructor.  A ``fault_plan``
    (:class:`repro.resilience.FaultPlan`) is installed on the hub before
    any rank starts.  The first rank exception is re-raised in the
    caller.
    """
    store = store or Store(timeout=timeout)
    hub = hub or TransportHub(world_size, default_timeout=timeout)
    if fault_plan is not None:
        hub.install_fault_plan(fault_plan)
    results: List = [None] * world_size
    errors: List = []
    wants_rank = len(inspect.signature(fn).parameters) >= 1

    def runner(rank: int) -> None:
        ctx = DistributedContext(rank, world_size, store, hub)
        _set_context(ctx)
        # Rank identity for log records and telemetry span attribution.
        set_current_rank(rank)
        try:
            if backend is not None:
                init_process_group(backend, timeout=timeout, **group_kwargs)
            results[rank] = fn(rank) if wants_rank else fn()
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            errors.append((rank, exc))
            # Unblock peers stuck in recv so the join below terminates.
            hub.close()
        finally:
            destroy_process_group()
            _set_context(None)

    threads = [
        threading.Thread(target=runner, args=(rank,), name=f"rank{rank}", daemon=True)
        for rank in range(world_size)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout * 4)
    alive = [t.name for t in threads if t.is_alive()]
    if alive and not errors:
        raise TimeoutError(f"rank threads did not finish: {alive}")
    if errors:
        # Prefer the root cause: ranks unblocked by hub.close() raise
        # TransportClosedError as a side effect of another rank's failure.
        from repro.comm.transport import TransportClosedError

        errors.sort(key=lambda pair: (isinstance(pair[1], TransportClosedError), pair[0]))
        rank, exc = errors[0]
        raise RuntimeError(f"rank {rank} failed: {exc}") from exc
    return results
