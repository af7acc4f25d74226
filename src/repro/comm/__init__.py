"""Collective communication: the ``c10d`` analog.

Each logical "process" (GPU worker) is a Python thread with a rank.  The
package provides:

* :class:`~repro.comm.store.Store` — rendezvous key/value store (the
  analog of ``TCPStore``); ProcessGroup construction blocks until every
  rank joins, exactly as described in paper §3.3.
* :class:`~repro.comm.transport.TransportHub` — point-to-point message
  channels between ranks, with byte/message accounting.
* :mod:`~repro.comm.algorithms` — real AllReduce implementations (the
  one-round direct exchange under the size rule, the ring above it)
  plus tree broadcast and reduce, gather, scatter, and the split-phase
  one-round forms the group runs for small AllReduces and broadcasts
  and for every reduce-scatter, all-gather and barrier.
* :class:`~repro.comm.process_group.ProcessGroup` — the uniform API DDP
  programs against, one class for every backend.
* :mod:`~repro.comm.backends` — the backend table: nccl, gloo and mpi
  are rows (device rule, host staging, α–β cost) and
  differ in that data, not in semantics.
* :class:`~repro.comm.round_robin.RoundRobinProcessGroup` — dispatches
  successive collectives across several groups (paper §3.3, §5.4).
* :mod:`~repro.comm.distributed` — rank context plumbing and the
  ``run_distributed`` thread harness used by tests and examples.
* :mod:`~repro.comm.liveness` — the one liveness thread per rank
  (:class:`RankMonitor`, owned by the rank's context): heartbeats for
  the elastic supervisor and, under ``REPRO_DEBUG`` ≥ INFO, the hang
  watch that turns a desync hang into a report.
"""

from repro.comm.store import Store
from repro.comm.transport import TransportHub
from repro.comm.process_group import (
    ProcessGroup,
    ReduceOp,
    Work,
    CollectiveError,
    CollectiveMismatchError,
    CollectiveTimeoutError,
)
from repro.comm.round_robin import RoundRobinProcessGroup
from repro.comm.distributed import (
    DistributedContext,
    init_process_group,
    destroy_process_group,
    get_context,
    get_rank,
    get_world_size,
    monitored_barrier,
    new_process_group,
    new_round_robin_group,
    run_distributed,
)

__all__ = [
    "Store",
    "TransportHub",
    "ProcessGroup",
    "RoundRobinProcessGroup",
    "ReduceOp",
    "Work",
    "CollectiveError",
    "CollectiveMismatchError",
    "CollectiveTimeoutError",
    "DistributedContext",
    "init_process_group",
    "destroy_process_group",
    "get_context",
    "get_rank",
    "get_world_size",
    "monitored_barrier",
    "new_process_group",
    "new_round_robin_group",
    "run_distributed",
]
