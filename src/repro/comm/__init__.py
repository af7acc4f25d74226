"""Collective communication: the ``c10d`` analog.

Each logical "process" (GPU worker) is a Python thread with a rank.  The
package provides:

* :class:`~repro.comm.store.Store` — rendezvous key/value store (the
  analog of ``TCPStore``); ProcessGroup construction blocks until every
  rank joins, exactly as described in paper §3.3.
* :class:`~repro.comm.transport.TransportHub` — point-to-point message
  channels between ranks, with byte/message accounting.
* :mod:`~repro.comm.algorithms` — real AllReduce implementations (the
  one-round direct exchange under the size rule, the ring above it, as
  a step machine) plus tree broadcast and reduce, gather, scatter.
* :class:`~repro.comm.process_group.ProcessGroup` — the uniform API DDP
  programs against, one class for every backend; every collective runs
  on the thread that issues and waits for it.
* :mod:`~repro.comm.backends` — the backend table: nccl, gloo and mpi
  are rows (device rule, host staging, α–β cost) and
  differ in that data, not in semantics.
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
from repro.comm.distributed import (
    DistributedContext,
    init_process_group,
    destroy_process_group,
    get_context,
    get_rank,
    get_world_size,
    monitored_barrier,
    new_process_group,
    run_distributed,
)

__all__ = [
    "Store",
    "TransportHub",
    "ProcessGroup",
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
    "run_distributed",
]
