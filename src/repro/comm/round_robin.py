"""Round-robin composition of process groups (paper §3.3, §5.4).

A single NCCL or Gloo group may be unable to saturate the link (stream
or thread concurrency limits).  ``RoundRobinProcessGroup`` takes a list
of member groups and dispatches successive collectives to them in
round-robin order.  Because every rank constructs the same number of
member groups and issues collectives in the same order, the dispatch
index stays aligned across ranks.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.comm.process_group import ProcessGroup, ReduceOp


class RoundRobinProcessGroup:
    """Dispatches collectives across member groups in rotation."""

    def __init__(self, groups: Sequence[ProcessGroup]):
        if not groups:
            raise ValueError("round-robin group needs at least one member group")
        sizes = {g.size for g in groups}
        if len(sizes) != 1:
            raise ValueError("member groups must have identical membership")
        self.groups: List[ProcessGroup] = list(groups)
        self._next = 0

    @property
    def backend(self) -> str:
        """Composite backend label, e.g. ``round_robin(ncclx2)``."""
        return f"round_robin({self.groups[0].backend}x{len(self.groups)})"

    @property
    def size(self) -> int:
        """Number of ranks (identical across member groups)."""
        return self.groups[0].size

    @property
    def group_rank(self) -> int:
        """This rank's index within the (shared) group membership."""
        return self.groups[0].group_rank

    @property
    def supports_cpu_tensors(self) -> bool:
        """Device policy of the member backend (all members agree)."""
        return self.groups[0].supports_cpu_tensors

    @property
    def bytes_communicated(self) -> int:
        """Total bytes issued across every member group."""
        return sum(g.bytes_communicated for g in self.groups)

    # Debug-layer surfaces (flight recorder, DDP consistency checks,
    # monitored_barrier) address the composite through its first member.
    @property
    def store(self):
        """Rendezvous store (first member's)."""
        return self.groups[0].store

    @property
    def global_rank(self) -> int:
        """This rank's global id (first member's)."""
        return self.groups[0].global_rank

    @property
    def ranks(self):
        """Member rank list (identical across member groups)."""
        return self.groups[0].ranks

    @property
    def timeout(self) -> float:
        """Collective timeout in seconds (first member's)."""
        return self.groups[0].timeout

    @property
    def _group_id(self):
        return self.groups[0]._group_id

    @property
    def flight_recorder(self):
        """Debug flight recorder (first member's), or None."""
        return self.groups[0].flight_recorder

    def _pick(self) -> ProcessGroup:
        group = self.groups[self._next]
        self._next = (self._next + 1) % len(self.groups)
        return group

    def allreduce(self, tensor, op: str = ReduceOp.SUM, async_op: bool = False):
        """AllReduce on the next member group in rotation."""
        return self._pick().allreduce(tensor, op, async_op)

    def broadcast(self, tensor, src: int = 0, async_op: bool = False):
        """Broadcast on the next member group in rotation."""
        return self._pick().broadcast(tensor, src, async_op)

    def allgather(self, tensor, async_op: bool = False):
        """Allgather on the next member group in rotation."""
        return self._pick().allgather(tensor, async_op)

    def barrier(self) -> None:
        """Barrier on the next member group in rotation."""
        self._pick().barrier()

    def shutdown(self) -> bool:
        """Shut down every member group; True if all workers joined."""
        ok = True
        for group in self.groups:
            ok = group.shutdown() and ok
        return ok
