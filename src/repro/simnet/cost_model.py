"""The alpha–beta cost model that prices every collective.

Ring AllReduce on ``p`` ranks moves each byte ``2(p-1)/p`` times through
the bottleneck link and pays ``2(p-1)`` per-hop latencies; every
operation additionally pays a fixed launch overhead and a *bandwidth
ramp* — small messages cannot reach peak bandwidth, modeled as a
constant extra ``ramp_bytes / bandwidth`` per operation.  The ramp is
what produces both Fig. 2 saturation shapes: Gloo's tiny ramp+huge
overhead saturate the sweep near 500 K parameters per AllReduce, while
NCCL keeps improving visibly through the whole sweep.

One class serves every backend; a backend's calibration (Figs. 2, 6–9,
12) is the ``cost`` of its row in :mod:`repro.comm.backends`, and
:func:`cost_model_for` builds the model from it.  The runtime's health
fold and the simulator both price through here.

``link_capacity_*`` bounds the *aggregate* bandwidth several concurrent
process groups can extract: one NCCL stream cannot saturate the link
(the §5.4 observation that makes round-robin groups profitable), but
capacity is finite, so rr5 barely beats rr3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.comm.backends import backend
from repro.simnet.topology import ClusterSpec

FLOAT32_BYTES = 4


@dataclass
class CollectiveCostModel:
    """Alpha–beta model of a communication backend on a cluster."""

    name: str = "generic"
    #: Fixed per-operation launch cost (driver path), seconds.
    launch_overhead: float = 10e-6
    #: Effective per-stream bandwidth when all ranks share a server.
    intra_bandwidth: float = 40e9
    #: Effective per-stream bandwidth once the group spans servers.
    inter_bandwidth: float = 10e9
    #: Per-hop latency within / across servers, seconds.
    intra_hop_latency: float = 1.5e-6
    inter_hop_latency: float = 5e-6
    #: Bandwidth ramp: extra bytes-equivalent paid per message.
    ramp_bytes: float = 1.0e6
    #: Aggregate link capacity available to concurrent streams.
    link_capacity_intra: float = 100e9
    link_capacity_inter: float = 10e9
    #: Floor on any single transfer (protocol minimum), seconds.
    min_message_time: float = 1e-6
    #: Host-side summation rate, bytes/s (None: the reduction is free,
    #: as on a device backend).
    cpu_reduce_bandwidth: Optional[float] = None
    #: Beyond this size the host reduction slows down superlinearly.
    cpu_cache_friendly_bytes: float = float("inf")
    cluster: ClusterSpec = field(default_factory=ClusterSpec)

    # ------------------------------------------------------------------
    def _spans_servers(self, world_size: int) -> bool:
        return world_size > self.cluster.gpus_per_server

    def bottleneck_bandwidth(self, world_size: int) -> float:
        return self.inter_bandwidth if self._spans_servers(world_size) else self.intra_bandwidth

    def hop_latency(self, world_size: int) -> float:
        return self.inter_hop_latency if self._spans_servers(world_size) else self.intra_hop_latency

    def link_capacity(self, world_size: int) -> float:
        return self.link_capacity_inter if self._spans_servers(world_size) else self.link_capacity_intra

    def stream_penalty(self, streams: int, world_size: int) -> float:
        """Slowdown per stream when ``streams`` concurrent collectives
        (round-robin member groups) share the link.

        ``k`` streams want ``k × per-stream`` bandwidth; beyond the link
        capacity each slows proportionally, bounding aggregate
        throughput at the capacity.
        """
        if streams <= 1:
            return 1.0
        wanted = streams * self.bottleneck_bandwidth(world_size)
        capacity = self.link_capacity(world_size)
        return max(1.0, wanted / capacity)

    # ------------------------------------------------------------------
    def _cpu_reduce_time(self, nbytes: float) -> float:
        factor = 1.0 + min(nbytes / self.cpu_cache_friendly_bytes, 4.0)
        return nbytes / self.cpu_reduce_bandwidth * factor

    def allreduce_time(
        self,
        nbytes: float,
        world_size: int,
        bandwidth_factor: float = 1.0,
        algorithm: str = "ring",
    ) -> float:
        """One AllReduce of ``nbytes`` over ``world_size`` ranks, shaped
        as ``algorithm`` (a shape name; an unknown name is priced as the
        ring).  The runtime runs ``naive`` and ``ring``;
        ``hierarchical`` is a formula for the architectures ablation.

        * ``ring`` — ``2(p-1)/p`` bytes through the bottleneck and
          ``2(p-1)`` latencies;
        * ``naive`` — one latency; every rank's whole buffer reaches
          every peer (the one-round protocol under the size rule);
        * ``hierarchical`` — intra-server tree + leader ring + bcast
          (BlueConnect, Blink); the ring within one server.

        Known quirk, kept for the calibrated figures: the host-reduction
        term (``cpu_reduce_bandwidth``) is charged on the ring price
        (and on :meth:`async_batch_time`'s pipelined rings) only, not on
        the other shapes.  ``bandwidth_factor`` scales
        effective bandwidth downward to model a degraded environment
        (``simnet.entitlement``).
        """
        if nbytes <= 0:
            return 0.0
        if world_size <= 1:
            return self.launch_overhead
        p = world_size
        if algorithm == "hierarchical" and self._spans_servers(p):
            return self._hierarchical_time(nbytes, p, bandwidth_factor)
        bandwidth = self.bottleneck_bandwidth(p) * bandwidth_factor
        hop = self.hop_latency(p)
        if algorithm == "naive":
            transfer = ((p - 1) * nbytes + self.ramp_bytes) / bandwidth
            return self.launch_overhead + hop + max(transfer, self.min_message_time)
        transfer = (2.0 * (p - 1) / p * nbytes + self.ramp_bytes) / bandwidth
        seconds = self.launch_overhead + 2.0 * (p - 1) * hop + max(
            transfer, self.min_message_time
        )
        if self.cpu_reduce_bandwidth is not None:
            seconds += self._cpu_reduce_time(nbytes)
        return seconds

    def _hierarchical_time(
        self, nbytes: float, world_size: int, bandwidth_factor: float
    ) -> float:
        servers = -(-world_size // self.cluster.gpus_per_server)
        intra_rounds = max(1, (self.cluster.gpus_per_server - 1).bit_length())
        intra = 2 * intra_rounds * (
            self.intra_hop_latency + (nbytes + self.ramp_bytes) / self.intra_bandwidth
        )
        inter_bw = self.inter_bandwidth * bandwidth_factor
        inter = (
            2.0 * (servers - 1) * self.inter_hop_latency
            + (2.0 * (servers - 1) / servers * nbytes + self.ramp_bytes) / inter_bw
        )
        return self.launch_overhead + intra + inter

    def parameter_server_time(
        self, nbytes: float, num_workers: int, bandwidth_factor: float = 1.0
    ) -> float:
        """Sync parameter-server round: every worker's gradient crosses
        the server's link in (push), and parameters cross out (pull).
        The server NIC serializes 2 × W × nbytes (the §2.3 bottleneck)."""
        if nbytes <= 0 or num_workers < 1:
            return 0.0
        bandwidth = self.bottleneck_bandwidth(num_workers + 1) * bandwidth_factor
        transfer = 2.0 * num_workers * (nbytes + self.ramp_bytes) / bandwidth
        return self.launch_overhead + 2 * num_workers * self.hop_latency(
            num_workers + 1
        ) + transfer

    # ------------------------------------------------------------------
    def async_batch_time(self, op_bytes: float, num_ops: int, world_size: int) -> float:
        """Total time for ``num_ops`` AllReduces launched asynchronously.

        This is the Fig. 2(a,b) measurement: launch all, block on all.
        Transfers pipeline on the link, so steady-state bandwidth is
        paid once for the total payload, while launch overhead, hop
        latency, and the ramp are paid per operation.
        """
        if num_ops <= 0:
            return 0.0
        if world_size <= 1:
            return num_ops * self.launch_overhead
        p = world_size
        bandwidth = self.bottleneck_bandwidth(p)
        total_bytes = op_bytes * num_ops
        transfer = 2.0 * (p - 1) / p * total_bytes / bandwidth
        per_op = (
            self.launch_overhead
            + 2.0 * (p - 1) * self.hop_latency(p)
            + self.ramp_bytes / bandwidth
        )
        seconds = num_ops * per_op + transfer
        if self.cpu_reduce_bandwidth is not None:
            seconds += num_ops * self._cpu_reduce_time(op_bytes)
        return seconds

    def sweep_total_time(
        self, total_params: int, params_per_op: int, world_size: int = 2
    ) -> float:
        """Fig. 2(a,b): AllReduce ``total_params`` fp32 values in slices
        of ``params_per_op`` each."""
        num_ops = max(1, round(total_params / params_per_op))
        return self.async_batch_time(params_per_op * FLOAT32_BYTES, num_ops, world_size)


def cost_model_for(name: str, cluster: Optional[ClusterSpec] = None) -> CollectiveCostModel:
    """The cost model of backend ``name``'s row; ``ValueError`` for an
    unknown backend or one without a calibrated cost (mpi)."""
    row = backend(name)
    if row.cost is None:
        raise ValueError(f"no cost model for backend {row.name!r}")
    return CollectiveCostModel(name=row.name, cluster=cluster or ClusterSpec(), **row.cost)
