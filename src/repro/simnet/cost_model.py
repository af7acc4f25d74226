"""Alpha–beta cost models for collective operations.

Ring AllReduce on ``p`` ranks moves each byte ``2(p-1)/p`` times through
the bottleneck link and pays ``2(p-1)`` per-hop latencies; every
operation additionally pays a fixed launch overhead and a *bandwidth
ramp* — small messages cannot reach peak bandwidth, modeled as a
constant extra ``ramp_bytes / bandwidth`` per operation.  The ramp is
what produces both Fig. 2 saturation shapes: Gloo's tiny ramp+huge
overhead saturate the sweep near 500 K parameters per AllReduce, while
NCCL keeps improving visibly through the whole sweep.

Backend personalities (calibrated against Figs. 2, 6–9, 12):

* **NCCL** — GPU tensors; ~40 GB/s effective intra-server (NVLink),
  ~2.6 GB/s effective per-stream across servers; microsecond overheads.
* **Gloo** — CPU tensors over TCP; ~1–1.3 GB/s, 10× launch overhead,
  plus a host-side reduction cost per byte.

``link_capacity_*`` bounds the *aggregate* bandwidth several concurrent
process groups can extract: one NCCL stream cannot saturate the link
(the §5.4 observation that makes round-robin groups profitable), but
capacity is finite, so rr5 barely beats rr3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    def allreduce_time(
        self, nbytes: float, world_size: int, bandwidth_factor: float = 1.0
    ) -> float:
        """One ring AllReduce of ``nbytes`` over ``world_size`` ranks.

        ``bandwidth_factor`` scales effective bandwidth downward to
        model a degraded environment (``simnet.entitlement``).
        """
        if nbytes <= 0:
            return 0.0
        if world_size <= 1:
            return self.launch_overhead
        p = world_size
        bandwidth = self.bottleneck_bandwidth(p) * bandwidth_factor
        transfer = (2.0 * (p - 1) / p * nbytes + self.ramp_bytes) / bandwidth
        hops = 2.0 * (p - 1)
        return self.launch_overhead + hops * self.hop_latency(p) + max(
            transfer, self.min_message_time
        )

    def hierarchical_allreduce_time(
        self, nbytes: float, world_size: int, bandwidth_factor: float = 1.0
    ) -> float:
        """Two-level AllReduce: intra-server tree + leader ring + bcast.

        The paper's related work (BlueConnect, Blink) decomposes
        AllReduce along the network hierarchy; this projects that
        algorithm on the same cluster for comparison with the flat ring.
        """
        if nbytes <= 0 or world_size <= 1:
            return self.allreduce_time(nbytes, world_size, bandwidth_factor)
        per_server = self.cluster.gpus_per_server
        if world_size <= per_server:
            return self.allreduce_time(nbytes, world_size, bandwidth_factor)
        servers = -(-world_size // per_server)
        intra_rounds = max(1, (per_server - 1).bit_length())
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

    def broadcast_time(self, nbytes: float, world_size: int) -> float:
        """Binomial-tree broadcast: log2(p) rounds of the full payload."""
        if world_size <= 1 or nbytes <= 0:
            return 0.0
        rounds = max(1, (world_size - 1).bit_length())
        bandwidth = self.bottleneck_bandwidth(world_size)
        return self.launch_overhead + rounds * (
            self.hop_latency(world_size)
            + max((nbytes + self.ramp_bytes) / bandwidth, self.min_message_time)
        )

    def allgather_time(self, nbytes: float, world_size: int) -> float:
        if world_size <= 1 or nbytes <= 0:
            return 0.0
        p = world_size
        bandwidth = self.bottleneck_bandwidth(p)
        transfer = ((p - 1) * nbytes + self.ramp_bytes) / bandwidth
        return self.launch_overhead + (p - 1) * self.hop_latency(p) + transfer

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
        return num_ops * per_op + transfer

    def sweep_total_time(
        self, total_params: int, params_per_op: int, world_size: int = 2
    ) -> float:
        """Fig. 2(a,b): AllReduce ``total_params`` fp32 values in slices
        of ``params_per_op`` each."""
        num_ops = max(1, round(total_params / params_per_op))
        return self.async_batch_time(params_per_op * FLOAT32_BYTES, num_ops, world_size)


class NcclCostModel(CollectiveCostModel):
    """NCCL over NVLink (intra-server) and the rack network (inter)."""

    def __init__(self, cluster: Optional[ClusterSpec] = None):
        super().__init__(
            name="nccl",
            launch_overhead=12e-6,
            intra_bandwidth=40e9,
            inter_bandwidth=2.6e9,
            intra_hop_latency=1.2e-6,
            inter_hop_latency=5e-6,
            ramp_bytes=1.5e6,
            link_capacity_intra=120e9,
            link_capacity_inter=9e9,
            min_message_time=2e-6,
            cluster=cluster or ClusterSpec(),
        )


class GlooCostModel(CollectiveCostModel):
    """Gloo on CPU tensors over TCP: high overheads, low bandwidth.

    Adds a host-side reduction cost per byte — on Gloo the summation
    runs on CPU cores, the second reason large tensors stop helping
    (Fig. 2(b)'s plateau past ~500 K parameters).
    """

    def __init__(self, cluster: Optional[ClusterSpec] = None):
        super().__init__(
            name="gloo",
            launch_overhead=160e-6,
            intra_bandwidth=1.3e9,
            inter_bandwidth=1.0e9,
            intra_hop_latency=20e-6,
            inter_hop_latency=30e-6,
            ramp_bytes=0.4e6,
            link_capacity_intra=2.4e9,
            link_capacity_inter=1.8e9,
            min_message_time=20e-6,
            cluster=cluster or ClusterSpec(),
        )
        self.cpu_reduce_bandwidth = 6e9  # bytes/s of local summation
        # Beyond the cache-friendly regime the host-side reduction slows
        # down superlinearly; this is why huge Gloo buckets stop paying
        # (the Fig. 7(b)/(d) preference for small buckets on Gloo).
        self.cpu_cache_friendly_bytes = 8e6

    def _cpu_reduce_time(self, nbytes: float) -> float:
        factor = 1.0 + min(nbytes / self.cpu_cache_friendly_bytes, 4.0)
        return nbytes / self.cpu_reduce_bandwidth * factor

    def allreduce_time(
        self, nbytes: float, world_size: int, bandwidth_factor: float = 1.0
    ) -> float:
        base = super().allreduce_time(nbytes, world_size, bandwidth_factor)
        if world_size <= 1 or nbytes <= 0:
            return base
        return base + self._cpu_reduce_time(nbytes)

    def async_batch_time(self, op_bytes: float, num_ops: int, world_size: int) -> float:
        base = super().async_batch_time(op_bytes, num_ops, world_size)
        if world_size <= 1:
            return base
        return base + num_ops * self._cpu_reduce_time(op_bytes)


def cost_model_for(backend: str, cluster: Optional[ClusterSpec] = None) -> CollectiveCostModel:
    """Cost model matching a ``ProcessGroup`` backend name."""
    backend = backend.lower()
    if backend == "nccl":
        return NcclCostModel(cluster)
    if backend == "gloo":
        return GlooCostModel(cluster)
    raise ValueError(f"no cost model for backend {backend!r}")
