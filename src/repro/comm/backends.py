"""The backend table: nccl, gloo and mpi as rows of data.

DDP programs against one ``ProcessGroup`` API whatever the backend
(paper §3.3), and every backend runs the same collective algorithms; a
backend differs from another only in what its row says:

* ``supports_cpu_tensors`` — the device rule: nccl rejects tensors on
  ``cpu``, which is why DDP keeps its device-resident copy of the
  unused-parameter bitmap (§4.2);
* ``host_staging`` — the collective library works on host memory, so
  device gradients cross PCIe on the way in and out (the simulator
  charges it per bucket);
* ``cost`` — the keyword values of the backend's
  :class:`~repro.simnet.cost_model.CollectiveCostModel`, calibrated
  against Figs. 2, 6–9 and 12, or None where the paper gives no numbers.

Stdlib only: the runtime, the simulator and the health fold all read
these rows.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional


class Backend(NamedTuple):
    """One backend's row of the table."""

    name: str
    supports_cpu_tensors: bool
    host_staging: bool
    cost: Optional[Mapping[str, float]]


_ROWS = {row.name: row for row in (
    # NCCL: device tensors; ~40 GB/s effective over
    # NVLink within a server, ~2.6 GB/s per stream across servers,
    # microsecond overheads.
    Backend("nccl", False, False, dict(
        launch_overhead=12e-6,
        intra_bandwidth=40e9,
        inter_bandwidth=2.6e9,
        intra_hop_latency=1.2e-6,
        inter_hop_latency=5e-6,
        ramp_bytes=1.5e6,
        link_capacity_intra=120e9,
        link_capacity_inter=9e9,
        min_message_time=2e-6,
    )),
    # Gloo: CPU tensors over TCP; ~1–1.3 GB/s, ten
    # times NCCL's launch overhead, and the summation runs on host cores
    # — the second reason large tensors stop helping (Fig. 2(b)'s
    # plateau past ~500 K parameters).  Past the cache-friendly size the
    # host reduction slows superlinearly, which is why huge Gloo buckets
    # stop paying (Fig. 7(b)/(d)).
    Backend("gloo", True, True, dict(
        launch_overhead=160e-6,
        intra_bandwidth=1.3e9,
        inter_bandwidth=1.0e9,
        intra_hop_latency=20e-6,
        inter_hop_latency=30e-6,
        ramp_bytes=0.4e6,
        link_capacity_intra=2.4e9,
        link_capacity_inter=1.8e9,
        min_message_time=20e-6,
        cpu_reduce_bandwidth=6e9,
        cpu_cache_friendly_bytes=8e6,
    )),
    # MPI: the paper's third option (§3.3), which it does not evaluate —
    # CPU tensors, and no calibrated cost.
    Backend("mpi", True, True, None),
)}


def backend(name: str) -> Backend:
    """The row of backend ``name`` (any case, as ``torch.distributed``'s
    ``Backend`` accepts); raises ``ValueError`` naming the options."""
    row = _ROWS.get(str(name).lower())
    if row is None:
        raise ValueError(f"unknown backend {name!r}; options: {sorted(_ROWS)}")
    return row
