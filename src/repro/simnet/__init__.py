"""Hardware and network simulation substrate.

The paper's latency numbers come from V100 servers with NVLink,
100 Gb/s NICs, and the NCCL/Gloo libraries.  This package models that
hardware analytically:

* :mod:`~repro.simnet.topology` — the 8-GPU server interconnect of
  Fig. 5 (NV1/NV2/NODE link tiers) and multi-machine cluster specs.
* :mod:`~repro.simnet.cost_model` — the alpha–beta collective cost
  model, built from a backend row's calibration
  (:mod:`repro.comm.backends`) so the Fig. 2(a,b) curves reproduce
  (NCCL keeps improving past 20 M parameters per AllReduce; Gloo
  saturates near 500 K).
* :mod:`~repro.simnet.device` — GPU/CPU backward-compute profiles
  calibrated to Fig. 2(c,d) (ResNet152: ~250 ms GPU, ~6 s CPU).
* :mod:`~repro.simnet.entitlement` — the shared-entitlement environment
  of §5.3: heterogeneous, occasionally congested machines at larger
  scales (including the paper's observed 128→256 GPU slowdown jump and
  the anomalous 16-GPU BERT run).
"""

from repro.simnet.topology import (
    LinkType,
    ServerTopology,
    ClusterSpec,
    dgx1_topology,
)
from repro.simnet.cost_model import (
    CollectiveCostModel,
    cost_model_for,
)
from repro.simnet.device import DeviceProfile, GPU_V100, CPU_SERVER
from repro.simnet.entitlement import SharedEntitlement

__all__ = [
    "LinkType",
    "ServerTopology",
    "ClusterSpec",
    "dgx1_topology",
    "CollectiveCostModel",
    "cost_model_for",
    "DeviceProfile",
    "GPU_V100",
    "CPU_SERVER",
    "SharedEntitlement",
]
