"""Compute-device profiles (paper Fig. 2(c,d)).

A :class:`DeviceProfile` scales a model's calibrated V100 compute
anchors onto a device.  Calibration anchors from the paper:

* ResNet152 (~60 M parameters) backward: ~250 ms on a V100-class GPU,
  ~6 s on server CPUs (Fig. 2(c,d)) — hence the CPU profile is 24×
  slower.
* Backward ≈ 2× forward cost (two GEMMs per layer in backward versus
  one in forward).

Per-parameter backward time is distributed proportionally to element
counts (a serviceable FLOP proxy for the conv/linear layers that
dominate), with deterministic per-run jitter producing the
measured-range bands of Fig. 2(c,d).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceProfile:
    """Throughput description of one compute device.

    ``speed_factor`` divides the model's V100-calibrated compute times:
    1.0 is a V100, 1/24 is the paper's CPU server.
    """

    name: str
    speed_factor: float = 1.0
    #: Fixed per-tensor kernel-launch overhead, seconds.
    per_tensor_overhead: float = 4e-6
    #: Relative std-dev of run-to-run jitter.
    jitter: float = 0.04

    def backward_time(self, model) -> float:
        """Total backward compute for a ``ModelProfile``."""
        return (
            model.v100_backward_seconds / self.speed_factor
            + model.num_tensors * self.per_tensor_overhead
        )

    def forward_time(self, model) -> float:
        return (
            model.v100_forward_seconds / self.speed_factor
            + model.num_tensors * self.per_tensor_overhead * 0.5
        )

    def optimizer_time(self, model) -> float:
        """SGD-style update: memory-bound pass over all parameters."""
        return 0.05 * model.v100_backward_seconds / self.speed_factor


GPU_V100 = DeviceProfile(name="V100", speed_factor=1.0, per_tensor_overhead=4e-6, jitter=0.04)

# Fig. 2(d): the same ResNet152 backward takes ~6 s on host CPUs (24x).
CPU_SERVER = DeviceProfile(
    name="cpu-server", speed_factor=1.0 / 24.0, per_tensor_overhead=8e-6, jitter=0.08
)
