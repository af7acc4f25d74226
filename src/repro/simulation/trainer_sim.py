"""The DDP iteration simulator.

Replays the paper's per-iteration timeline on calibrated cost models:

1. The backward pass produces gradients in reverse ``parameters()``
   order; each parameter's compute share is proportional to its element
   count (device profile).
2. Buckets (from the *same* ``compute_bucket_assignment`` the real DDP
   uses) become ready when their last gradient lands.
3. Ready buckets launch AllReduce asynchronously, **in bucket order**,
   on one or more communication streams (round-robin process groups use
   several; paper §3.3/§5.4).
4. Iteration latency = forward + max(backward-compute end, last
   communication end) + optimizer step; skipped-sync iterations omit
   communication entirely (``no_sync``, §3.2.4).

The "no overlap" mode serializes all communication after the full
backward pass — the normalization baseline of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.comm.backends import backend
from repro.core.bucket import BucketSpec, compute_bucket_assignment
from repro.simnet.cost_model import CollectiveCostModel, cost_model_for
from repro.simnet.device import DeviceProfile, GPU_V100
from repro.simnet.entitlement import SharedEntitlement
from repro.simnet.topology import ClusterSpec
from repro.simulation.events import Timeline
from repro.simulation.models import ModelProfile
from repro.utils.units import MB

#: Host<->device staging bandwidth paid per bucket by a backend whose row
#: says ``host_staging`` (Gloo communicates CPU tensors, so GPU gradients
#: cross PCIe twice).
PCIE_BANDWIDTH = 12e9


@dataclass
class SimulationConfig:
    """Everything that defines one simulated training setup."""

    model: ModelProfile
    world_size: int
    backend: str = "nccl"
    bucket_cap_mb: float = 25.0
    overlap: bool = True
    sync_every: int = 1
    num_comm_streams: int = 1
    find_unused_parameters: bool = False
    device: DeviceProfile = field(default_factory=lambda: GPU_V100)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    entitlement: SharedEntitlement = field(default_factory=SharedEntitlement.ideal)
    seed: int = 0
    #: Optional parameter execution order for the backward pass (indices
    #: into ``model.params``, first-to-fire first).  Default: reverse
    #: definition order, the assumption DDP's bucketing relies on.  A
    #: mismatching order models the §6.2.1 problem.
    execution_order: Optional[tuple] = None
    #: Optional externally supplied bucket layout (e.g. from
    #: ``experiments.ablations.assignment_from_order``) overriding
    #: reverse-order assignment.
    bucket_specs: Optional[tuple] = None

    def with_(self, **overrides) -> "SimulationConfig":
        return replace(self, **overrides)


@dataclass(frozen=True)
class IterationResult:
    """Latency breakdown of one simulated iteration (seconds).

    ``events`` holds (label, stream, start, end) tuples for the
    iteration's timeline — consumed by
    :func:`repro.simulation.trace.export_chrome_trace`.
    """

    forward: float
    backward_compute: float
    backward_comm_total: float
    backward_comm_exposed: float
    optimizer: float
    synced: bool
    events: tuple = ()

    @property
    def backward(self) -> float:
        return self.backward_compute + self.backward_comm_exposed

    @property
    def total(self) -> float:
        return self.forward + self.backward + self.optimizer

    def breakdown(self) -> Dict[str, float]:
        return {
            "forward": self.forward,
            "backward_compute": self.backward_compute,
            "backward_comm_exposed": self.backward_comm_exposed,
            "backward_comm_total": self.backward_comm_total,
            "optimizer": self.optimizer,
            "total": self.total,
        }


class TrainingSimulator:
    """Simulates DDP iterations for one configuration."""

    def __init__(self, config: SimulationConfig):
        if config.world_size < 1:
            raise ValueError("world_size must be >= 1")
        if config.sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        if config.num_comm_streams < 1:
            raise ValueError("num_comm_streams must be >= 1")
        self.config = config
        self.cost_model: CollectiveCostModel = cost_model_for(
            config.backend, config.cluster
        )
        self._host_staging = backend(config.backend).host_staging
        if config.bucket_specs is not None:
            self.buckets: List[BucketSpec] = list(config.bucket_specs)
        else:
            self.buckets = compute_bucket_assignment(
                list(config.model.params),
                bucket_cap_bytes=int(config.bucket_cap_mb * MB),
            )
        self._grad_element_size = config.model.params[0].element_size()

    # ------------------------------------------------------------------
    def gradient_ready_times(self, rng: np.random.Generator) -> np.ndarray:
        """Per-parameter gradient-ready timestamps within the backward pass.

        Index ``i`` corresponds to parameter ``i`` in definition order;
        gradients materialize in *reverse* definition order (the Fig. 4
        timeline).  Each parameter's compute share is proportional to
        its element count plus a per-tensor overhead, with
        multiplicative jitter per parameter.
        """
        model = self.config.model
        device = self.config.device
        total_backward = device.backward_time(model)
        per_param_budget = total_backward - model.num_tensors * device.per_tensor_overhead
        rate = max(per_param_budget, 0.0) / max(model.num_params, 1)
        if self.config.execution_order is not None:
            order = list(self.config.execution_order)
        else:
            order = list(range(model.num_tensors - 1, -1, -1))
        ready = np.empty(model.num_tensors)
        t = 0.0
        for position in order:
            spec = model.params[position]
            share = spec.numel() * rate + device.per_tensor_overhead
            share *= max(0.2, float(rng.normal(1.0, device.jitter)))
            t += share
            ready[position] = t
        return ready

    def _bucket_allreduce_time(self, bucket: BucketSpec, bandwidth_factor: float) -> float:
        nbytes = bucket.total_elements * self._grad_element_size
        penalty = self.cost_model.stream_penalty(
            self.config.num_comm_streams, self.config.world_size
        )
        duration = (
            self.cost_model.allreduce_time(
                nbytes, self.config.world_size, bandwidth_factor
            )
            * penalty
        )
        if self._host_staging:
            # GPU gradients stage through host memory for CPU collectives.
            duration += 2.0 * nbytes / PCIE_BANDWIDTH
        return duration

    # ------------------------------------------------------------------
    def simulate_iteration(self, iteration: int = 0) -> IterationResult:
        """Simulate one iteration; sync iff the cadence says so."""
        config = self.config
        synced = config.world_size > 1 and (iteration % config.sync_every == 0)
        rng = np.random.default_rng((config.seed, iteration))

        model = config.model
        forward = config.device.forward_time(model)
        optimizer = config.device.optimizer_time(model)

        ready = self.gradient_ready_times(rng)
        compute_end = float(ready.max())

        base_events = [
            ("forward", "compute", 0.0, forward),
            ("backward_compute", "compute", forward, forward + compute_end),
        ]

        if not synced:
            events = base_events + [
                ("optimizer", "compute", forward + compute_end,
                 forward + compute_end + optimizer),
            ]
            result = IterationResult(
                forward, compute_end, 0.0, 0.0, optimizer, synced=False,
                events=tuple(events),
            )
            return self._apply_environment(result, iteration)

        bandwidth_factor = config.entitlement.bandwidth_factor(config.world_size)
        timeline = Timeline()
        comm_streams = [
            timeline.stream(f"comm{i}") for i in range(config.num_comm_streams)
        ]

        previous_launch = 0.0
        comm_total = 0.0
        for position, bucket in enumerate(self.buckets):
            bucket_ready = float(max(ready[i] for i in bucket.param_indices))
            if not config.overlap:
                # Hard boundary: communication starts only after the
                # whole backward pass (the Fig. 6 baseline, §2.2 shape).
                bucket_ready = compute_end
            # In-order launch constraint (Fig. 3(a)): bucket i+1 may not
            # launch before bucket i.
            launch_ready = max(bucket_ready, previous_launch)
            duration = self._bucket_allreduce_time(bucket, bandwidth_factor)
            comm_total += duration
            stream = comm_streams[position % len(comm_streams)]
            op = stream.schedule(f"allreduce:bucket{position}", launch_ready, duration)
            previous_launch = op.start

        if config.find_unused_parameters:
            # The extra bitmap AllReduce (int32 per parameter, §4.2).
            bitmap_bytes = model.num_tensors * 4
            duration = self.cost_model.allreduce_time(
                bitmap_bytes, config.world_size, bandwidth_factor
            )
            comm_total += duration
            comm_streams[0].schedule("allreduce:bitmap", compute_end, duration)

        comm_end = timeline.makespan()
        exposed = max(0.0, comm_end - compute_end)
        backward_end = forward + max(compute_end, comm_end)
        events = base_events + [
            (op.label, op.stream, forward + op.start, forward + op.end)
            for op in timeline.ops()
        ] + [("optimizer", "compute", backward_end, backward_end + optimizer)]
        result = IterationResult(
            forward, compute_end, comm_total, exposed, optimizer, synced=True,
            events=tuple(events),
        )
        return self._apply_environment(result, iteration)

    def _apply_environment(
        self, result: IterationResult, iteration: int
    ) -> IterationResult:
        """Straggler and noise multipliers from the environment model."""
        config = self.config
        factor = config.entitlement.straggler_factor(config.world_size)
        factor *= config.entitlement.iteration_noise(config.world_size, iteration)
        if factor == 1.0:
            return result
        return IterationResult(
            result.forward * factor,
            result.backward_compute * factor,
            result.backward_comm_total * factor,
            result.backward_comm_exposed * factor,
            result.optimizer * factor,
            result.synced,
            events=tuple(
                (label, stream, start * factor, end * factor)
                for label, stream, start, end in result.events
            ),
        )

    # ------------------------------------------------------------------
    def per_iteration_latencies(self, iterations: int) -> List[float]:
        return [self.simulate_iteration(i).total for i in range(iterations)]

    def average_latency(self, iterations: int = 32) -> float:
        """Mean latency over a window — the Fig. 10 metric, which
        amortizes skipped-sync iterations."""
        latencies = self.per_iteration_latencies(iterations)
        return float(np.mean(latencies))

    def median_latency(self, iterations: int = 32) -> float:
        return float(np.median(self.per_iteration_latencies(iterations)))

    def breakdown(self, iterations: int = 8) -> Dict[str, float]:
        """Mean per-component latency over synchronized iterations."""
        keys = None
        acc: Dict[str, float] = {}
        count = 0
        for i in range(iterations):
            result = self.simulate_iteration(i)
            if not result.synced and self.config.world_size > 1:
                continue
            parts = result.breakdown()
            if keys is None:
                keys = parts.keys()
                acc = {k: 0.0 for k in keys}
            for k in keys:
                acc[k] += parts[k]
            count += 1
        return {k: v / max(count, 1) for k, v in acc.items()}
