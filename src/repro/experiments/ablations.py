"""Ablation row generators beyond the paper's figures.

These quantify the design choices DESIGN.md calls out: the §3.2 naive →
bucketed → overlapped progression, the §6.2 future-work directions
(order prediction, compression), and the §2.2 parameter-averaging
comparison.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.bucket import compute_bucket_assignment
from repro.core.comm_hooks import Fp16Hook, allreduce_hook, hook_wire_ratio
from repro.simnet import cost_model_for
from repro.simulation import SimulationConfig, TrainingSimulator
from repro.simulation.models import bert_profile, resnet50_profile
from repro.utils.units import MB

DESIGN_VARIANTS = [
    ("naive", dict(bucket_cap_mb=0.0, overlap=False)),
    ("bucketed", dict(bucket_cap_mb=25.0, overlap=False)),
    ("overlapped", dict(bucket_cap_mb=25.0, overlap=True)),
]

#: (row label, hook) of the projected hooks; each hook prices its own
#: wire for fp32 gradients.
PROJECTED_HOOKS = (
    ("fp32_allreduce", allreduce_hook),
    ("fp16", Fp16Hook()),
)


def design_progression(backends=("nccl", "gloo"), worlds=(16, 32)):
    """§3.2 ablation: latency for naive / bucketed / overlapped DDP."""
    rows = []
    for backend in backends:
        for world in worlds:
            latencies = {}
            for name, overrides in DESIGN_VARIANTS:
                sim = TrainingSimulator(
                    SimulationConfig(
                        model=resnet50_profile(), world_size=world,
                        backend=backend, **overrides,
                    )
                )
                latencies[name] = sim.median_latency(8)
            for name, _ in DESIGN_VARIANTS:
                rows.append(
                    (
                        backend,
                        world,
                        name,
                        latencies[name],
                        f"{(1 - latencies[name] / latencies['naive']) * 100:.0f}%",
                    )
                )
    return rows


def compression_projection(world: int = 32):
    """§6.2.3 ablation: wire volume and projected AllReduce time per hook."""
    cost_model = cost_model_for("nccl")
    rows = []
    for profile in (resnet50_profile(), bert_profile()):
        full_bytes = profile.num_params * 4
        for label, hook in PROJECTED_HOOKS:
            wire = full_bytes * hook_wire_ratio(hook, np.float32, profile.num_params)
            latency = cost_model.allreduce_time(wire, world)
            rows.append(
                (
                    profile.name,
                    label,
                    round(wire / 1e6, 1),
                    latency,
                    f"{wire / full_bytes:.2f}x",
                )
            )
    return rows


def assignment_from_order(params, order, bucket_cap_mb: float = 25.0):
    """Bucket layout packing ``params`` in ready order ``order``.

    ``order`` is a permutation of parameter indices, first-to-fire
    first; bucket 0 holds the first-firing parameters, so overlap is
    maximal for that backward order rather than for the assumed
    reverse-definition order.
    """
    params = list(params)
    order = list(order)
    if sorted(order) != list(range(len(params))):
        raise ValueError("order must be a permutation of parameter indices")
    # compute_bucket_assignment buckets in *reverse* input order, so
    # feed it the reversed order, then translate positions back.
    reversed_order = order[::-1]
    specs = compute_bucket_assignment(
        [params[i] for i in reversed_order], int(bucket_cap_mb * MB)
    )
    return [
        replace(spec, param_indices=tuple(reversed_order[i] for i in spec.param_indices))
        for spec in specs
    ]


def order_prediction(world: int = 32, backend: str = "nccl", seed: int = 0):
    """§6.2.1 ablation: mismatched execution order vs buckets laid out
    in the traced (here: known) execution order.

    Returns (matched, mismatched, traced) median latencies.
    """
    model = resnet50_profile()
    rng = np.random.default_rng(seed)
    blocks = np.array_split(np.arange(model.num_tensors), 12)
    rng.shuffle(blocks)
    execution_order = tuple(int(i) for block in blocks for i in block)

    matched = TrainingSimulator(
        SimulationConfig(model=model, world_size=world, backend=backend)
    ).median_latency(8)
    mismatched = TrainingSimulator(
        SimulationConfig(
            model=model, world_size=world, backend=backend,
            execution_order=execution_order,
        )
    ).median_latency(8)

    specs = assignment_from_order(model.params, execution_order)
    traced = TrainingSimulator(
        SimulationConfig(
            model=model, world_size=world, backend=backend,
            execution_order=execution_order, bucket_specs=tuple(specs),
        )
    ).median_latency(8)
    return matched, mismatched, traced


def architecture_comparison(worlds=(2, 8, 16, 32), backend: str = "nccl"):
    """§2.3 / related-work ablation: AllReduce vs parameter server vs
    hierarchical AllReduce, per-iteration gradient-exchange time for
    ResNet50's 102 MB of fp32 gradients."""
    cost = cost_model_for(backend)
    nbytes = resnet50_profile().gradient_bytes
    rows = []
    for world in worlds:
        flat = cost.allreduce_time(nbytes, world)
        hierarchical = cost.allreduce_time(nbytes, world, algorithm="hierarchical")
        ps = cost.parameter_server_time(nbytes, num_workers=world)
        rows.append((world, flat, hierarchical, ps, f"{ps / flat:.1f}x"))
    return rows


def param_averaging_timeline(backends=("nccl", "gloo"), worlds=(8, 32)):
    """§2.2 ablation: DDP (overlapped) vs phase-separated averaging."""
    rows = []
    for backend in backends:
        for world in worlds:
            ddp = TrainingSimulator(
                SimulationConfig(
                    model=resnet50_profile(), world_size=world, backend=backend
                )
            ).breakdown()
            separated = TrainingSimulator(
                SimulationConfig(
                    model=resnet50_profile(), world_size=world, backend=backend,
                    overlap=False,
                )
            ).breakdown()
            rows.append(
                (
                    backend,
                    world,
                    ddp["total"],
                    separated["total"],
                    f"{(1 - ddp['total'] / separated['total']) * 100:.0f}%",
                )
            )
    return rows
