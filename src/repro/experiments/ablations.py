"""Ablation row generators beyond the paper's figures.

These quantify the design choices DESIGN.md calls out: the §3.2 naive →
bucketed → overlapped progression, the §6.2 future-work directions
(order prediction, compression), and the §2.2 parameter-averaging
comparison.
"""

from __future__ import annotations

import numpy as np

from repro.core.comm_hooks import hook_wire_ratio, make_hook
from repro.core.order_prediction import BackwardOrderTracer
from repro.simnet import NcclCostModel
from repro.simulation import SimulationConfig, TrainingSimulator
from repro.simulation.models import bert_profile, resnet50_profile

DESIGN_VARIANTS = [
    ("naive", dict(bucket_cap_mb=0.0, overlap=False)),
    ("bucketed", dict(bucket_cap_mb=25.0, overlap=False)),
    ("overlapped", dict(bucket_cap_mb=25.0, overlap=True)),
]

#: (row label, ``HOOK_FACTORIES`` name) of the projected hooks; each
#: hook prices its own wire for fp32 gradients.
PROJECTED_HOOKS = (
    ("fp32_allreduce", "allreduce"),
    ("fp16", "fp16"),
    ("quantize8_int32", "quantize8"),
    ("onebit_int8", "onebit"),
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
    cost_model = NcclCostModel()
    rows = []
    for profile in (resnet50_profile(), bert_profile()):
        full_bytes = profile.num_params * 4
        for label, name in PROJECTED_HOOKS:
            wire = full_bytes * hook_wire_ratio(make_hook(name), np.float32, profile.num_params)
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


def order_prediction(world: int = 32, backend: str = "nccl", seed: int = 0):
    """§6.2.1 ablation: mismatched execution order vs traced rebucketing.

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

    tracer = BackwardOrderTracer(model.num_tensors, stable_iterations=3)
    for _ in range(3):
        for index in execution_order:
            tracer.record(index)
    specs = tracer.suggest_assignment(list(model.params), bucket_cap_mb=25.0)
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
    from repro.simnet import cost_model_for

    cost = cost_model_for(backend)
    nbytes = resnet50_profile().gradient_bytes
    rows = []
    for world in worlds:
        flat = cost.allreduce_time(nbytes, world)
        hierarchical = cost.hierarchical_allreduce_time(nbytes, world)
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
