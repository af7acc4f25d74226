"""Row generators for every figure in the paper's evaluation section.

All functions are pure (deterministic for fixed arguments) and cheap —
they run on the calibrated simulator, so a laptop regenerates the whole
evaluation in seconds.  The benchmark harness asserts the paper's
qualitative shapes on these exact rows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.simnet import (
    CPU_SERVER,
    GPU_V100,
    SharedEntitlement,
    cost_model_for,
)
from repro.simulation import SimulationConfig, TrainingSimulator
from repro.simulation.models import bert_profile, resnet50_profile, resnet152_profile

#: World sizes of the scalability experiments (Figs. 9/10).
SCALABILITY_WORLDS = [1, 2, 4, 8, 16, 32, 64, 128, 256]
#: Bucket sweeps (Figs. 7/8).
RESNET_BUCKET_CAPS = [0, 5, 10, 25, 50]
BERT_BUCKET_CAPS = [0, 5, 10, 25, 50, 100, 200]
#: Round-robin sweep (Fig. 12).
ROUND_ROBIN_WORLDS = [1, 2, 4, 8, 16, 24, 32]

#: The paper attributes the 128->256 jump to the specific machines its
#: NCCL jobs landed on; Gloo jobs degraded smoothly.
NCCL_ENTITLEMENT = SharedEntitlement(anomalies={256: 0.75})
GLOO_ENTITLEMENT = SharedEntitlement()

FIG2_SWEEP = [1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
              1_000_000, 5_000_000, 10_000_000, 20_000_000]


def fig02_allreduce_sweep(backend: str, total_params: int = 60_000_000):
    """Fig. 2(a,b): total AllReduce time vs params per op (2 ranks)."""
    model = cost_model_for(backend)
    return [(size, model.sweep_total_time(total_params, size)) for size in FIG2_SWEEP]


def fig02_backward_curve(device_name: str, runs: int = 25):
    """Fig. 2(c,d): ResNet152 cumulative backward time (median + range)."""
    device = GPU_V100 if device_name == "gpu" else CPU_SERVER
    sim = TrainingSimulator(
        SimulationConfig(model=resnet152_profile(), world_size=1, device=device)
    )
    curves = np.stack(
        [np.sort(sim.gradient_ready_times(np.random.default_rng(run))) for run in range(runs)]
    )
    rows = []
    num = curves.shape[1]
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        index = min(int(fraction * num), num - 1)
        column = curves[:, index]
        ready_m = round(fraction * resnet152_profile().num_params / 1e6, 1)
        rows.append((ready_m, float(np.median(column)), float(column.min()),
                     float(column.max())))
    return rows


def fig06_breakdown(world: int = 32):
    """Fig. 6: normalized latency breakdown (no-overlap total = 1)."""
    rows = []
    for model in (resnet50_profile(), bert_profile()):
        for backend in ("nccl", "gloo"):
            config = SimulationConfig(model=model, world_size=world, backend=backend)
            overlapped = TrainingSimulator(config).breakdown()
            boundary = TrainingSimulator(config.with_(overlap=False)).breakdown()
            norm = boundary["total"]
            speedup = 1.0 - overlapped["total"] / norm
            rows.append(
                (
                    model.name,
                    backend,
                    round(overlapped["forward"] / norm, 3),
                    round(overlapped["backward_compute"] / norm, 3),
                    round(overlapped["backward_comm_exposed"] / norm, 3),
                    round(overlapped["optimizer"] / norm, 3),
                    round(overlapped["total"] / norm, 3),
                    round(overlapped["backward_comm_total"] / norm, 3),
                    f"{speedup * 100:.1f}%",
                )
            )
    return rows


def bucket_size_sweep(world: int, iterations: int = 16):
    """Figs. 7/8: latency statistics per bucket size; returns (rows, best)."""
    rows: List[Tuple] = []
    best: Dict[Tuple[str, str], int] = {}
    for model, caps in ((resnet50_profile(), RESNET_BUCKET_CAPS),
                        (bert_profile(), BERT_BUCKET_CAPS)):
        for backend in ("nccl", "gloo"):
            medians = []
            for cap in caps:
                sim = TrainingSimulator(
                    SimulationConfig(
                        model=model, world_size=world, backend=backend,
                        bucket_cap_mb=cap,
                    )
                )
                samples = sim.per_iteration_latencies(iterations)
                medians.append(float(np.median(samples)))
                rows.append(
                    (
                        model.name,
                        backend,
                        cap,
                        float(np.median(samples)),
                        float(np.percentile(samples, 25)),
                        float(np.percentile(samples, 75)),
                    )
                )
            best[(model.name, backend)] = caps[int(np.argmin(medians))]
    return rows, best


def fig09_scalability(iterations: int = 8):
    """Fig. 9: median latency vs GPUs; returns {(model, backend): [lat]}."""
    results: Dict[Tuple[str, str], List[float]] = {}
    for model in (resnet50_profile(), bert_profile()):
        for backend in ("nccl", "gloo"):
            entitlement = NCCL_ENTITLEMENT if backend == "nccl" else GLOO_ENTITLEMENT
            latencies = []
            for world in SCALABILITY_WORLDS:
                sim = TrainingSimulator(
                    SimulationConfig(
                        model=model, world_size=world, backend=backend,
                        entitlement=entitlement,
                    )
                )
                latencies.append(sim.median_latency(iterations))
            results[(model.name, backend)] = latencies
    return results


def fig10_skip_sync(cadences=(1, 2, 4, 8), iterations: int = 32):
    """Fig. 10: average latency per sync cadence (ResNet50)."""
    results: Dict[Tuple[str, int], List[float]] = {}
    for backend in ("nccl", "gloo"):
        entitlement = NCCL_ENTITLEMENT if backend == "nccl" else GLOO_ENTITLEMENT
        for cadence in cadences:
            latencies = []
            for world in SCALABILITY_WORLDS:
                sim = TrainingSimulator(
                    SimulationConfig(
                        model=resnet50_profile(), world_size=world,
                        backend=backend, sync_every=cadence,
                        entitlement=entitlement,
                    )
                )
                latencies.append(sim.average_latency(iterations))
            results[(backend, cadence)] = latencies
    return results


def fig12_round_robin(streams=(1, 3, 5), iterations: int = 8):
    """Fig. 12: median latency with round-robin process groups."""
    results: Dict[Tuple[str, str, int], List[float]] = {}
    for model in (resnet50_profile(), bert_profile()):
        for backend in ("nccl", "gloo"):
            for k in streams:
                latencies = []
                for world in ROUND_ROBIN_WORLDS:
                    sim = TrainingSimulator(
                        SimulationConfig(
                            model=model, world_size=world, backend=backend,
                            num_comm_streams=k,
                        )
                    )
                    latencies.append(sim.median_latency(iterations))
                results[(model.name, backend, k)] = latencies
    return results
