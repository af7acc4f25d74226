"""Analytic prior over the autotune search space.

Measuring a candidate config costs a full measurement window (several
training iterations), so the sweep must not measure the whole knob
cross-product.  This module scores every candidate with the alpha-beta
collective cost model (``repro.simnet.cost_model``, per the DAG model
of synchronous SGD in arXiv:1805.03812) and keeps only the most
promising few — the *prior* the measured sweep then refines.

The estimate composes three effects the knobs control:

* **bucketing** — fewer, larger buckets amortize the per-collective
  launch cost (alpha); smaller buckets launch earlier and overlap more
  of the backward pass (the paper's Fig. 7 tradeoff);
* **chunk pipelining** — each bucket's collective is pipelined at
  ``chunk_bytes`` granularity: tiny chunks drown in per-hop latency,
  huge chunks lose the intra-collective overlap (the U-curve in
  docs/performance.md);
* **algorithm** — ring is bandwidth-optimal, halving-doubling is
  latency-optimal, tree pays the full payload per round; a bucket small
  enough for the group's one-round protocol
  (:func:`repro.comm.algorithms.allreduce_protocol`) is costed as that
  whatever the knob says.

The absolute numbers do not need to match the thread transport — only
the *ordering* matters, and ordering is what the rollback guard
protects when the prior is wrong.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.comm.algorithms import allreduce_protocol
from repro.core.comm_hooks import hook_wire_ratio, make_hook
from repro.simnet.cost_model import CollectiveCostModel, cost_model_for
from repro.utils.units import MB

from repro.autotune.knobs import TunedConfig

#: Fixed per-bucket cost of running a compression hook (pack/unpack,
#: encode/decode) — keeps the prior from claiming compression is free.
HOOK_OVERHEAD_S = {
    None: 0.0,
    "fp16": 30e-6,
    "topk": 120e-6,
    "powersgd": 200e-6,
}


def _bucket_sizes(model_bytes: float, bucket_cap_mb: float) -> List[float]:
    """Bucket byte sizes for a model of ``model_bytes`` gradients."""
    cap = max(1.0, bucket_cap_mb) * MB
    if model_bytes <= 0:
        return []
    full, rest = divmod(model_bytes, cap)
    sizes = [cap] * int(full)
    if rest > 0:
        sizes.append(rest)
    return sizes or [model_bytes]


def _chunk_penalty(
    model: CollectiveCostModel, nbytes: float, chunk_bytes: int, world: int
) -> float:
    """Extra seconds from pipelining ``nbytes`` at ``chunk_bytes``.

    Each extra chunk pays one hop latency per ring step (alpha side of
    the U-curve); the first chunk's transfer is un-overlapped fill
    (bandwidth side — grows with chunk size).
    """
    if world <= 1 or nbytes <= 0:
        return 0.0
    chunks = max(1, math.ceil(nbytes / max(1, chunk_bytes)))
    hops = 2.0 * (world - 1)
    alpha_side = (chunks - 1) * hops * model.hop_latency(world) * 0.5
    fill = min(nbytes, chunk_bytes) / model.bottleneck_bandwidth(world)
    return alpha_side + fill


def estimate_iteration_time(
    config: TunedConfig,
    model_bytes: float,
    world_size: int,
    backward_compute_s: float = 0.0,
    backend: str = "gloo",
) -> float:
    """Predicted per-iteration time (seconds) under ``config``.

    ``backward_compute_s`` is the measured backward-pass compute time;
    communication launched while backward is still producing gradients
    is hidden behind it (the paper's §3.2.3 overlap), so the estimate
    returns ``backward + exposed_comm``.  Each bucket is priced as the
    AllReduce that would run: ``config.algorithm`` above the group's
    size rule, the one-round direct exchange below it.
    """
    model = cost_model_for(backend)
    # A compressing hook's wire volume, as its own wire_ratio prices a
    # bucket of fp32 gradients.
    hook = make_hook(config.comm_hook) if config.comm_hook else None
    per_bucket_overhead = HOOK_OVERHEAD_S.get(config.comm_hook, 0.0)
    comm = 0.0
    sizes = _bucket_sizes(model_bytes, config.bucket_cap_mb)
    for nbytes in sizes:
        wire = nbytes * hook_wire_ratio(hook, np.float32, max(1, int(nbytes) // 4))
        if world_size <= 1 or wire <= 0:
            collective = model.launch_overhead
        else:
            algorithm = allreduce_protocol(config.algorithm, wire, world_size)
            collective = model.allreduce_time(wire, world_size, algorithm=algorithm)
        comm += (
            collective
            + _chunk_penalty(model, wire, config.chunk_bytes, world_size)
            + per_bucket_overhead
        )
    # Buckets other than the last become ready while backward still
    # runs; that fraction of communication can hide behind compute.
    if len(sizes) > 1 and backward_compute_s > 0:
        hideable = comm * (len(sizes) - 1) / len(sizes)
        hidden = min(hideable, backward_compute_s)
        exposed = comm - hidden
    else:
        exposed = comm
    return backward_compute_s + exposed


def prune_candidates(
    candidates: Sequence[TunedConfig],
    model_bytes: float,
    world_size: int,
    backward_compute_s: float = 0.0,
    keep: int = 8,
    backend: str = "gloo",
) -> List[TunedConfig]:
    """The ``keep`` most promising candidates by predicted time.

    Deterministic: ties break on the candidates' original order, so
    every rank prunes to the identical shortlist.
    """
    scored = [
        (
            estimate_iteration_time(
                config,
                model_bytes,
                world_size,
                backward_compute_s,
                backend=backend,
            ),
            index,
            config,
        )
        for index, config in enumerate(candidates)
    ]
    scored.sort(key=lambda item: (item[0], item[1]))
    return [config for _, _, config in scored[: max(1, keep)]]
