"""Sharded checkpointing: full-model snapshots and cross-world resharding.

Two families live here:

**Consolidated checkpoints** (PR-4 era, still the elastic wrappers'
`save_training_state` path): the on-disk format is exactly
:func:`repro.utils.checkpoint.save_training_checkpoint`'s
(``state/{name}``, ``opt/{index}/{key}``, ``meta/iteration``,
``extra/{key}`` in one atomically written, CRC-trailed npz), so a
checkpoint written mid-ZeRO-training restores into plain local training,
DDP, or any sharding stage — including a *different world size*.
:func:`reshard_state_dict` is the primitive that makes the cross-world
claim precise: it maps a consolidated (positionally keyed, full-array)
optimizer state dict onto any target :class:`~repro.sharded.flat
.FlatShardLayout` and rank, returning exactly the per-bucket span state
that rank's inner optimizer should hold.  Buckets are world-independent
(the bucket assignment depends only on parameters and cap), so shrink
4→2 and grow 2→4 round-trip bit-exactly for every ZeRO stage.

**Shard payloads** (the checkpoint-engine path): each rank persists only
its own spans (:func:`shard_payload`), no collectives at save time;
:func:`load_shard_payloads` reassembles full flats from any saved world
size — old spans are reconstructed with ``partition_spans(total,
saved_world)``, which is deterministic — and re-slices them into the
current layout.  This is what lets
:class:`~repro.checkpoint.engine.CheckpointEngine` restore a ZeRO run
into a grown or shrunk world from per-rank files (or their replicas).

Saving consolidated checkpoints is **collective** (state consolidation
all-gathers parameter and optimizer spans) but only rank 0 touches the
filesystem; loading is purely local.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.checkpoint.format import ChecksumError, load_verified_npz
from repro.utils.checkpoint import _atomic_savez, parse_training_payload


def save_sharded_training_checkpoint(
    path: str,
    model,
    iteration: int = 0,
    extra: Optional[Dict] = None,
) -> None:
    """Consolidate a sharded wrapper's state and write it on rank 0.

    ``model`` is a :class:`~repro.sharded.data_parallel.ShardedDataParallel`
    or :class:`~repro.sharded.fsdp.FullyShardedDataParallel`.  Every
    rank must call this (the consolidation gathers are collectives); the
    resulting file is byte-compatible with
    :func:`repro.utils.checkpoint.load_training_checkpoint`.
    """
    state = model.state_dict()
    opt_state = model.optimizer.consolidated_state_dict()
    if model.rank != 0:
        return
    payload = {f"state/{name}": value for name, value in state.items()}
    for index, per_param in opt_state["state"].items():
        for key, value in per_param.items():
            payload[f"opt/{index}/{key}"] = np.asarray(value)
    payload["meta/iteration"] = np.asarray(int(iteration))
    payload["meta/opt_num_params"] = np.asarray(int(opt_state["num_params"]))
    for key, value in (extra or {}).items():
        payload[f"extra/{key}"] = np.asarray(value)
    _atomic_savez(path, payload)


def load_sharded_training_checkpoint(path: str, model) -> Dict:
    """Restore a full-model checkpoint into a sharded wrapper.

    Local (no collectives): each rank reads the file, installs the model
    state through the wrapper (which re-shards it), and slices its spans
    of the positional optimizer state.  Accepts checkpoints written by
    either :func:`save_sharded_training_checkpoint` or plain
    :func:`repro.utils.checkpoint.save_training_checkpoint` — at any
    world size.  A torn or corrupt file raises
    :class:`~repro.checkpoint.format.ChecksumError`.
    Returns ``{"iteration": int, "extra": dict}``.
    """
    data = load_verified_npz(path)
    state, opt_state, iteration, num_params, extra = parse_training_payload(data)
    model.load_state_dict(state)
    consolidated: Dict = {"state": opt_state}
    if num_params is not None:
        consolidated["num_params"] = num_params
    model.optimizer.load_consolidated_state_dict(consolidated)
    return {"iteration": iteration, "extra": extra}


# -- cross-world resharding ------------------------------------------------
def reshard_state_dict(state_dict: Dict, layout, rank: int) -> List[Dict]:
    """Reshard a consolidated optimizer state dict onto a target layout.

    ``state_dict`` is what
    :meth:`~repro.sharded.optimizer.ShardedOptimizer.consolidated_state_dict`
    returns (``{"state": {param_index: {key: full array | scalar}},
    "num_params": N}``), written at *any* world size; ``layout`` is the
    target :class:`~repro.sharded.flat.FlatShardLayout` and ``rank`` the
    target rank.  Returns one dict per bucket mapping each state key to
    the rank's span of the bucket's flat order (scalars pass through) —
    exactly what the inner optimizer should hold for that bucket's shard
    tensor.  Buckets whose parameters carry no state get ``{}``.

    Purely local and world-agnostic: the consolidated dict has no span
    structure left in it, so shrink 4→2 and grow 2→4 both reduce to
    "re-slice the full arrays along the new span table".
    """
    num_params = state_dict.get("num_params")
    if num_params is not None and int(num_params) != len(layout.params):
        raise ValueError(
            f"consolidated optimizer state covers {int(num_params)} "
            f"parameters but the target layout has {len(layout.params)}"
        )
    state = state_dict.get("state", {})
    for index in state:
        if not 0 <= int(index) < len(layout.params):
            raise ValueError(
                f"optimizer state refers to parameter {index} but only "
                f"{len(layout.params)} parameters are registered"
            )

    def per_param(index: int) -> Dict:
        return state.get(index, state.get(str(index), {}))

    resharded: List[Dict] = []
    for bucket in range(layout.num_buckets):
        keys = set()
        bucket_param_indices = [
            index for index, _, _ in layout.bucket_entries(bucket)
        ]
        for index in bucket_param_indices:
            keys.update(per_param(index).keys())
        shard_state: Dict = {}
        lo, hi = layout.span(bucket, rank)
        for key in sorted(keys):
            sample = None
            for index in bucket_param_indices:
                if key in per_param(index):
                    sample = per_param(index)[key]
                    break
            value = np.asarray(sample)
            if value.ndim == 0:
                shard_state[key] = value.item()
                continue
            flat = np.zeros(
                layout.buckets[bucket].total_elements,
                dtype=layout.bucket_dtype(bucket),
            )
            for index, offset, size in layout.bucket_entries(bucket):
                per = per_param(index)
                if key in per:
                    entry = np.asarray(per[key]).reshape(-1)
                    if entry.size != size:
                        raise ValueError(
                            f"state '{key}' for parameter {index} has "
                            f"{entry.size} elements, expected {size}"
                        )
                    flat[offset : offset + size] = entry
            shard_state[key] = flat[lo:hi].copy()
        resharded.append(shard_state)
    return resharded


# -- per-rank shard payloads (checkpoint-engine path) ----------------------
def shard_payload(model, include_buffers: bool = False) -> Tuple[Dict, Dict]:
    """One rank's checkpoint shard of a sharded wrapper, no collectives.

    Returns ``(arrays, meta)``: arrays hold this rank's parameter span
    per bucket (``param/b{b}`` — the shard tensors, which are the
    authoritative span storage in every ZeRO stage) and its optimizer
    state spans (``opt/b{b}/{key}``, scalars as 0-d arrays); with
    ``include_buffers`` (rank 0) the module's full buffers ride along as
    ``buffer/{name}``.  ``meta`` records what a restore at a different
    world size or bucket layout must validate: bucket totals, parameter
    count and concatenation order, stage, and this rank's spans.
    """
    optimizer = model.optimizer
    layout = optimizer.layout
    arrays: Dict[str, np.ndarray] = {}
    for bucket, shard in enumerate(optimizer.shards):
        arrays[f"param/b{bucket}"] = np.array(shard.data, copy=True)
        state = optimizer.inner.state.get(id(shard)) or {}
        for key in sorted(state):
            value = state[key]
            arrays[f"opt/b{bucket}/{key}"] = np.array(value, copy=True)
    if include_buffers:
        for name, buf in model.module.named_buffers():
            arrays[f"buffer/{name}"] = np.array(buf.data, copy=True)
    meta = {
        "stage": getattr(getattr(model, "stats", None), "stage", "sharded"),
        "num_params": len(optimizer.params),
        "bucket_totals": [int(b.total_elements) for b in layout.buckets],
        "param_order": layout.concat_order(),
        "span": [
            [int(lo), int(hi)]
            for lo, hi in (
                layout.span(b, optimizer.rank) for b in range(layout.num_buckets)
            )
        ],
    }
    return arrays, meta


def load_shard_payloads(model, shards: Dict[int, Tuple[Dict, object]]) -> Dict:
    """Reassemble per-rank shard payloads into a (possibly re-worlded,
    possibly re-bucketed) sharded wrapper.

    ``shards`` maps every *saved* rank to its ``(arrays, manifest)``
    pair (:func:`shard_payload` output; the manifest supplies the saved
    world size and meta).  The saved span tables are reconstructed with
    ``partition_spans(saved_total, saved_world)`` — deterministic, so
    nothing but the shards themselves needs to survive — which places
    every saved piece (parameters, and each optimizer-state key) in the
    concatenation of the *saved* buckets.  The target layout reads its
    own buckets and spans out of that concatenation, so a checkpoint
    restores across world sizes and across bucket layouts (another
    ``bucket_cap_mb``, per-leaf vs per-block ZeRO-3 units) as long as
    both concatenate the same parameters in the same order.  This rank's
    new spans land in the shard tensors, the live parameters (except
    ZeRO-3, whose freed stubs regather from the shards), and the inner
    optimizer's state.  Purely local.  Returns ``{"iteration", "extra"}``.
    """
    from repro.comm.algorithms import partition_spans

    optimizer = model.optimizer
    layout = optimizer.layout
    if 0 not in shards:
        raise ValueError("shard payloads must include saved rank 0")
    rank0_arrays, rank0_manifest = shards[0]
    saved_world = int(rank0_manifest.world_size)
    meta = rank0_manifest.meta
    missing = [r for r in range(saved_world) if r not in shards]
    if missing:
        raise ValueError(
            f"shard payloads cover saved world {saved_world} but ranks "
            f"{missing} are absent"
        )
    num_params = meta.get("num_params")
    if num_params is not None and int(num_params) != len(optimizer.params):
        raise ValueError(
            f"saved shards cover {int(num_params)} parameters but the "
            f"target model has {len(optimizer.params)}"
        )
    ours = [int(b.total_elements) for b in layout.buckets]
    saved_totals = [int(x) for x in meta.get("bucket_totals") or ours]
    order = layout.concat_order()
    saved_order = meta.get("param_order")  # absent from older checkpoints
    param_edges = np.cumsum([layout.params[i].numel() for i in order])
    if (
        sum(saved_totals) != sum(ours)
        or (saved_order is not None and [int(i) for i in saved_order] != order)
        or not np.isin(np.cumsum(saved_totals), param_edges).all()
    ):
        raise ValueError(
            f"saved bucket layout {saved_totals} does not match the target "
            f"layout {ours}; the model or its parameter order differs"
        )
    saved_starts = [0] + [int(edge) for edge in np.cumsum(saved_totals)]

    def window(template: str, g_lo: int, g_hi: int, dtype=None):
        """Elements ``[g_lo, g_hi)`` — in model-wide concatenation
        coordinates — of one saved array family (``template`` takes the
        saved bucket index); a scalar family's value; None when no rank
        saved it.  ``dtype`` marks the family as required (parameters)."""
        out = None
        for saved_bucket, total in enumerate(saved_totals):
            name, base = template.format(saved_bucket), saved_starts[saved_bucket]
            for old_rank, (lo, hi) in enumerate(partition_spans(total, saved_world)):
                value = shards[old_rank][0].get(name)
                if value is None and dtype is None:
                    continue
                # A missing required piece fails the size check below.
                value = np.asarray(() if value is None else value)
                if value.ndim == 0:
                    return value.item()
                if value.size != hi - lo:
                    raise ChecksumError(
                        f"saved rank {old_rank} holds {value.size} elements of "
                        f"{name!r}, expected {hi - lo}"
                    )
                if out is None:
                    out = np.zeros(g_hi - g_lo, dtype=dtype or value.dtype)
                a, b = max(g_lo, base + lo), min(g_hi, base + hi)
                if a < b:
                    piece = value.reshape(-1)[a - base - lo : b - base - lo]
                    out[a - g_lo : b - g_lo] = piece
        return out

    keys = sorted({
        key.split("/", 2)[2]
        for arrays, _ in shards.values()
        for key in arrays
        if key.startswith("opt/b")
    })
    sharded_params = hasattr(model, "summon_full_params")
    start = 0
    for bucket, shard in enumerate(optimizer.shards):
        flat = window(
            "param/b{}", start, start + ours[bucket], layout.bucket_dtype(bucket)
        )
        lo, hi = layout.span(bucket, optimizer.rank)
        shard.data[...] = flat[lo:hi]
        if not sharded_params:
            layout.scatter_into_params(bucket, flat)
        shard_state = {
            key: window("opt/b{}/" + key, start + lo, start + hi) for key in keys
        }
        shard_state = {k: v for k, v in shard_state.items() if v is not None}
        if shard_state:
            optimizer.inner.state[id(shard)] = shard_state
        else:
            optimizer.inner.state.pop(id(shard), None)
        start += ours[bucket]

    own_buffers = dict(model.module.named_buffers())
    for key, value in rank0_arrays.items():
        if key.startswith("buffer/"):
            name = key[len("buffer/"):]
            if name in own_buffers:
                np.copyto(own_buffers[name].data, value)
    extra = {
        key[len("extra/"):]: value
        for key, value in rank0_arrays.items()
        if key.startswith("extra/")
    }
    return {"iteration": int(rank0_manifest.iteration), "extra": extra}
