"""Re-slicing saved state into another world size or bucket layout.

Everything a ``repro.sharded`` layout holds — the parameters, and each
optimizer-state key — is one *family*: an array over the model-wide
concatenation of the parameters (bucket after bucket), of which every
rank owns the ``partition_spans`` of each bucket.  Restoring is one
operation, written once in :func:`fill_window`: place the saved *pieces*
of a family on the concatenation and cut the target rank's window out.
:func:`reshard_state_dict` feeds it one piece per parameter (the full
layout's positional optimizer state); :func:`load_shard_payloads` one
piece per saved ``(bucket, rank)`` span (the sharded layout).

Bucket assignment depends only on the parameter list and cap, never on
the world, and every optimizer here is elementwise, so shrink 4→2 and
grow 2→4 round-trip bit-exactly for every ZeRO stage — with no
collectives at save time or at load time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.checkpoint.format import ChecksumError
from repro.checkpoint.payload import parse_sharded, shard_key, sharded_payload
from repro.comm.algorithms import partition_spans

#: ``(start, size, value, complaint)``: ``value`` (None when this piece
#: was not saved) covers elements ``[start, start + size)`` of its
#: family; ``complaint`` is the wrong-size message, with one ``{}`` for
#: the element count found.
Piece = Tuple[int, int, object, str]


def fill_window(
    lo: int,
    hi: int,
    pieces: Iterable[Piece],
    dtype=None,
    required: bool = False,
    error=ValueError,
):
    """Elements ``[lo, hi)`` of one family, assembled from ``pieces``.

    Returns the window (zeros where no piece was saved, ``dtype`` or the
    first piece's), a scalar family's value, or None when no piece
    carries a value.  *Every* piece is size-checked, overlapping the
    window or not; a mismatch raises ``error``, and so does an absent
    piece of a ``required`` family.
    """
    out = None
    for start, size, value, complaint in pieces:
        if value is None and not required:
            continue
        value = np.asarray(() if value is None else value)
        if value.ndim == 0:
            return value.item()
        if value.size != size:
            raise error(complaint.format(value.size))
        if out is None:
            out = np.zeros(hi - lo, dtype=dtype or value.dtype)
        a, b = max(lo, start), min(hi, start + size)
        if a < b:
            out[a - lo : b - lo] = value.reshape(-1)[a - start : b - start]
    return out


def _check_num_params(saved, have: int, what: str, target: str) -> None:
    if saved is not None and int(saved) != have:
        raise ValueError(
            f"{what} {int(saved)} parameters but the target {target} has {have}"
        )


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
    """
    _check_num_params(
        state_dict.get("num_params"), len(layout.params),
        "consolidated optimizer state covers", "layout",
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
        entries = list(layout.bucket_entries(bucket))
        lo, hi = layout.span(bucket, rank)
        resharded.append({
            key: fill_window(
                lo, hi,
                [
                    (offset, size, per_param(index).get(key),
                     f"state '{key}' for parameter {index} has {{}} elements, "
                     f"expected {size}")
                    for index, offset, size in entries
                ],
                dtype=layout.bucket_dtype(bucket),
            )
            for key in sorted({k for index, _, _ in entries for k in per_param(index)})
        })
    return resharded


def shard_payload(
    model, include_buffers: bool = False, extra: Optional[Dict] = None
) -> Tuple[Dict, Dict]:
    """One rank's checkpoint shard of a sharded wrapper, no collectives.

    Returns ``(arrays, meta)``: arrays are the sharded layout of
    :mod:`repro.checkpoint.payload` — this rank's parameter span per
    bucket (the shard tensors, which are the authoritative span storage
    in every ZeRO stage), its optimizer state spans, and with
    ``include_buffers`` (rank 0) the module's full buffers.  ``meta``
    records what a restore at a different world size or bucket layout
    must validate: bucket totals, parameter count and concatenation
    order, stage, and this rank's spans.
    """
    optimizer = model.optimizer
    layout = optimizer.layout
    arrays = sharded_payload(
        [shard.data for shard in optimizer.shards],
        [optimizer.inner.state.get(id(shard)) or {} for shard in optimizer.shards],
        {name: buf.data for name, buf in model.module.named_buffers()}
        if include_buffers else {},
        extra,
    )
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
    world size and meta).  The saved spans are rebuilt with
    ``partition_spans(total, saved_world)`` — deterministic, so nothing
    but the shards needs to survive — and placed in the concatenation of
    the *saved* buckets; the target reads its own buckets and spans out
    of it, so a checkpoint restores across world sizes and bucket
    layouts (another ``bucket_cap_mb``, per-leaf vs per-block ZeRO-3
    units) as long as both concatenate the same parameters in the same
    order.  This rank's spans land in the shard tensors, the live
    parameters (except ZeRO-3, whose freed stubs regather) and the inner
    optimizer's state.  Returns ``{"iteration", "extra"}``.
    """
    optimizer = model.optimizer
    layout = optimizer.layout
    if 0 not in shards:
        raise ValueError("shard payloads must include saved rank 0")
    rank0_manifest = shards[0][1]
    saved_world = int(rank0_manifest.world_size)
    meta = rank0_manifest.meta
    missing = [r for r in range(saved_world) if r not in shards]
    if missing:
        raise ValueError(
            f"shard payloads cover saved world {saved_world} but ranks "
            f"{missing} are absent"
        )
    _check_num_params(
        meta.get("num_params"), len(optimizer.params), "saved shards cover", "model"
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
    # Where every saved (bucket, rank) span sits in the concatenation.
    slots = []
    base = 0
    for saved_bucket, total in enumerate(saved_totals):
        for old_rank, (lo, hi) in enumerate(partition_spans(total, saved_world)):
            slots.append((saved_bucket, old_rank, base + lo, hi - lo))
        base += total

    def window(key: Optional[str], lo: int, hi: int, dtype=None):
        """One family's window: the parameters (``key`` None, every
        piece required) or one optimizer-state key."""
        pieces = []
        for saved_bucket, old_rank, start, size in slots:
            name = shard_key(saved_bucket, key)
            pieces.append((
                start, size, shards[old_rank][0].get(name),
                f"saved rank {old_rank} holds {{}} elements of {name!r}, "
                f"expected {size}",
            ))
        return fill_window(
            lo, hi, pieces, dtype=dtype, required=key is None, error=ChecksumError
        )

    keys = sorted(set().union(*(parse_sharded(arrays)[0] for arrays, _ in shards.values())))
    sharded_params = hasattr(model, "summon_full_params")
    start = 0
    for bucket, shard in enumerate(optimizer.shards):
        flat = window(None, start, start + ours[bucket], layout.bucket_dtype(bucket))
        lo, hi = layout.span(bucket, optimizer.rank)
        shard.data[...] = flat[lo:hi]
        if not sharded_params:
            layout.scatter_into_params(bucket, flat)
        shard_state = {
            key: window(key, start + lo, start + hi) for key in keys
        }
        shard_state = {k: v for k, v in shard_state.items() if v is not None}
        if shard_state:
            optimizer.inner.state[id(shard)] = shard_state
        else:
            optimizer.inner.state.pop(id(shard), None)
        start += ours[bucket]

    _, buffers, extra = parse_sharded(shards[0][0])
    own_buffers = dict(model.module.named_buffers())
    for name, value in buffers.items():
        if name in own_buffers:
            np.copyto(own_buffers[name].data, value)
    return {"iteration": int(rank0_manifest.iteration), "extra": extra}
