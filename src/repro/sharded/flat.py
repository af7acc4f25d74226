"""Flat-span shard layout shared by every ZeRO stage.

The sharded stack reuses DDP's bucket machinery
(:mod:`repro.core.bucket`): parameters are coalesced into flat buckets
— by :func:`~repro.core.bucket.compute_bucket_assignment` for ZeRO-1/2,
or one bucket per :func:`select_units` block for ZeRO-3 — and each bucket's
flat element range is partitioned across ranks with
:func:`~repro.comm.algorithms.partition_spans`.  Rank ``r`` owns span
``r`` of every bucket: exactly the span
:meth:`~repro.comm.process_group.ProcessGroup.reduce_scatter_flat`
returns to it and the span it contributes to
:meth:`~repro.comm.process_group.ProcessGroup.all_gather_flat`.

Splitting *within* parameters (flat spans, not whole-parameter
ownership) keeps shards balanced to ±1 element regardless of layer
sizes; it is numerically free because every optimizer here (SGD, Adam)
updates elementwise, so the sharded update equals the replicated one
bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.algorithms import partition_spans
from repro.core import bucket as _bucket
from repro.core.bucket import UNBOUNDED_CAP_BYTES, BucketSpec, compute_bucket_assignment
from repro.nn.container import ModuleList, Sequential
from repro.utils.units import MB


def select_units(root) -> List[Tuple[str, list]]:
    """ZeRO-3's gather/free units: ``(dotted module path, parameters)``.

    The paper's bucketing lesson (§3.2.2) applied to parameter sharding:
    a unit is a *block*, not a leaf.  The walk descends from ``root``
    through pure containers only — the root itself, ``Sequential`` /
    ``ModuleList``, and a parameter-less module with a single
    parameter-bearing child (a wrapper) — and every other module met on
    the way becomes one unit holding all parameters of its subtree.  The
    root's own direct parameters form a unit of their own (path ``""``).
    Units come out in registration (≈ forward execution) order.
    """
    units: List[Tuple[str, list]] = []

    def walk(module, path: str, is_root: bool) -> None:
        direct = [p for p in module._parameters.values() if p is not None]
        children = [
            (name, child)
            for name, child in module._modules.items()
            if child is not None and next(child.parameters(), None) is not None
        ]
        container = not direct and (
            isinstance(module, (Sequential, ModuleList)) or len(children) == 1
        )
        if not (is_root or container):
            units.append((path, list(module.parameters())))
            return
        if direct:
            units.append((path, direct))
        for name, child in children:
            walk(child, f"{path}.{name}" if path else name, False)

    walk(root, "", True)
    return units


def unit_bucket_specs(unit_param_indices: Sequence[Sequence[int]], params) -> List[BucketSpec]:
    """Build one :class:`BucketSpec` per explicit parameter grouping.

    ZeRO-3 shards per :func:`select_units` block rather than by byte
    cap; this adapts those module-defined groups onto the same spec type
    the reducer and :class:`FlatShardLayout` already understand.
    """
    specs: List[BucketSpec] = []
    for indices in unit_param_indices:
        sizes = tuple(params[i].numel() for i in indices)
        first = params[indices[0]]
        specs.append(
            BucketSpec(
                index=len(specs),
                param_indices=tuple(indices),
                offsets=tuple(itertools.accumulate(sizes[:-1], initial=0)),
                sizes=sizes,
                device=getattr(first, "device", "cpu"),
                dtype=str(first.dtype),
            )
        )
    return specs


class FlatShardLayout:
    """Maps parameters ↔ flat bucket windows ↔ per-rank spans.

    One instance is shared by a sharded wrapper and its
    :class:`~repro.sharded.optimizer.ShardedOptimizer`, so gradients are
    reduce-scattered, optimizer state partitioned, and parameters
    all-gathered over the *same* element ranges.

    Thread-safety: immutable after construction; the copy helpers write
    only into caller-provided arrays.
    """

    def __init__(
        self,
        params: Sequence,
        world: int,
        bucket_cap_mb: Optional[float] = None,
        specs: Optional[List[BucketSpec]] = None,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("FlatShardLayout requires at least one parameter")
        if world < 1:
            raise ValueError("world must be >= 1")
        self.world = int(world)
        if specs is None:
            cap = (
                int(bucket_cap_mb * MB)
                if bucket_cap_mb is not None
                else UNBOUNDED_CAP_BYTES
            )
            specs = compute_bucket_assignment(self.params, bucket_cap_bytes=cap)
        self.buckets: List[BucketSpec] = list(specs)
        #: Per bucket: the ``partition_spans`` ownership table.
        self.spans: List[List[Tuple[int, int]]] = [
            partition_spans(b.total_elements, self.world) for b in self.buckets
        ]

    # -- sizes -----------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        """Number of flat buckets in the layout."""
        return len(self.buckets)

    def shard_numel(self, rank: int) -> int:
        """Elements rank ``rank`` owns, summed over all buckets."""
        return sum(hi - lo for spans in self.spans for lo, hi in [spans[rank]])

    def span(self, bucket: int, rank: int) -> Tuple[int, int]:
        """Rank ``rank``'s ``(lo, hi)`` window of bucket ``bucket``."""
        return self.spans[bucket][rank]

    def bucket_dtype(self, bucket: int) -> np.dtype:
        """The numpy dtype of a bucket's flat buffer."""
        return np.dtype(self.buckets[bucket].dtype)

    def empty_flat(self, bucket: int) -> np.ndarray:
        """An uninitialized flat buffer of the bucket's size and dtype."""
        return np.empty(
            self.buckets[bucket].total_elements, dtype=self.bucket_dtype(bucket)
        )

    def concat_order(self) -> List[int]:
        """Parameter indices in the order the buckets concatenate them —
        what two layouts must share for shards to re-slice across them."""
        return [index for spec in self.buckets for index in spec.param_indices]

    # -- parameter <-> flat copies --------------------------------------
    def bucket_entries(self, bucket: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(param_index, flat_offset, size)`` for one bucket."""
        spec = self.buckets[bucket]
        for param_index, offset, size in zip(
            spec.param_indices, spec.offsets, spec.sizes
        ):
            yield param_index, offset, size

    def scatter_into_params(self, bucket: int, flat: np.ndarray) -> None:
        """Write the bucket's flat buffer back into the parameters."""
        _bucket.scatter_into_params(self.buckets[bucket], self.params, flat)

    def broadcast_params(self, process_group, src: int = 0) -> None:
        """Overwrite every rank's parameters with ``src``'s: one
        broadcast per flat bucket instead of one per parameter."""
        _bucket.broadcast_params(self.buckets, self.params, process_group, src=src)

    # -- shard <-> parameter mapping ------------------------------------
    def shard_overlaps(
        self, bucket: int, rank: int
    ) -> Iterator[Tuple[int, slice, slice]]:
        """Parameters overlapping rank ``rank``'s span of ``bucket``.

        Yields ``(param_index, param_flat_slice, shard_slice)``: the
        slice of the parameter's flattened data covered by the shard and
        where it lands inside the shard array.  This is the mapping the
        sharded checkpoint code uses to reassemble (and re-slice)
        positionally keyed optimizer state.
        """
        lo, hi = self.spans[bucket][rank]
        for index, offset, size in self.bucket_entries(bucket):
            p_lo = max(lo, offset)
            p_hi = min(hi, offset + size)
            if p_lo < p_hi:
                yield (
                    index,
                    slice(p_lo - offset, p_hi - offset),
                    slice(p_lo - lo, p_hi - lo),
                )
