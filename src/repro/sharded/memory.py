"""Measured per-rank memory accounting for the sharded stack.

The bench's ZeRO-vs-DDP crossover claims rest on *measured* bytes, not
the analytic model in :mod:`repro.simulation.memory`: these helpers walk
the live numpy arrays a rank actually holds — parameters, gradients,
buffers, optimizer state, shard storage, and any transient flat
gather/reduce buffers — and sum the bytes of their **unique backing
storages**.  Views are free (they count their base exactly once), and
the zero-stride stub a :class:`~repro.sharded.fsdp.FullyShardedDataParallel`
installs for a freed parameter counts as its tiny scalar base, which is
what makes the ZeRO-3 savings visible to the meter instead of assumed.

Thread-safety: per-rank data only; call from the owning rank's thread.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, List, Optional

import numpy as np


def _storage_base(array: np.ndarray) -> np.ndarray:
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base


def storage_bytes(arrays: Iterable[Optional[np.ndarray]]) -> int:
    """Bytes of unique backing storage behind ``arrays``.

    Each distinct base array is counted once no matter how many views
    alias it, so flat bucket buffers and their per-parameter gradient
    views do not double-count (nor do a parameter and the gathered flat
    it is a view of).
    """
    seen: set = set()
    total = 0
    for array in arrays:
        if array is None:
            continue
        base = _storage_base(np.asarray(array))
        key = id(base)
        if key in seen:
            continue
        seen.add(key)
        total += base.nbytes
    return total


class StorageCache:
    """:func:`storage_bytes` of a list of arrays that are replaced rather
    than resized (optimizer state, shard gradients): walked again only
    when the list holds an array it did not hold at the last walk.
    Identity is checked through weak references, so the cache keeps
    nothing alive and a recycled ``id`` cannot pass for the old array."""

    def __init__(self) -> None:
        self._refs: List[weakref.ref] = []
        self._bytes = 0

    def storage_bytes(self, arrays: List[np.ndarray]) -> int:
        """What ``storage_bytes(arrays)`` returns."""
        refs = self._refs
        if len(refs) != len(arrays) or any(
            ref() is not array for ref, array in zip(refs, arrays)
        ):
            self._refs = [weakref.ref(array) for array in arrays]
            self._bytes = storage_bytes(arrays)
        return self._bytes


def module_arrays(module) -> Iterator[Optional[np.ndarray]]:
    """Every array a plain module holds: params, grads, buffers."""
    for param in module.parameters():
        yield param.data
        if param.grad is not None:
            yield param.grad.data
    for buffer in module.buffers():
        data = getattr(buffer, "data", None)
        if isinstance(data, np.ndarray):
            yield data


def optimizer_state_arrays(optimizer) -> Iterator[np.ndarray]:
    """Every ndarray inside an optimizer's per-parameter state."""
    state = getattr(optimizer, "state", None)
    if not state:
        return
    for per_param in state.values():
        for value in per_param.values():
            if isinstance(value, np.ndarray):
                yield value


def measure_ddp_bytes(ddp, optimizer=None) -> int:
    """Live per-rank bytes of a DDP replica: module + reducer flats +
    optimizer state.  The DDP side of the bench's crossover table,
    measured with the same walker as the sharded wrappers."""
    arrays = list(module_arrays(ddp.module))
    arrays.extend(bucket.flat for bucket in ddp.reducer.buckets)
    if optimizer is not None:
        arrays.extend(optimizer_state_arrays(optimizer))
    return storage_bytes(arrays)


class ShardedStats:
    """Counters + peak-byte meter behind ``ddp_stats()["sharded"]``.

    ``observe(nbytes)`` feeds a measured live-byte sample, and
    ``peak_bytes`` is the largest *sample*, not a true high-water mark.
    The wrappers sample when the reducer's finalize starts (every
    gradient flat live, nothing harvested yet) and at the end of
    ``step()``; ZeRO-3 also samples each time a unit's gather has been
    bound in forward.  Nothing samples *during* backward, where ZeRO-3
    briefly holds the full parameters plus one unit's gradient flat —
    ``tests/test_sharded_schedule.py`` bounds that from the test side
    and docs/performance.md prints it.
    """

    def __init__(self, stage: str, world: int):
        self.stage = stage
        self.world = world
        self.gather_count = 0
        self.free_count = 0
        self.reduce_scatter_count = 0
        self.reduce_scatter_bytes = 0
        self.all_gather_bytes = 0
        self.peak_bytes = 0
        self.current_bytes = 0
        self.iterations = 0

    def observe(self, nbytes: int) -> None:
        """Record a live-bytes sample; updates current and peak."""
        self.current_bytes = int(nbytes)
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes

    def snapshot(self) -> dict:
        """The ``ddp_stats()["sharded"]`` payload."""
        return {
            "stage": self.stage,
            "world_size": self.world,
            "iterations": self.iterations,
            "gather_count": self.gather_count,
            "free_count": self.free_count,
            "reduce_scatter_count": self.reduce_scatter_count,
            "reduce_scatter_bytes": self.reduce_scatter_bytes,
            "all_gather_bytes": self.all_gather_bytes,
            "peak_bytes_per_rank": self.peak_bytes,
            "current_bytes_per_rank": self.current_bytes,
        }
