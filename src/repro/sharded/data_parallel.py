"""``ShardedDataParallel``: gradient + optimizer-state sharding (ZeRO-2).

The training loop looks like DDP's, but the wrapper owns the optimizer
(construction must know the shard layout) and the backward communicates
with ``reduce_scatter_flat`` instead of allreduce:

* DDP's :class:`~repro.core.reducer.Reducer` reduce-scatters each
  bucket's flat **asynchronously** as it fills, and by the end of
  backward each rank's averaged span is on its optimizer shard;
* :meth:`ShardedDataParallel.step` **frees the full gradients** (the
  ZeRO-2 memory property: a full gradient set exists only transiently
  between backward and step, and only once — ``param.grad`` aliases the
  flats), runs the sharded optimizer, and all-gathers the updated
  parameter spans.
"""

from __future__ import annotations

from typing import Callable

from repro.nn.module import Module
from repro.sharded.memory import module_arrays, optimizer_state_arrays, storage_bytes
from repro.sharded.wrapper import ShardedWrapper


class ShardedDataParallel(ShardedWrapper):
    """ZeRO-2 wrapper: each rank keeps only its gradient + state shard.

    Parameters
    ----------
    module:
        The local model; rank 0's parameters and buffers are broadcast
        so replicas start identical, as in DDP.
    optimizer_factory:
        Builds the inner optimizer over this rank's shard tensors, e.g.
        ``lambda ps: Adam(ps, lr=1e-3)``.
    process_group:
        Group for the collectives; defaults to the rank's default group.
    bucket_cap_mb:
        Bucket size knob (reverse-parameter-order assignment, shared
        with the optimizer's span layout).
    find_unused_parameters:
        As for DDP: parameters outside the forward's graph contribute
        zero gradients, at one bitmap AllReduce per iteration.

    Thread-safety: per-rank object; drive it from the rank's thread.
    """

    def __init__(
        self,
        module: Module,
        optimizer_factory: Callable,
        process_group=None,
        bucket_cap_mb: float = 25.0,
        find_unused_parameters: bool = False,
    ):
        super().__init__(
            module, optimizer_factory, process_group, stage="zero2",
            gather_after_step=True, find_unused_parameters=find_unused_parameters,
            bucket_cap_mb=bucket_cap_mb,
        )

    # -- module protocol -------------------------------------------------
    def state_dict(self):
        """The wrapped module's state dict (no ``module.`` prefix)."""
        return self.module.state_dict()

    def load_state_dict(self, state) -> None:
        """Load into the wrapped module and refresh optimizer shards."""
        self.module.load_state_dict(state)
        self.optimizer.refresh_shards_from_params()

    # -- training step ---------------------------------------------------
    def step(self) -> None:
        """Free full gradients, run the sharded optimizer update, and
        all-gather new parameters."""
        self._require_reduced()
        # The ZeRO-2 property: full per-parameter gradients are dropped
        # before the weight update — only the averaged shard survives.
        for param in self._params:
            param.grad = None
        self.stats.free_count += len(self._params)
        self.optimizer.step()  # all-gathers every bucket's updated span
        self.stats.gather_count += self.layout.num_buckets
        self.stats.all_gather_bytes += sum(b.nbytes for b in self.reducer.buckets)
        self.stats.iterations += 1
        self.stats.observe(self.live_bytes())

    # -- observability ---------------------------------------------------
    def live_bytes(self) -> int:
        """Measured bytes this rank currently holds for training state:
        module arrays, shard tensors + grads, optimizer state, and any
        in-flight flat communication buffers."""
        arrays = list(module_arrays(self.module))
        for shard in self.optimizer.shards:
            arrays.append(shard.data)
            if shard.grad is not None:
                arrays.append(shard.grad.data)
        arrays.extend(optimizer_state_arrays(self.optimizer.inner))
        arrays.extend(bucket.flat for bucket in self.reducer.buckets)
        return storage_bytes(arrays)
