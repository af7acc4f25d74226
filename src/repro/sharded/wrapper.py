"""What the gradient-sharding wrappers (ZeRO-2 and ZeRO-3) share.

Their backward runs on DDP's :class:`~repro.core.reducer.Reducer`, with
the wrapper as its ``shards``: each bucket is reduce-scattered, and by
the end of backward every averaged span is on the optimizer's shards.
What is left here is what only sharding needs: the
:class:`~repro.sharded.optimizer.ShardedOptimizer`, the memory meter
and the checkpoint calls.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.checkpoint import payload
from repro.core.reducer import Reducer
from repro.nn.module import Module
from repro.sharded.flat import FlatShardLayout
from repro.sharded.memory import ShardedStats
from repro.sharded.optimizer import ShardedOptimizer, _resolve_group


class ShardedWrapper(Module):
    """Base of :class:`~repro.sharded.data_parallel.ShardedDataParallel` and
    :class:`~repro.sharded.fsdp.FullyShardedDataParallel`; per-rank, driven
    from the rank's thread."""

    _descending = False  # launch the last bucket first (ZeRO-3's units)

    def __init__(self, module: Module, optimizer_factory: Callable, process_group,
                 stage: str, gather_after_step: bool, find_unused_parameters: bool,
                 bucket_cap_mb: Optional[float] = None, specs=None):
        super().__init__()
        self.module = module
        self.process_group = _resolve_group(process_group)
        self.rank = self.process_group.group_rank
        self._params = list(module.parameters())
        self.layout = FlatShardLayout(self._params, self.process_group.size,
                                      bucket_cap_mb=bucket_cap_mb, specs=specs)
        # Replicas start from rank 0's values, as in DDP — one broadcast
        # per flat bucket (and one for the buffers), not one per tensor.
        self.layout.broadcast_params(self.process_group)
        buffers = list(module.buffers())
        if buffers:
            FlatShardLayout(buffers, self.layout.world).broadcast_params(self.process_group)
        self.optimizer = ShardedOptimizer(
            self._params, optimizer_factory, process_group=self.process_group,
            layout=self.layout, gather_after_step=gather_after_step)
        self.stats = ShardedStats(stage, self.layout.world)
        self.reducer = Reducer(
            self._params, self.layout.buckets, self.process_group,
            find_unused_parameters=find_unused_parameters, shards=self,
            param_names=[name for name, _ in module.named_parameters()],
            descending=self._descending)

    def bucket_launched(self, bucket: int) -> None:
        """The reducer issued the bucket's reduce-scatter."""
        self.stats.reduce_scatter_count += 1
        self.stats.reduce_scatter_bytes += self.reducer.buckets[bucket].nbytes

    def harvest_started(self) -> None:
        """Backward is complete: sample the meter, every gradient flat live."""
        self.stats.observe(self.live_bytes())

    def forward(self, *inputs, **kwargs):
        """Drop an unfinished iteration, run the module, arm the reducer."""
        self.reducer.discard_iteration()
        t_forward = time.perf_counter()
        out = self.module(*inputs, **kwargs)
        self.reducer.prepare_for_backward(out, t_forward)
        return out

    def zero_grad(self) -> None:
        """Clear parameter and shard gradients; drop an unfinished iteration."""
        self.reducer.discard_iteration()
        self.optimizer.zero_grad()

    def _require_reduced(self) -> None:
        """Discard and name a backward that left parameters without gradient."""
        if not self.reducer.finalized:
            names = [entry["name"] for entry in self.reducer.unready_parameters()]
            self._discard_iteration()
            raise RuntimeError(
                f"{type(self).__name__}: backward produced no gradient for {names}; "
                "pass find_unused_parameters=True if the graph skips parameters"
            )

    def _discard_iteration(self) -> None:
        self.zero_grad()

    def save_training_state(self, path: str, iteration: int = 0, extra=None) -> None:
        """Collective save: rank 0 writes one full-layout file any loader reads."""
        payload.save_sharded_training_checkpoint(path, self, iteration, extra)

    def load_training_state(self, path: str) -> dict:
        """Local checkpoint restore; returns ``{"iteration", "extra"}``."""
        return payload.load_sharded_training_checkpoint(path, self)

    def ddp_stats(self) -> dict:
        """The reducer's report plus the ``"sharded"`` section."""
        return {**self.reducer.stats(), "sharded": self.stats.snapshot()}
