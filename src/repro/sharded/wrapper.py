"""What the gradient-sharding wrappers (ZeRO-2 and ZeRO-3) share.

Both wrap a module, own a :class:`~repro.sharded.optimizer.ShardedOptimizer`
over one :class:`~repro.sharded.flat.FlatShardLayout`, and run the same
backward schedule, written once here:

* autograd post-hooks count gradients per bucket, exactly like the
  reducer's readiness protocol;
* a *launch frontier* walks the buckets in a fixed direction (the
  paper's Fig. 3(a) discipline — every rank must launch collectives in
  the same order, whatever its own gradient order).  The bucket at the
  frontier gets its gradient flat, and its accumulators are pointed at
  views of it (``AccumulateGrad.set_grad_view``, the reducer's
  mechanism): a gradient is written once, straight into the buffer that
  is communicated, and one that arrived early is copied in.  When the
  bucket's last gradient lands the flat is reduce-scattered
  **asynchronously** with ``ReduceOp.AVG`` (the rank that owns a span
  divides it, inside the collective) and the frontier moves on;
* ``step()`` harvests: waits for the averaged spans in launch order and
  hands each to the optimizer.

Models whose autograd graph skips parameters are rejected with a named
error at ``step()`` — sharded mode has no unused-parameter bitmap, so a
never-ready bucket would otherwise hang every rank.  The failed
iteration is discarded, so the next one starts clean.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.comm.process_group import ReduceOp
from repro.nn.module import Module
from repro.checkpoint.payload import (
    load_sharded_training_checkpoint,
    save_sharded_training_checkpoint,
)
from repro.sharded.flat import FlatShardLayout
from repro.sharded.memory import ShardedStats
from repro.sharded.optimizer import ShardedOptimizer, _resolve_group


class ShardedWrapper(Module):
    """Base of :class:`~repro.sharded.data_parallel.ShardedDataParallel`
    and :class:`~repro.sharded.fsdp.FullyShardedDataParallel`.

    Subclasses choose the layout (``bucket_cap_mb`` or explicit
    ``specs``), the launch direction (:attr:`_launch_step`), what is
    freed at launch (:meth:`_bucket_launched`) and what ``step()`` does
    after :meth:`_harvest`.

    Thread-safety: per-rank object; drive it from the rank's thread.
    """

    #: Direction the launch frontier walks the bucket indices: +1 for
    #: reverse-parameter-order buckets (bucket 0 is ready first), -1 for
    #: forward-order units (the last one is ready first).
    _launch_step = 1

    def __init__(
        self,
        module: Module,
        optimizer_factory: Callable,
        process_group,
        stage: str,
        gather_after_step: bool,
        bucket_cap_mb: Optional[float] = None,
        specs=None,
    ):
        super().__init__()
        self.module = module
        self.process_group = _resolve_group(process_group)
        self.world = int(self.process_group.size)
        self.rank = self.process_group.group_rank
        self._params = list(module.parameters())
        if not self._params:
            raise ValueError(f"{type(self).__name__} requires a model with parameters")
        self._param_names = [name for name, _ in module.named_parameters()]

        self.layout = FlatShardLayout(
            self._params, self.world, bucket_cap_mb=bucket_cap_mb, specs=specs
        )
        # Replicas start from rank 0's values, as in DDP — one broadcast
        # per flat bucket (and one for the buffers), not one per tensor.
        self.layout.broadcast_params(self.process_group)
        buffers = list(module.buffers())
        if buffers:
            FlatShardLayout(buffers, self.world).broadcast_params(self.process_group)
        self.optimizer = ShardedOptimizer(
            self._params, optimizer_factory, process_group=self.process_group,
            layout=self.layout, gather_after_step=gather_after_step,
        )
        self.stats = ShardedStats(stage, self.world)

        self._bucket_of: Dict[int, int] = {
            index: bucket
            for bucket, spec in enumerate(self.layout.buckets)
            for index in spec.param_indices
        }
        for index, param in enumerate(self._params):
            param.accumulator().register_post_hook(
                lambda _, index=index: self._grad_ready(index)
            )
        self._works: List[Optional[object]] = []
        self._grad_flats: List[Optional[np.ndarray]] = []
        self._reset_iteration()

    # -- backward schedule ------------------------------------------------
    def _reset_iteration(self) -> None:
        # Leftovers of an iteration that never reached step(): launched
        # reduce-scatters are waited (no Work is abandoned), and a bucket
        # opened but never launched takes its gradient views back.
        for bucket, flat in enumerate(self._grad_flats):
            if self._works[bucket] is not None:
                self._works[bucket].wait()
            elif flat is not None:
                self._set_grad_views(bucket, None)
        buckets = self.layout.num_buckets
        self._grad_seen = [False] * len(self._params)
        self._pending = [len(spec.param_indices) for spec in self.layout.buckets]
        self._frontier = 0 if self._launch_step > 0 else buckets - 1
        self._works = [None] * buckets
        self._grad_flats = [None] * buckets

    def _set_grad_views(self, bucket: int, flat: Optional[np.ndarray]) -> None:
        """Point the bucket's accumulators at views of ``flat`` (None
        detaches them).  A gradient already there is copied in and
        re-aliased, so ``param.grad`` never holds a second copy."""
        for index, offset, size in self.layout.bucket_entries(bucket):
            param = self._params[index]
            if flat is None:
                param.accumulator().set_grad_view(None)
                continue
            view = Tensor(flat[offset : offset + size].reshape(param.data.shape))
            if param.grad is None:
                param.accumulator().set_grad_view(view)
            else:
                np.copyto(view.data, param.grad.data)
                param.grad = view

    def _grad_ready(self, index: int) -> None:
        if self._grad_seen[index]:
            return
        self._grad_seen[index] = True
        bucket = self._bucket_of[index]
        self._pending[bucket] -= 1
        if bucket == self._frontier:
            self._advance_frontier()

    def _advance_frontier(self) -> None:
        while 0 <= self._frontier < self.layout.num_buckets:
            bucket = self._frontier
            if self._grad_flats[bucket] is None:
                self._grad_flats[bucket] = self.layout.empty_flat(bucket)
                self._set_grad_views(bucket, self._grad_flats[bucket])
            if self._pending[bucket]:
                return
            flat = self._grad_flats[bucket]
            self._set_grad_views(bucket, None)
            self._works[bucket] = self.process_group.reduce_scatter_flat(
                flat, ReduceOp.AVG, async_op=True
            )
            self.stats.reduce_scatter_count += 1
            self.stats.reduce_scatter_bytes += flat.nbytes
            self._bucket_launched(bucket)
            self._frontier += self._launch_step

    def _bucket_launched(self, bucket: int) -> None:
        """Called right after a bucket's reduce-scatter is issued."""

    def _harvest(self) -> None:
        """First half of ``step()``: require a complete backward, sample
        the meter, then wait for the (already averaged) spans in launch
        order and install each as its shard's gradient."""
        buckets = self.layout.num_buckets
        if 0 <= self._frontier < buckets:
            names = [
                name for name, seen in zip(self._param_names, self._grad_seen) if not seen
            ]
            self._discard_iteration()
            raise RuntimeError(
                f"{type(self).__name__}: backward produced no gradient for "
                f"{len(names)} parameter(s) {names}; sharded mode requires every "
                "parameter to participate (no unused-parameter support)"
            )
        self.stats.observe(self.live_bytes())
        for bucket in range(buckets)[:: self._launch_step]:
            work = self._works[bucket]
            work.wait()
            self.optimizer.set_shard_grad(bucket, work.result[0])
            self._grad_flats[bucket] = None
            self._works[bucket] = None

    def _discard_iteration(self) -> None:
        """Drop everything a backward that cannot be stepped left behind."""
        self.zero_grad()

    # -- module protocol -------------------------------------------------
    def forward(self, *inputs, **kwargs):
        """Run the wrapped module's forward; resets the readiness state
        so the coming backward starts a fresh launch frontier."""
        self._reset_iteration()
        return self.module(*inputs, **kwargs)

    def zero_grad(self) -> None:
        """Clear parameter and shard gradients; reset readiness state."""
        self.optimizer.zero_grad()
        self._reset_iteration()

    # -- consolidated single-file checkpoints ------------------------------
    def save_training_state(self, path: str, iteration: int = 0, extra=None) -> None:
        """Collective checkpoint save (rank 0 writes one full-layout
        file any loader reads; elastic runs use the engine's per-rank
        shards instead, which cost no collectives)."""
        save_sharded_training_checkpoint(path, self, iteration=iteration, extra=extra)

    def load_training_state(self, path: str) -> dict:
        """Local checkpoint restore; returns ``{"iteration", "extra"}``."""
        return load_sharded_training_checkpoint(path, self)

    # -- observability ---------------------------------------------------
    def ddp_stats(self) -> dict:
        """DDP-style stats report with the ``"sharded"`` section (peak
        bytes per rank, gather/free counters; see docs/observability.md)."""
        return {
            "world_size": self.world,
            "rank": self.rank,
            "num_buckets": self.layout.num_buckets,
            "bucket_sizes_bytes": [
                self.layout.bucket_nbytes(b) for b in range(self.layout.num_buckets)
            ],
            "sharded": self.stats.snapshot(),
        }
