"""``ShardedOptimizer``: optimizer state partitioned by flat spans (ZeRO-1).

Each rank materializes one *shard tensor* per bucket — a contiguous copy
of its own :class:`~repro.sharded.flat.FlatShardLayout` span — and runs
an unmodified inner optimizer (:class:`~repro.optim.sgd.SGD`,
:class:`~repro.optim.adam.Adam`, ...) over those tensors only.  State
memory per rank therefore drops by ~``1/world``.  Because every
optimizer here updates elementwise, stepping a flat span with the same
gradient slice produces bit-identical parameters to the replicated
update, so ZeRO-1/2/3 parity with DDP is exact, not approximate.

Gradients arrive one of two ways:

* :meth:`ShardedOptimizer.set_grads_from_params` — ZeRO-1: DDP already
  left full averaged gradients; each rank copies just its spans onto
  the shard tensors.
* :meth:`ShardedOptimizer.set_shard_grad` — ZeRO-2/3: the reducer
  reduce-scattered each bucket and hands each rank its span directly;
  full gradients never outlive the backward.

After the inner step, :meth:`ShardedOptimizer.step` all-gathers the
updated spans back into the real parameters (``gather_after_step=True``,
the ZeRO-1/2 flow) or leaves them sharded for
:class:`~repro.sharded.fsdp.FullyShardedDataParallel` to gather lazily.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.checkpoint.reshard import reshard_state_dict
from repro.comm.distributed import get_context
from repro.sharded.flat import FlatShardLayout
from repro.sharded.memory import optimizer_state_arrays, storage_bytes


def _resolve_group(process_group):
    if process_group is not None:
        return process_group
    ctx = get_context()
    if ctx.default_group is None:
        raise RuntimeError(
            "no default process group; call init_process_group() first or "
            "pass process_group="
        )
    return ctx.default_group


class ShardedOptimizer:
    """Wraps an inner optimizer so its state covers only this rank's spans.

    Parameters
    ----------
    params:
        The model's parameters, identically ordered on every rank.
    optimizer_factory:
        Called with the rank's shard tensors; returns the inner
        optimizer (e.g. ``lambda ps: Adam(ps, lr=1e-3)``).
    process_group:
        Group to gather over; defaults to the rank's default group.
    bucket_cap_mb:
        Bucket size knob forwarded to the shared layout (None keeps
        whole device/dtype runs in one bucket).
    layout:
        An existing :class:`FlatShardLayout` to share with a wrapper
        module, so optimizer spans match its collective spans exactly.
    gather_after_step:
        All-gather updated parameter spans inside :meth:`step` (ZeRO-1
        and ZeRO-2).  ZeRO-3 passes False and regathers lazily.

    Thread-safety: per-rank object; call from the owning rank's thread.
    """

    def __init__(
        self,
        params: Sequence,
        optimizer_factory: Callable,
        process_group=None,
        bucket_cap_mb: Optional[float] = None,
        layout: Optional[FlatShardLayout] = None,
        gather_after_step: bool = True,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("ShardedOptimizer got an empty parameter list")
        self.process_group = _resolve_group(process_group)
        self.world = int(self.process_group.size)
        self.rank = self.process_group.group_rank
        if layout is not None and layout.world != self.world:
            raise ValueError(
                f"layout was partitioned for world {layout.world} but the "
                f"process group has {self.world} ranks"
            )
        self.layout = layout or FlatShardLayout(
            self.params, self.world, bucket_cap_mb=bucket_cap_mb
        )
        self.gather_after_step = bool(gather_after_step)

        # One contiguous shard tensor per bucket (possibly 0 elements on
        # some ranks for tiny buckets); the inner optimizer sees exactly
        # these and nothing else.
        self.shards: List[Tensor] = []
        for bucket in range(self.layout.num_buckets):
            lo, hi = self.layout.span(bucket, self.rank)
            data = np.zeros(hi - lo, dtype=self.layout.bucket_dtype(bucket))
            self.shards.append(Tensor(data, requires_grad=False))
        self.refresh_shards_from_params()
        self.inner = optimizer_factory(self.shards)

    # -- shard <-> parameter data movement ------------------------------
    def refresh_shards_from_params(self) -> None:
        """Recopy this rank's parameter spans into the shard tensors.

        Call after any out-of-band parameter mutation (constructor
        broadcast, checkpoint load) so the next step updates current
        values.
        """
        for bucket, shard in enumerate(self.shards):
            for index, p_slice, s_slice in self.layout.shard_overlaps(
                bucket, self.rank
            ):
                shard.data[s_slice] = self.params[index].data.reshape(-1)[p_slice]

    def set_grads_from_params(self) -> None:
        """ZeRO-1 gradient path: slice full per-parameter gradients.

        Copies each parameter's (already averaged) gradient span onto
        the shard tensors.  Parameters with no gradient contribute
        zeros — with ``weight_decay > 0`` that differs from the inner
        optimizer's skip-if-None behavior, matching what a flattened
        gradient buffer implies.
        """
        for bucket, shard in enumerate(self.shards):
            grad = np.zeros_like(shard.data)
            for index, p_slice, s_slice in self.layout.shard_overlaps(
                bucket, self.rank
            ):
                param_grad = self.params[index].grad
                if param_grad is not None:
                    grad[s_slice] = param_grad.data.reshape(-1)[p_slice]
            shard.grad = Tensor(grad)

    def set_shard_grad(self, bucket: int, grad: np.ndarray) -> None:
        """ZeRO-2/3 gradient path: install a reduce-scattered span.

        ``grad`` must be exactly this rank's span of ``bucket`` (what
        ``reduce_scatter_flat`` returned), already averaged.
        """
        shard = self.shards[bucket]
        flat = np.asarray(grad).reshape(-1)
        if flat.size != shard.data.size:
            raise ValueError(
                f"bucket {bucket} shard grad has {flat.size} elements, "
                f"expected {shard.data.size}"
            )
        shard.grad = Tensor(flat.astype(shard.data.dtype, copy=False))

    def gather_params(self) -> None:
        """All-gather every bucket's updated spans into the parameters.

        Launches one async ``all_gather_flat`` per bucket so transfers
        pipeline, then waits in order and scatters each flat back into
        its parameters.
        """
        flats: List[np.ndarray] = []
        works: List = []
        for bucket, shard in enumerate(self.shards):
            flat = self.layout.empty_flat(bucket)
            work = self.process_group.all_gather_flat(
                flat, shard=shard.data, async_op=True
            )
            flats.append(flat)
            works.append(work)
        for bucket, work in enumerate(works):
            work.wait()
            self.layout.scatter_into_params(bucket, flats[bucket])

    # -- optimizer protocol ---------------------------------------------
    def step(self, gather: Optional[bool] = None) -> None:
        """Run the inner optimizer on the shards, then (by default for
        ZeRO-1/2) all-gather the updated parameter spans."""
        self.inner.step()
        do_gather = self.gather_after_step if gather is None else gather
        if do_gather:
            self.gather_params()

    def zero_grad(self) -> None:
        """Clear both shard gradients and the real parameters' gradients."""
        self.inner.zero_grad()
        for param in self.params:
            param.grad = None

    def shard_numel(self) -> int:
        """Parameter elements whose optimizer state lives on this rank."""
        return self.layout.shard_numel(self.rank)

    def state_bytes(self) -> int:
        """Measured bytes of ndarray state held by the inner optimizer."""
        return storage_bytes(optimizer_state_arrays(self.inner))

    # -- consolidated (positional, full-model) state --------------------
    def consolidated_state_dict(self) -> Dict:
        """Assemble a full, positionally-keyed optimizer state dict.

        **Collective**: every rank must call this; array state is
        all-gathered per bucket (in bucket order, keys sorted) and
        re-sliced per parameter, so the result matches what the inner
        optimizer's :meth:`~repro.optim.optimizer.Optimizer.state_dict`
        would contain had training been replicated.  Scalar state (e.g.
        Adam's ``step``) is identical on every rank and taken locally.
        Every rank returns the full dict.
        """
        per_param: Dict[int, Dict] = {}
        for bucket, shard in enumerate(self.shards):
            state = self.inner.state.get(id(shard))
            if not state:
                continue
            for key in sorted(state):
                value = state[key]
                if isinstance(value, np.ndarray) and value.ndim > 0:
                    flat = np.empty(
                        self.layout.buckets[bucket].total_elements,
                        dtype=value.dtype,
                    )
                    self.process_group.all_gather_flat(flat, shard=value)
                    for index, offset, size in self.layout.bucket_entries(bucket):
                        per_param.setdefault(index, {})[key] = (
                            flat[offset : offset + size]
                            .reshape(self.params[index].data.shape)
                            .copy()
                        )
                else:
                    for index, _, _ in self.layout.bucket_entries(bucket):
                        per_param.setdefault(index, {})[key] = value
        return {"state": per_param, "num_params": len(self.params)}

    def load_consolidated_state_dict(self, state_dict: Dict) -> None:
        """Install this rank's spans of a consolidated state dict.

        Purely local (every rank holds the full dict after loading a
        checkpoint): :func:`~repro.checkpoint.reshard.reshard_state_dict`
        reassembles array state into each bucket's flat order — against
        *this* layout and world, whatever world wrote the dict — and the
        rank's spans are copied onto the shard tensors' state.
        """
        resharded = reshard_state_dict(state_dict, self.layout, self.rank)
        self.inner.state.clear()
        for shard, shard_state in zip(self.shards, resharded):
            if shard_state:
                self.inner.state[id(shard)] = shard_state

    def __repr__(self) -> str:
        return (
            f"ShardedOptimizer(world={self.world}, rank={self.rank}, "
            f"buckets={self.layout.num_buckets}, "
            f"shard_numel={self.shard_numel()})"
        )
