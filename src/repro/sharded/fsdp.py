"""``FullyShardedDataParallel``: parameter sharding (ZeRO-3).

Parameters themselves live sharded: each rank permanently stores only
its flat span of every *unit* — a block of the model chosen by
:func:`~repro.sharded.flat.select_units` (on a transformer: each
embedding, each transformer block, the head), one layout bucket per
unit.  The full parameter arrays exist only while a unit is
*materialized*:

* **forward** — ``forward()`` issues every unit's ``all_gather_flat``
  asynchronously, in unit order, so the gathers pipeline behind the
  compute of the units before them; each unit module's ``forward`` is
  wrapped (one instance-attribute override per unit, so
  ``Module.__call__`` picks it up) to wait, when it is entered, for its
  own unit's gather only, after which the unit's parameters are
  zero-copy views into the gathered flat.  So a unit's parameters must
  be read inside its module's ``forward`` — by its children's modules or
  directly, as a fused op does; a forward that reads them from outside
  (a block's leaf called by its parent) is refused with a
  ``RuntimeError`` before backward.  Nothing is resharded after forward,
  so every flat is resident by the end of it whatever the schedule —
  which is why there is no prefetch-depth knob;
* **backward** — DDP's :class:`~repro.core.reducer.Reducer`, its
  launch frontier walking the units in reverse order: gradients land
  directly in the unit's gradient flat, and when the unit's last one
  does (the engine's dependency counting guarantees gradients are final)
  the flat is reduce-scattered asynchronously and the unit's full
  parameters are freed on the spot — each parameter's ``data`` becomes
  a zero-stride broadcast stub (shape/dtype preserved, one element of
  backing storage).  Backward therefore never holds more than the full
  parameters plus one unit.  With ``find_unused_parameters=True`` a unit
  outside the forward's graph reduce-scatters zeros and is freed too;
* **step** — the inner optimizer updates the shard tensors in place; no
  gather happens (``gather_after_step=False``): the next forward
  re-materializes each unit from its updated shard.

Limitations (checked or documented): a parameter registered under two
modules (weight tying) raises ``NotImplementedError``; parameters must
not be mutated outside :meth:`FullyShardedDataParallel.summon_full_params`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional

import numpy as np

from repro.autograd.graph import collect_participating_accumulators
from repro.nn.module import Module
from repro.sharded.flat import select_units, unit_bucket_specs
from repro.sharded.memory import StorageCache, optimizer_state_arrays, storage_bytes
from repro.sharded.wrapper import ShardedWrapper


def _stub(shape, dtype) -> np.ndarray:
    """A freed parameter's placeholder: right shape/dtype, ~0 bytes.

    Zero-stride broadcast of a single zero — reads see zeros, writes
    raise, and the memory meter counts only the scalar base.
    """
    return np.broadcast_to(np.zeros(1, dtype=dtype), shape)


class FullyShardedDataParallel(ShardedWrapper):
    """ZeRO-3 wrapper: parameters, gradients, and optimizer state all
    sharded; full per-unit parameters exist only forward-through-backward.

    Parameters
    ----------
    module:
        The local model.  :func:`~repro.sharded.flat.select_units` picks
        the gather/free units (``ddp_stats()["units"]`` names them);
        wrap the model itself rather than a module around it.
    optimizer_factory:
        Builds the inner optimizer over this rank's shard tensors.
    process_group:
        Group for the collectives; defaults to the rank's default group.
    find_unused_parameters:
        As for DDP: parameters outside the forward's graph contribute
        zero gradients, at one bitmap AllReduce per iteration.

    Thread-safety: per-rank object; drive it from the rank's thread.
    """

    # Backward reaches the last-registered unit first.
    _descending = True

    def __init__(
        self,
        module: Module,
        optimizer_factory: Callable,
        process_group=None,
        find_unused_parameters: bool = False,
    ):
        # parameters() yields a tied parameter once; the tie shows only
        # as a second registration.
        seen = set()
        for name, param in module._registered_parameters():
            if id(param) in seen:
                raise NotImplementedError(
                    "FullyShardedDataParallel does not support shared "
                    f"(tied) parameters: {name!r} is registered more than once"
                )
            seen.add(id(param))
        params = list(module.parameters())
        index_of = {id(param): i for i, param in enumerate(params)}
        units = select_units(module)
        # The optimizer's shard tensors ARE the authoritative parameter
        # storage between materializations (gather_after_step=False: the
        # next forward regathers from the updated shards).
        super().__init__(
            module, optimizer_factory, process_group, stage="zero3",
            gather_after_step=False, find_unused_parameters=find_unused_parameters,
            specs=unit_bucket_specs(
                [[index_of[id(p)] for p in unit_params] for _, unit_params in units],
                params,
            ),
        )
        self._unit_names = [name for name, _ in units]
        self.num_units = len(units)
        self._unit_flats: List[Optional[np.ndarray]] = [None] * self.num_units
        self._gathers: List[Optional[object]] = [None] * self.num_units
        self._stubs = [_stub(p.data.shape, p.data.dtype) for p in self._params]
        # What the meter need not re-walk: buffers and shard storage never
        # change size, and a freed unit is one stub element per parameter.
        self._fixed_bytes = storage_bytes(
            [getattr(b, "data", None) for b in module.buffers()]
            + [shard.data for shard in self.optimizer.shards]
        )
        self._stub_bytes = [
            sum(self._stubs[i].itemsize for i in spec.param_indices)
            for spec in self.layout.buckets
        ]
        # Optimizer state and shard gradients are replaced, not resized.
        self._state_bytes = StorageCache()

        for unit, name in enumerate(self._unit_names):
            sub = module
            for part in name.split(".") if name else ():
                sub = sub._modules[part]
            self._wrap_forward(sub, unit)
        # Shards were initialized from the broadcast values; now drop the
        # full parameters — from here on they exist only materialized.
        for unit in range(self.num_units):
            self._free_unit(unit, count=False)

    # -- unit materialization -------------------------------------------
    def _wrap_forward(self, sub: Module, unit: int) -> None:
        original = sub.forward

        def wrapped(*inputs, **kwargs):
            self._materialize(unit)
            return original(*inputs, **kwargs)

        # Instance attribute wins over the class method in
        # Module.__call__'s ``self.forward`` lookup.
        sub.forward = wrapped

    def _issue_gather(self, unit: int) -> None:
        """Start the unit's all-gather into a fresh flat unless one is
        resident or in flight already — the one place gathers are issued."""
        if self._unit_flats[unit] is not None:
            return
        flat = self.layout.empty_flat(unit)
        self._unit_flats[unit] = flat
        self._gathers[unit] = self.process_group.all_gather_flat(
            flat, shard=self.optimizer.shards[unit].data, async_op=True
        )
        self.stats.gather_count += 1
        self.stats.all_gather_bytes += flat.nbytes

    def _materialize(self, unit: int) -> None:
        """First use of a unit: wait for its gather (issuing it now if
        nobody has) and make its parameters zero-copy views into the
        gathered flat.  Idempotent."""
        self._issue_gather(unit)
        work = self._gathers[unit]
        if work is None:
            return
        work.wait()
        self._gathers[unit] = None
        flat = self._unit_flats[unit]
        for index, offset, size in self.layout.bucket_entries(unit):
            param = self._params[index]
            param.data = flat[offset : offset + size].reshape(param.data.shape)
        self.stats.observe(self.live_bytes())

    def _free_unit(self, unit: int, count: bool = True) -> None:
        work = self._gathers[unit]
        if work is not None:  # a unit whose forward never ran
            work.wait()
            self._gathers[unit] = None
        for index, _, _ in self.layout.bucket_entries(unit):
            param = self._params[index]
            param.data = self._stubs[index]
            param.grad = None
        self._unit_flats[unit] = None
        if count:
            self.stats.free_count += 1

    def bucket_launched(self, bucket: int) -> None:
        """The unit's reduce-scatter was issued, so its backward is over
        (its final gradients live on in the flat being reduced): drop the
        full parameters right now — the ZeRO-3 memory shape."""
        super().bucket_launched(bucket)
        self._free_unit(bucket)

    def _discard_iteration(self) -> None:
        super()._discard_iteration()
        for unit in range(self.num_units):
            self._free_unit(unit, count=False)

    # -- module protocol -------------------------------------------------
    def forward(self, *inputs, **kwargs):
        """Issue every unit's gather in unit order, then run the wrapped
        module; each unit waits for its own gather when it is entered.
        A unit never entered may only be absent from the output's graph."""
        for unit in range(self.num_units):
            self._issue_gather(unit)
        out = super().forward(*inputs, **kwargs)
        skipped = [unit for unit, work in enumerate(self._gathers) if work is not None]
        if skipped:
            self._refuse_reads_outside(out, skipped)
        return out

    def _refuse_reads_outside(self, out, skipped) -> None:
        """Raise if ``out`` depends on a unit whose forward did not run:
        its parameters were read as freed stubs (zeros), not gathered."""
        used = {id(acc) for acc in collect_participating_accumulators(out)}
        for unit in skipped:
            if any(id(self._params[index].accumulator()) in used
                   for index, _, _ in self.layout.bucket_entries(unit)):
                self._discard_iteration()
                raise RuntimeError(
                    f"FullyShardedDataParallel: unit {self._unit_names[unit]!r} was used "
                    "but its forward never ran; ZeRO-3 gathers a unit when its module's "
                    "forward is entered, so read its parameters inside that forward"
                )

    def state_dict(self):
        """Full (unsharded) state dict; gathers and re-frees each unit."""
        with self.summon_full_params(writeback=False):
            return self.module.state_dict()

    def load_state_dict(self, state) -> None:
        """Load a full state dict into the sharded storage."""
        with self.summon_full_params(writeback=True):
            self.module.load_state_dict(state)

    @contextlib.contextmanager
    def summon_full_params(self, writeback: bool = False):
        """Materialize every unit for the duration of the block.

        With ``writeback=True`` the (possibly mutated) full parameters
        are re-sliced into the rank's shard tensors on exit; either way
        the full arrays are freed again.  Collective: every rank must
        enter (the gathers synchronize), and with writeback each rank
        keeps only its own span — cross-rank consistency of the mutation
        is the caller's responsibility (checkpoint loads satisfy it).
        """
        for unit in range(self.num_units):
            self._issue_gather(unit)
        for unit in range(self.num_units):
            self._materialize(unit)
        try:
            yield self
        finally:
            if writeback:
                self.optimizer.refresh_shards_from_params()
            for unit in range(self.num_units):
                self._free_unit(unit)

    # -- training step ---------------------------------------------------
    def step(self) -> None:
        """Update the shards from the averaged spans the backward left
        on them.

        No parameter gather happens here — the next forward
        re-materializes each unit from its updated shard."""
        self._require_reduced()
        self.optimizer.step(gather=False)
        self.stats.iterations += 1
        self.stats.observe(self.live_bytes())

    # -- observability ---------------------------------------------------
    def live_bytes(self) -> int:
        """Measured bytes this rank currently holds: unit flats (resident
        or still being gathered), parameter stubs, gradient flats (open
        or being reduced), early gradients, shards, optimizer state and
        buffers — what a :func:`~repro.sharded.memory.storage_bytes` walk
        over all of them returns (tested at every sample), summed per
        unit instead of per parameter array."""
        arrays = list(optimizer_state_arrays(self.optimizer.inner))
        arrays.extend(
            shard.grad.data for shard in self.optimizer.shards if shard.grad is not None
        )
        total = self._fixed_bytes + self._state_bytes.storage_bytes(arrays)
        for unit, flat in enumerate(self._unit_flats):
            if flat is not None:
                total += flat.nbytes
            if flat is None or self._gathers[unit] is not None:
                total += self._stub_bytes[unit]
        total += sum(b.flat.nbytes for b in self.reducer.buckets if b.flat is not None)
        for param in self._params:
            grad = param.grad
            if grad is not None and grad.data.base is None:
                total += grad.data.nbytes  # arrived before its unit's flat opened
        return total

    def ddp_stats(self) -> dict:
        """The shared report plus ``"units"``: the module path of every
        gather/free unit, in order (``""`` = the root's own parameters)."""
        return {**super().ddp_stats(), "units": list(self._unit_names)}
