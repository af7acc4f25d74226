"""The gradient-reduction core (the ``reducer.cpp`` analog; paper §4.2).

Responsibilities, mirroring the paper's four components:

1. **Parameter-to-bucket mapping** — flat per-bucket buffers allocated
   on the same logical device as their parameters.
2. **Autograd hooks** — one post-hook per parameter's gradient
   accumulator.  By default (``gradient_as_bucket_view=True``) each
   parameter's ``.grad`` is a numpy *view* of its bucket slot: the op
   that produces a parameter's gradient writes it straight into that
   view (the engine offers it; ``zero_copy_hits``), or, where it cannot
   (a weight shared by two consumers, an op without destinations), the
   accumulator copies it in once.  Either way the hook only decrements
   the bucket's pending count and no hook-time gather follows.  With
   views disabled, the hook gathers the accumulated gradient into its
   slot (the seed data path, kept as a measurable baseline).
   ``grad_copy_count`` counts every gradient that reached bucket memory
   by a copy.  The hook that drops a count to zero marks the bucket
   ready.
3. **Bucket AllReduce** — ready buckets launch *asynchronously* and
   strictly **in bucket-index order** on every rank; bucket ``i+1``
   never launches before bucket ``i`` (Fig. 3(a) caveat).  The
   collective is an ``AVG`` AllReduce, so the mean is taken inside it.
   The hook that readies the final bucket blocks until every AllReduce
   finishes and writes gradients back (Algorithm 1, lines 17–21).
4. **Globally unused parameters** — a local bitmap records which
   parameters produced gradients; one extra AllReduce merges bitmaps so
   that parameters unused on *every* rank keep their gradients intact
   (the optimizer-regression caveat of §3.2.3).  The bitmap is kept on
   CPU and staged through a device-resident copy for backends that
   reject CPU tensors (§4.2).
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.autograd.engine import AccumulateGrad
from repro.autograd.graph import collect_participating_accumulators
from repro.autograd.tensor import Tensor
from repro.comm.process_group import ReduceOp
from repro.core.bucket import BucketSpec, copy_params_into, validate_assignment
from repro.core.comm_hooks import reset_hook
from repro.debug.flight_recorder import collective_context
from repro.debug.levels import DEBUG
from repro.telemetry.metrics import registry_for
from repro.telemetry.recorder import IterationRecorder
from repro.telemetry.spans import TRACER
from repro.utils.logging import logger


class ReducerError(RuntimeError):
    """Raised on inconsistent reducer state (e.g. unfinished reduction)."""


class _Bucket:
    """Runtime state for one bucket: flat buffer plus readiness counters."""

    def __init__(self, spec: BucketSpec, dtype: np.dtype):
        self.spec = spec
        self.flat = np.zeros(spec.total_elements, dtype=dtype)
        # The tensor wrapper carries the device tag that backends like
        # NCCL check; it shares storage with ``flat``.
        self.tensor = Tensor(self.flat, device=spec.device)
        # View mode only: the bucket's parameters, laid out like ``flat``.
        self.param_flat: Optional[np.ndarray] = None
        self.pending = len(spec.param_indices)
        self.ready = False
        self.launched = False
        self.work = None
        #: Labels every collective a launch issues with this bucket: the
        #: record carries it to the flight ring ("allreduce#12 [bucket
        #: 3]" in a desync report), the causal timeline and the profiler.
        self.context = collective_context(f"bucket {spec.index}", spec.index)

    def reset(self) -> None:
        self.pending = len(self.spec.param_indices)
        self.ready = False
        self.launched = False
        self.work = None


# Type of an optional communication hook: receives (process_group,
# flat_bucket_tensor, world_size) and must leave the *averaged* gradient
# in the bucket when the returned work completes.  See ``comm_hooks``.
CommHook = Callable[[object, Tensor, int], object]


class Reducer:
    """Per-rank gradient reduction engine.

    Parameters
    ----------
    params:
        The model's parameters in ``model.parameters()`` order (all of
        them, trainable, shared across iterations).
    bucket_specs:
        Deterministic assignment from :func:`compute_bucket_assignment`;
        must be identical on every rank.
    process_group:
        Any object with ``allreduce(tensor, op, async_op)`` and ``size``.
    find_unused_parameters:
        Enables the forward-graph traversal and the bitmap AllReduce.
    overlap:
        When False, ready buckets are *not* launched eagerly from hooks;
        all communication happens after the last gradient, reproducing
        the "no overlap" baselines of Fig. 6.
    comm_hook:
        Optional gradient-compression hook (paper §6.2.3).
    gradient_as_bucket_view:
        When True (default), install each parameter's gradient as a
        view of its bucket slot; each gradient is then written straight
        into bucket memory (by its op, or by the accumulator's one
        copy), the hook gathers nothing and finalize needs no
        write-back copy either.
        Views are adopted lazily (a
        parameter that never produces a gradient keeps ``grad is
        None``).  False reproduces the seed copy-in/copy-out path.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        bucket_specs: Sequence[BucketSpec],
        process_group,
        find_unused_parameters: bool = False,
        overlap: bool = True,
        comm_hook: Optional[CommHook] = None,
        order_tracer=None,
        param_names: Optional[Sequence[str]] = None,
        gradient_as_bucket_view: bool = True,
    ):
        self.params: List[Tensor] = list(params)
        # Human-readable names (``module.named_parameters()`` order) so
        # error paths can say *which* parameter never produced a
        # gradient, not just its index.
        self.param_names: List[str] = (
            list(param_names)
            if param_names is not None
            else [f"param{i}" for i in range(len(self.params))]
        )
        validate_assignment(bucket_specs, len(self.params))
        self.process_group = process_group
        self.world_size = process_group.size
        self.find_unused_parameters = find_unused_parameters
        self.overlap = overlap
        self.comm_hook = comm_hook
        self.gradient_as_bucket_view = gradient_as_bucket_view
        # Optional BackwardOrderTracer recording real gradient-ready
        # order for rebucketing (paper §6.2.1).
        self.order_tracer = order_tracer

        # Introspection counters used by tests and benchmarks.
        #: Bucket buffers allocated over this reducer's lifetime; stays
        #: flat in steady state (the zero-layout-work acceptance check).
        self.layout_allocations = 0
        #: Gradients that reached bucket memory by a copy: the
        #: accumulator's copy (or ``+=``) into a view, or the hook's
        #: gather in copy mode.
        self.grad_copy_count = 0
        #: Gradients the op that produced them wrote straight into their
        #: bucket view (:attr:`Function.grad_destinations`): no copy.
        self.zero_copy_hits = 0
        #: rebuild_buckets calls that were no-ops (identical layout).
        self.noop_rebuild_count = 0

        self._install_layout(bucket_specs)

        self._accumulator_to_index = {}
        self._hook_handles = []
        for index, param in enumerate(self.params):
            acc = param.accumulator()
            self._accumulator_to_index[id(acc)] = index
            handle = acc.register_post_hook(self._autograd_hook)
            self._hook_handles.append(handle)

        # Persistent across no_sync iterations (paper §3.2.4): cleared
        # only when a bitmap AllReduce consumes it.
        self._local_used = np.zeros(len(self.params), dtype=np.int32)
        # Which parameters were marked ready this iteration — the error
        # path's evidence for naming unready parameters.
        self._grad_ready = np.zeros(len(self.params), dtype=bool)

        self._expect_hooks = False
        self._next_bucket = 0
        self._buckets_finished = 0
        self._finalized = True
        self._lock = threading.Lock()

        self.iterations_synced = 0
        self.rebuilt_bucket_count = 0
        # The one record per iteration: always-on coarse phase stamps,
        # served as ``recorder.last`` (the paper's Fig. 6 breakdown of a
        # real run); the rank's ring retains it for the trace and the
        # iteration series (see repro.telemetry.recorder).
        self.recorder = IterationRecorder(
            rank=getattr(process_group, "global_rank", None)
        )
        # Parameters marked ready-as-unused in the last prepared backward.
        self.last_unused_parameter_count = 0

    # ------------------------------------------------------------------
    # layout installation
    # ------------------------------------------------------------------
    def _install_layout(self, bucket_specs: Sequence[BucketSpec]) -> None:
        """Allocate bucket buffers and (optionally) gradient views.

        In view mode every parameter gets a Tensor whose ``.data`` is a
        reshaped slice of its bucket's flat buffer; the view is handed
        to the parameter's gradient accumulator for lazy adoption, and
        any live gradient value is migrated into the new storage so a
        rebuild never loses accumulated gradients (no_sync, §3.2.4).

        The parameters themselves move too: each bucket gets a second
        flat laid out exactly like the gradient flat, the current values
        are copied in (bitwise), and every ``param.data`` becomes a view
        of it.  A bucket's parameters and gradients are then two arrays,
        which is what lets an optimizer step the bucket as one
        (:mod:`repro.optim.optimizer`).
        """
        self._bucket_specs = list(bucket_specs)
        self.buckets = [
            _Bucket(spec, self.params[spec.param_indices[0]].dtype if spec.param_indices else np.float64)
            for spec in bucket_specs
        ]
        self.layout_allocations += len(self.buckets)
        # param index -> (bucket position, slot position)
        self._locator = {}
        for position, bucket in enumerate(self.buckets):
            for slot, param_index in enumerate(bucket.spec.param_indices):
                self._locator[param_index] = (position, slot)
        # Per-parameter gradient views into bucket storage (None when
        # views are disabled).  Stash for unused-parameter slot contents
        # that must survive the zero-fill + AllReduce round trip.
        self._grad_views: List[Optional[Tensor]] = [None] * len(self.params)
        self._unused_stash: Dict[int, np.ndarray] = {}
        if not self.gradient_as_bucket_view:
            return
        for bucket in self.buckets:
            spec = bucket.spec
            bucket.param_flat = np.empty_like(bucket.flat)
            copy_params_into(spec, self.params, bucket.param_flat)
            for slot, param_index in enumerate(spec.param_indices):
                param = self.params[param_index]
                offset = spec.offsets[slot]
                size = spec.sizes[slot]
                param.data = bucket.param_flat[offset : offset + size].reshape(
                    param.shape
                )
                window = bucket.flat[offset : offset + size]
                view = Tensor(
                    window.reshape(param.shape),
                    device=getattr(param, "device", spec.device),
                )
                self._grad_views[param_index] = view
                if param.grad is not None and param.grad is not view:
                    # Migrate the live gradient into the new storage.
                    view.data[...] = param.grad.data
                    param.grad = view
                param.accumulator().set_grad_view(view)

    # ------------------------------------------------------------------
    # iteration lifecycle
    # ------------------------------------------------------------------
    def prepare_for_backward(self, outputs: Sequence[Tensor]) -> None:
        """Arm the reducer for the next backward pass (Algorithm 1 line 10).

        With ``find_unused_parameters`` the autograd graph is traversed
        from ``outputs`` and parameters outside it are marked ready
        immediately, contributing zeros, so their absence cannot hang
        the bucket (Fig. 3(b)).
        """
        if not self._finalized:
            raise ReducerError(
                "Expected to have finished gradient reduction in the prior "
                "iteration before starting a new one. This usually means some "
                "parameters did not receive gradients during backward. Enable "
                "find_unused_parameters=True if your model's graph changes "
                "between iterations." + self._unready_parameter_report()
            )
        for bucket in self.buckets:
            bucket.reset()
        self._grad_ready[...] = False
        self._next_bucket = 0
        self._buckets_finished = 0
        self._finalized = False
        self._expect_hooks = True
        self.last_unused_parameter_count = 0
        self.recorder.start_iteration(self.iterations_synced)

        if self.find_unused_parameters:
            participating = collect_participating_accumulators(outputs)
            participating_ids = {id(acc) for acc in participating}
            for index, param in enumerate(self.params):
                if id(param.accumulator()) not in participating_ids:
                    self._mark_ready(index, unused=True)

    def _autograd_hook(self, accumulator: AccumulateGrad) -> None:
        """Fired by the engine after a parameter's gradient is written."""
        index = self._accumulator_to_index.get(id(accumulator))
        if index is None:  # a hook left over from a dropped parameter set
            return
        # Participation is recorded even in no_sync iterations; the next
        # bitmap AllReduce consumes the accumulated record (§3.2.4).
        self._local_used[index] = 1
        if not self._expect_hooks:
            return
        if self.order_tracer is not None:
            self.order_tracer.record(index)
        if self.recorder.t_first_grad is None:
            self.recorder.mark_first_grad()
        if TRACER.enabled:
            registry_for(self.recorder.rank).counter("hook.fire_count").add(1)
        self._mark_ready(index, unused=False, in_place=accumulator.in_place)

    def unready_parameters(self) -> List[dict]:
        """Parameters still missing from the current (unfinalized)
        reduction: ``[{"index", "name", "shape"}, ...]``."""
        if self._finalized:
            return []
        return [
            {
                "index": index,
                "name": self.param_names[index],
                "shape": tuple(self.params[index].shape),
            }
            for index in range(len(self.params))
            if not self._grad_ready[index]
        ]

    def _unready_parameter_report(self) -> str:
        """Name the unready parameters — locally always, per-rank when
        ``REPRO_DEBUG`` is on and peers published their own sets."""
        unready = self.unready_parameters()
        if not unready:
            return ""
        shown = ", ".join(
            f"{entry['name']} (index {entry['index']}, shape {entry['shape']})"
            for entry in unready[:10]
        )
        if len(unready) > 10:
            shown += f", ... and {len(unready) - 10} more"
        report = (
            f" Unready parameter(s) on this rank: [{shown}] out of "
            f"{len(self.params)}."
        )
        store = getattr(self.process_group, "store", None)
        if DEBUG.level and store is not None:
            group_id = getattr(self.process_group, "_group_id", 0)
            rank = getattr(self.process_group, "global_rank", self.recorder.rank)
            store.set(
                f"reducer_unready/{group_id}/rank{rank}",
                [entry["name"] for entry in unready],
            )
            peer_lines = []
            for peer in getattr(self.process_group, "ranks", ()):
                if peer == rank:
                    continue
                names = store.try_get(f"reducer_unready/{group_id}/rank{peer}")
                if names is not None:
                    peer_lines.append(f"rank {peer}: {names}")
            if peer_lines:
                report += " Peer ranks reported: " + "; ".join(peer_lines) + "."
        return report

    def _mark_ready(self, param_index: int, unused: bool, in_place: bool = False) -> None:
        self._grad_ready[param_index] = True
        position, slot = self._locator[param_index]
        bucket = self.buckets[position]
        spec = bucket.spec
        offset = spec.offsets[slot]
        size = spec.sizes[slot]
        param = self.params[param_index]
        view = self._grad_views[param_index]
        if unused:
            # Unused parameters contribute zeros to the reduced sum.  If
            # the parameter's gradient aliases the slot (an accumulated
            # value from earlier iterations lives there), stash it so
            # finalize can restore it when the parameter turns out to be
            # globally unused ("gradients stay intact", §3.2.3).
            if view is not None and param.grad is view:
                self._unused_stash[param_index] = bucket.flat[
                    offset : offset + size
                ].copy()
            bucket.flat[offset : offset + size] = 0.0
            self.last_unused_parameter_count += 1
        else:
            if param.grad is None:
                raise ReducerError(
                    f"hook fired for parameter {param_index} but .grad is None"
                )
            if view is None or param.grad is not view:
                bucket.flat[offset : offset + size] = param.grad.data.reshape(-1)
            # Else no gather: the gradient already lives in bucket memory,
            # written there by its op or copied in by the accumulator.
            if in_place:
                self.zero_copy_hits += 1
            else:
                self.grad_copy_count += 1
        if bucket.pending <= 0:
            raise ReducerError(
                f"bucket {spec.index} over-counted ready parameters; a "
                f"parameter was marked ready twice in one iteration"
            )
        bucket.pending -= 1
        if bucket.pending == 0:
            bucket.ready = True
            self.recorder.bucket_ready(spec.index)
            if self.overlap:
                self._launch_ready_buckets_in_order()
            self._buckets_finished += 1
            if self._buckets_finished == len(self.buckets):
                if not self.overlap:
                    self._launch_ready_buckets_in_order()
                self._finalize_backward()

    def _launch_ready_buckets_in_order(self) -> None:
        """Launch AllReduce on every ready bucket at the order frontier.

        Buckets may become ready out of order; communication still obeys
        bucket-index order so contents match across ranks (Fig. 3(a)).
        """
        while self._next_bucket < len(self.buckets):
            bucket = self.buckets[self._next_bucket]
            if not bucket.ready:
                return
            self._launch(bucket)
            self._next_bucket += 1

    def _launch(self, bucket: _Bucket) -> None:
        if bucket.launched:
            return
        bucket.launched = True
        self.recorder.bucket_launched(bucket.spec.index, bucket.flat.nbytes)
        if TRACER.enabled:
            registry_for(self.recorder.rank).counter("bucket.launches").add(1)
        logger.debug(
            "launch allreduce bucket %d (%d elements)",
            bucket.spec.index,
            bucket.spec.total_elements,
        )
        with bucket.context:
            if self.comm_hook is not None:
                bucket.work = self.comm_hook(
                    self.process_group, bucket.tensor, self.world_size
                )
            else:
                bucket.work = self.process_group.allreduce(
                    bucket.tensor, ReduceOp.AVG, async_op=True
                )

    def _finalize_backward(self) -> None:
        """Wait for communication and write the averaged gradients back.

        Runs inside the autograd hook that readied the final bucket
        (Algorithm 1 line 21) — the engine thread blocks here while the
        process-group worker drains the queued AllReduces, and completes
        the split-phase (small) ones itself.
        """
        self.recorder.mark_all_grads()
        globally_used = None
        if self.find_unused_parameters:
            globally_used = self._allreduce_used_bitmap()

        for bucket in self.buckets:
            if bucket.work is not None:
                bucket.work.wait()
            for slot, param_index in enumerate(bucket.spec.param_indices):
                param = self.params[param_index]
                view = self._grad_views[param_index]
                aliased = view is not None and param.grad is view
                offset = bucket.spec.offsets[slot]
                size = bucket.spec.sizes[slot]
                if globally_used is not None and not globally_used[param_index]:
                    # Globally unused gradients must stay intact (§3.2.3):
                    # a grad aliasing the (zeroed + reduced) slot gets its
                    # stashed value back; detached grads were never touched.
                    if aliased and param_index in self._unused_stash:
                        bucket.flat[offset : offset + size] = self._unused_stash[
                            param_index
                        ]
                    continue
                if aliased:
                    # Zero-copy: the averaged result is already visible
                    # through the view; nothing to write back.
                    continue
                value = bucket.flat[offset : offset + size].reshape(param.shape)
                if param.grad is None:
                    if view is not None:
                        # Adopt the view — the value already lives there.
                        param.grad = view
                    else:
                        param.grad = Tensor(value.copy())
                else:
                    param.grad.data[...] = value
        self._unused_stash.clear()
        self._expect_hooks = False
        self._finalized = True
        self.iterations_synced += 1
        if self.order_tracer is not None:
            # Close partial traces (some parameters may not have fired).
            self.order_tracer.end_iteration()
        self.recorder.finish(
            [(bucket.spec.index, bucket.work) for bucket in self.buckets]
        )
        if logger.isEnabledFor(logging.DEBUG):
            profile = self.recorder.last
            logger.debug(
                "iteration %d finalized: exposed comm wait %.3f ms",
                self.iterations_synced,
                (profile.exposed_comm_s + profile.finalize_other_s) * 1e3,
            )

    def _allreduce_used_bitmap(self) -> np.ndarray:
        """Merge per-rank usage bitmaps; returns the global bitmap.

        The CPU bitmap is staged through a tensor tagged with the first
        parameter's device when the backend rejects CPU tensors — the
        paper's ProcessGroupNCCL workaround (§4.2).
        """
        bitmap = self._local_used.astype(np.int32, copy=True)
        if getattr(self.process_group, "supports_cpu_tensors", True):
            staging = Tensor(bitmap, device="cpu")
        else:
            device = getattr(self.params[0], "device", "cpu")
            staging = Tensor(bitmap, device=device)
        with collective_context("unused-param bitmap"):
            work = self.process_group.allreduce(staging, ReduceOp.SUM, async_op=True)
        work.wait()
        # The communication consumed the accumulated local record.
        self._local_used[...] = 0
        return staging.data > 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def set_comm_hook(self, hook: Optional[CommHook]) -> None:
        """Install or clear a gradient-compression hook (§6.2.3)."""
        self.comm_hook = hook

    def rebuild_buckets(self, bucket_specs: Sequence[BucketSpec]) -> None:
        """Swap in a new bucket layout (order-prediction support, §6.2.1).

        Rebuilding with a layout identical to the current one is a no-op
        (no reallocation, no view churn) — the steady state of PyTorch's
        ``Reducer._rebuild_buckets``, which fires at most once per
        training run unless the graph actually changes.  A new layout
        resets the comm hook: its per-bucket state (error-feedback
        residuals, warm-started factors) belongs to the old buffers.
        """
        if not self._finalized:
            raise ReducerError("cannot rebuild buckets mid-iteration")
        validate_assignment(bucket_specs, len(self.params))
        self.rebuilt_bucket_count += 1
        if list(bucket_specs) == self._bucket_specs:
            # Identical layout: keep the live buffers and views.
            self.noop_rebuild_count += 1
            return
        self._install_layout(bucket_specs)
        reset_hook(self.comm_hook)
        if TRACER.enabled:
            registry_for(self.recorder.rank).counter("reducer.rebuilds").add(1)

    def detach_hooks(self) -> None:
        """Remove all autograd hooks and gradient views (DDP teardown).

        Parameters and gradients that currently alias bucket memory are
        detached into private copies so the module remains usable (and
        its gradients mutable) after the reducer — and its buffers — are
        dropped.
        """
        for handle in self._hook_handles:
            handle()
        self._hook_handles.clear()
        for index, param in enumerate(self.params):
            view = self._grad_views[index]
            if view is None:
                continue
            position, _ = self._locator[index]
            if param.data.base is self.buckets[position].param_flat:
                param.data = param.data.copy()
            if param.grad is view:
                param.grad = Tensor(view.data.copy(), device=view.device)
            param.accumulator().set_grad_view(None)
        self._grad_views = [None] * len(self.params)

    @property
    def finalized(self) -> bool:
        return self._finalized
