"""``DistributedDataParallel``: the user-facing module (paper §3.1, §4.1).

Non-intrusive: wrap the local model and keep the training loop
unchanged::

    net = nn.Linear(10, 10)
    net = DistributedDataParallel(net)         # the only changed line
    opt = optim.SGD(net.parameters(), lr=0.01)

    out = net(inp)                             # forward (interception)
    loss_fn(out, exp).backward()               # hooks reduce gradients
    opt.step()                                 # identical on every rank

Interceptive: the constructor inspects the model (broadcasts state,
installs hooks); ``forward`` wraps the local model's forward (buffer
broadcast, unused-parameter discovery); autograd hooks drive bucketed,
overlapped AllReduce during backward.
"""

from __future__ import annotations

import contextlib
from typing import Optional

from repro.autograd.tensor import Tensor
from repro.comm.distributed import get_context
from repro.core.bucket import (
    UNBOUNDED_CAP_BYTES,
    broadcast_params,
    cached_bucket_assignment,
    compute_bucket_assignment,
)
from repro.core.reducer import CommHook, Reducer
from repro.debug.flight_recorder import collective_context
from repro.debug.levels import DEBUG, DETAIL, INFO, debug_level_name
from repro.nn.module import Module
from repro.telemetry import spans as _spans
from repro.utils.units import MB


class DistributedDataParallel(Module):
    """Data parallel training wrapper, mathematically equivalent to
    local training (identical start state + identical averaged
    gradients each iteration ⇒ lockstep replicas; paper §3).

    Parameters
    ----------
    module:
        The local model.  All replicas must construct it with identical
        parameter values *or* rely on the constructor broadcast, which
        overwrites every rank with rank 0's state.
    process_group:
        Group to AllReduce over; defaults to the rank's default group.
    bucket_cap_mb:
        Bucket size knob (default 25 MB, the paper's default).  ``0``
        communicates each gradient individually (Fig. 7/8 baseline).
    find_unused_parameters:
        Traverse the autograd graph each forward to proactively mark
        absent parameters ready (required for models whose graph varies
        per iteration; costs one extra bitmap AllReduce).
    broadcast_buffers:
        Broadcast model buffers (e.g. BatchNorm running stats) from
        rank 0 before each synchronized forward (paper §4.1).
    overlap:
        Launch bucket AllReduce eagerly from hooks (True, the paper's
        design) or only after the full backward (False; the Fig. 6
        "no overlap" baseline).
    first_bucket_cap_mb:
        Optional smaller cap for the first bucket so communication can
        start earlier.
    gradient_as_bucket_view:
        When True (default), parameters' ``.grad`` tensors are views of
        the reducer's flat bucket buffers: the gradient accumulator
        copies each fresh gradient into communication memory once, and
        no hook-time gather or write-back copy follows.  Set False to
        get the seed copy-in/copy-out path (same numerics, two more
        copies per gradient).
    autotune:
        Attach a :class:`repro.autotune.Autotuner` that retunes
        ``bucket_cap_mb`` / ``chunk_bytes`` / the collective algorithm
        (and, opted in, the comm hook) live from
        measured iteration times.  Every rank must pass the same value
        — the tuner issues one tiny agreement collective per window.
        See ``docs/autotuning.md``.
    autotune_options:
        Keyword options forwarded to the :class:`~repro.autotune.Autotuner`
        constructor (``window_iters``, ``tune_comm_hook``, ``seed``, ...);
        must be identical on every rank.
    """

    def __init__(
        self,
        module: Module,
        process_group=None,
        bucket_cap_mb: float = 25.0,
        find_unused_parameters: bool = False,
        broadcast_buffers: bool = True,
        overlap: bool = True,
        comm_hook: Optional[CommHook] = None,
        first_bucket_cap_mb: Optional[float] = None,
        trace_backward_order: bool = False,
        rebucket_after_iterations: int = 5,
        gradient_as_bucket_view: bool = True,
        autotune: bool = False,
        autotune_options: Optional[dict] = None,
    ):
        super().__init__()
        self.module = module
        if process_group is None:
            ctx = get_context()
            if ctx.default_group is None:
                raise RuntimeError(
                    "no default process group; call init_process_group() first "
                    "or pass process_group="
                )
            process_group = ctx.default_group
        self.process_group = process_group
        self.broadcast_buffers = broadcast_buffers
        self.find_unused_parameters = find_unused_parameters
        self.bucket_cap_mb = bucket_cap_mb

        self._params = list(module.parameters())
        if not self._params:
            raise ValueError("DistributedDataParallel requires a model with parameters")
        self._param_names = [name for name, _ in module.named_parameters()]
        # Buffers travel as one flat broadcast per (device, dtype) run,
        # not one per tensor; the layout is built once, here.
        self._module_buffers = list(module.buffers())
        self._buffer_flat_specs = compute_bucket_assignment(
            self._module_buffers, UNBOUNDED_CAP_BYTES
        )

        # (0) REPRO_DEBUG=INFO: verify every replica wrapped the same
        # architecture *before* broadcasting, so a rank that built a
        # different model fails with a named parameter diff instead of a
        # shape error (or silent corruption) deep inside the broadcast.
        if DEBUG.level >= INFO:
            self._verify_replica_structure()

        # (1) Replicas must start from identical state: broadcast
        # parameters and buffers from rank 0 (Algorithm 1 lines 2-3).
        self._broadcast_module_state()

        # (0b) REPRO_DEBUG=DETAIL: after the broadcast every replica must
        # hold bit-identical parameter values; checksum and compare.
        if DEBUG.level >= DETAIL:
            self._verify_replica_values()

        # (2) Bucket assignment in reverse parameters() order.  The
        # layout is memoized process-wide: re-wrapping a model with the
        # same parameter signature and caps reuses the cached specs.
        bucket_specs = cached_bucket_assignment(
            self._params,
            bucket_cap_bytes=int(bucket_cap_mb * MB),
            first_bucket_cap_bytes=(
                int(first_bucket_cap_mb * MB) if first_bucket_cap_mb is not None else None
            ),
        )

        # (3) The reducer installs one autograd hook per parameter.
        tracer = None
        if trace_backward_order:
            from repro.core.order_prediction import BackwardOrderTracer

            tracer = BackwardOrderTracer(
                len(self._params), stable_iterations=min(3, rebucket_after_iterations)
            )
        self.reducer = Reducer(
            self._params,
            bucket_specs,
            process_group,
            find_unused_parameters=find_unused_parameters,
            overlap=overlap,
            comm_hook=comm_hook,
            order_tracer=tracer,
            param_names=self._param_names,
            gradient_as_bucket_view=gradient_as_bucket_view,
        )
        self._rebucket_after = rebucket_after_iterations
        self._rebucket_done = not trace_backward_order

        self._autotuner = None
        if autotune:
            from repro.autotune.service import Autotuner

            self._autotuner = Autotuner(self, **(autotune_options or {}))

        self._sync_enabled = True
        # Whether gradients were reduced in the previous backward, which
        # decides if buffers must be re-broadcast (paper §4.1).
        self._did_sync_last_backward = False

    # ------------------------------------------------------------------
    def _broadcast_module_state(self) -> None:
        with collective_context("ddp init broadcast"):
            param_flat_specs = compute_bucket_assignment(self._params, UNBOUNDED_CAP_BYTES)
            broadcast_params(param_flat_specs, self._params, self.process_group)
            self._broadcast_buffers_now()

    # ------------------------------------------------------------------
    # REPRO_DEBUG replica consistency checks (TORCH_DISTRIBUTED_DEBUG
    # analog): exchange model fingerprints through the rendezvous store
    # and diff against the group leader, naming the offending parameter.
    # ------------------------------------------------------------------
    def _debug_exchange(self, kind: str, payload):
        """Publish ``payload`` and return the group leader's copy, or
        ``None`` when the group has no store (e.g. test fakes)."""
        group = self.process_group
        store = getattr(group, "store", None)
        ranks = getattr(group, "ranks", None)
        if store is None or not ranks:
            return None
        gid = getattr(group, "_group_id", "pg")
        my_rank = group.global_rank
        # Per-rank construction counter aligns the nth DDP wrap on every
        # rank, so several models per run don't cross wires.
        nth = store.add(f"ddpchk/{gid}/{kind}/count/rank{my_rank}", 1)
        key = f"ddpchk/{gid}/{kind}/{nth}"
        store.set(f"{key}/rank{my_rank}", payload)
        leader = ranks[0]
        if my_rank == leader:
            return payload
        return store.get(f"{key}/rank{leader}", timeout=group.timeout)

    def _verify_replica_structure(self) -> None:
        mine = [
            {
                "name": name,
                "shape": tuple(param.shape),
                "dtype": str(param.data.dtype),
            }
            for name, param in zip(self._param_names, self._params)
        ]
        leaders = self._debug_exchange("struct", mine)
        if leaders is None or leaders == mine:
            return
        rank = self.process_group.global_rank
        leader = self.process_group.ranks[0]
        problems = []
        if len(mine) != len(leaders):
            problems.append(
                f"parameter count differs: rank {rank} has {len(mine)}, "
                f"rank {leader} has {len(leaders)}"
            )
        for ours, theirs in zip(mine, leaders):
            if ours != theirs:
                problems.append(
                    f"{ours['name']}: rank {rank} has "
                    f"{ours['shape']}/{ours['dtype']}, rank {leader} has "
                    f"{theirs['shape']}/{theirs['dtype']} ({theirs['name']})"
                )
        raise RuntimeError(
            f"DDP replica structure mismatch (REPRO_DEBUG="
            f"{debug_level_name()}): rank {rank} wrapped a different model "
            f"than rank {leader}:\n  " + "\n  ".join(problems[:10])
        )

    def _verify_replica_values(self) -> None:
        mine = [float(param.data.sum()) for param in self._params]
        leaders = self._debug_exchange("values", mine)
        if leaders is None:
            return
        bad = [
            f"{self._param_names[i]}: checksum {ours!r} != leader's {theirs!r}"
            for i, (ours, theirs) in enumerate(zip(mine, leaders))
            if ours != theirs
        ]
        if bad:
            rank = self.process_group.global_rank
            raise RuntimeError(
                f"DDP replica value mismatch after state broadcast "
                f"(REPRO_DEBUG={debug_level_name()}) on rank {rank}:\n  "
                + "\n  ".join(bad[:10])
            )

    def _broadcast_buffers_now(self) -> None:
        # No buffers, no specs: a buffer-less model issues nothing.
        broadcast_params(self._buffer_flat_specs, self._module_buffers, self.process_group)

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def no_sync(self):
        """Skip gradient synchronization inside the block (paper §3.2.4).

        Gradients accumulate locally; the first backward outside the
        block reduces the accumulated values, and locally-recorded
        parameter usage keeps accumulating in the bitmap meanwhile.
        """
        previous = self._sync_enabled
        self._sync_enabled = False
        try:
            yield
        finally:
            self._sync_enabled = previous

    @property
    def will_sync(self) -> bool:
        return self._sync_enabled

    def _maybe_rebucket_from_trace(self) -> None:
        """Backward-order prediction (paper §6.2.1): once enough stable
        traces exist, rank 0 broadcasts its observed order (the authority
        strategy of §6.2.2) and every rank rebuilds identical buckets."""
        import numpy as np

        from repro.core.order_prediction import assignment_from_order

        tracer = self.reducer.order_tracer
        order = np.full(len(self._params), -1, dtype=np.int64)
        if self.process_group.group_rank == 0 and tracer.is_stable():
            observed = list(tracer.observed_order())
            observed += [i for i in range(len(self._params)) if i not in set(observed)]
            order[...] = observed
        self.process_group.broadcast(order, src=0)
        self._rebucket_done = True
        if order[0] < 0:
            # Rank 0's traces disagreed across iterations (a dynamic
            # graph); rebucketing would chase noise, so keep the
            # reverse-definition layout.
            return
        specs = assignment_from_order(
            self._params, [int(i) for i in order], self.bucket_cap_mb
        )
        self.reducer.rebuild_buckets(specs)

    def forward(self, *inputs, **kwargs):
        if self._sync_enabled:
            # Autotune boundary: the reducer is finalized and all Work
            # waited, so config changes (relayouts, chunk or algorithm switches) are
            # safe; runs before any of this iteration's collectives so
            # every rank applies them at the same sequence point.
            if self._autotuner is not None:
                self._autotuner.on_iteration()
            if (
                not self._rebucket_done
                and self.reducer.iterations_synced >= self._rebucket_after
            ):
                self._maybe_rebucket_from_trace()
            # Buffers changed since the last synchronized iteration must
            # be re-aligned to rank 0 before this forward (§4.1).
            if self.broadcast_buffers:
                self._broadcast_buffers_now()
        with _spans.span(
            "ddp.forward",
            iteration=self.reducer.iterations_synced,
            sync=self._sync_enabled,
        ):
            out = self.module(*inputs, **kwargs)
        if self._sync_enabled:
            self.reducer.prepare_for_backward(_flatten_outputs(out))
            self._did_sync_last_backward = True
        else:
            self._did_sync_last_backward = False
        return out

    # ------------------------------------------------------------------
    # transparency: delegate common Module surfaces to the wrapped model
    # ------------------------------------------------------------------
    def state_dict(self):
        return self.module.state_dict()

    def load_state_dict(self, state) -> None:
        self.module.load_state_dict(state)

    def train(self, mode: bool = True):
        super().train(mode)
        return self

    def register_comm_hook(self, hook: Optional[CommHook]) -> None:
        """Install a gradient-compression communication hook (§6.2.3)."""
        self.reducer.set_comm_hook(hook)

    def set_bucket_cap_mb(
        self, bucket_cap_mb: float, first_bucket_cap_mb: Optional[float] = None
    ) -> None:
        """Relayout gradient buckets to a new cap, live.

        Goes through the no-op-aware ``rebuild_buckets`` (an unchanged
        layout keeps the existing buffers; a changed one migrates live
        gradient values into the new views).  **Collective discipline**:
        every rank must call this between iterations at the same point
        — the bucket layout defines the AllReduce sequence.  This is
        the autotuner's relayout entry point.
        """
        specs = cached_bucket_assignment(
            self._params,
            bucket_cap_bytes=int(bucket_cap_mb * MB),
            first_bucket_cap_bytes=(
                int(first_bucket_cap_mb * MB)
                if first_bucket_cap_mb is not None
                else None
            ),
        )
        self.reducer.rebuild_buckets(specs)
        self.bucket_cap_mb = bucket_cap_mb

    @property
    def autotuner(self):
        """The attached :class:`~repro.autotune.Autotuner` (or None)."""
        return self._autotuner

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def ddp_stats(self) -> dict:
        """Iteration statistics report — the analog of PyTorch DDP's
        ``get_ddp_logging_data()``.

        Always available (the reducer's coarse phase clock stays on even
        with telemetry disabled).  Per-bucket AllReduce latencies and the
        overlap ratio describe the *last synchronized* backward:

        * ``bucket_sizes_bytes`` / ``bucket_param_indices`` — the live
          bucket layout (reflects any order-prediction rebuild).
        * ``unused_parameter_count`` — parameters marked ready-as-unused
          in the last prepared backward (0 unless
          ``find_unused_parameters`` found absentees).
        * ``comm_compute_overlap_ratio`` — fraction of total bucket
          AllReduce wall time hidden inside the backward-compute window
          (1.0 = fully overlapped, 0.0 = fully exposed; paper Fig. 4).
        * ``per_bucket_allreduce_latency_s`` — measured execution time
          of each bucket's collective on the communication worker.
        """
        reducer = self.reducer
        detail = reducer.recorder.last_detail
        bucket_latencies = {
            entry["bucket"]: entry["allreduce_latency_s"]
            for entry in detail.get("buckets", ())
        }
        return {
            "world_size": self.process_group.size,
            "rank": self.process_group.group_rank,
            "backend": self.process_group.backend,
            "bucket_cap_mb": self.bucket_cap_mb,
            "num_buckets": len(reducer.buckets),
            "bucket_sizes_bytes": [b.flat.nbytes for b in reducer.buckets],
            "bucket_param_indices": [
                list(b.spec.param_indices) for b in reducer.buckets
            ],
            "rebuilt_bucket_count": reducer.rebuilt_bucket_count,
            "gradient_as_bucket_view": reducer.gradient_as_bucket_view,
            "grad_copy_count": reducer.grad_copy_count,
            "zero_copy_hits": reducer.zero_copy_hits,
            "layout_allocations": reducer.layout_allocations,
            "noop_rebuild_count": reducer.noop_rebuild_count,
            "iterations_synced": reducer.iterations_synced,
            "find_unused_parameters": self.find_unused_parameters,
            "unused_parameter_count": reducer.last_unused_parameter_count,
            "overlap_enabled": reducer.overlap,
            "comm_compute_overlap_ratio": detail.get(
                "comm_compute_overlap_ratio", 0.0
            ),
            "comm_total_s": detail.get("comm_total_s", 0.0),
            "comm_hidden_s": detail.get("comm_hidden_s", 0.0),
            "per_bucket_allreduce_latency_s": [
                bucket_latencies.get(b.spec.index, 0.0) for b in reducer.buckets
            ],
            "last_iteration": dict(reducer.last_iteration_stats),
            "debug": self._debug_stats(),
            "resilience": self._resilience_stats(),
            "profile": self._profile_stats(detail),
            "health": self._health_stats(detail),
            "autotune": (
                self._autotuner.report() if self._autotuner is not None else None
            ),
            "checkpoint": self._checkpoint_stats(),
        }

    def _checkpoint_stats(self) -> Optional[dict]:
        """Live :class:`~repro.checkpoint.engine.CheckpointEngine`
        counters for this rank (saves, async stall, replication traffic
        and lag), or None when no engine is registered."""
        from repro.checkpoint.engine import stats_for

        return stats_for(self.process_group.group_rank)

    def _health_stats(self, detail: dict) -> dict:
        """Comm-health section: per-collective efficiency summaries for
        this rank (achieved bus bandwidth, chunk-pipeline utilization,
        cost-model efficiency, receive stalls) plus the anomaly engine's
        live cross-rank diagnoses.  The overlap ratio is served from the
        always-on recorder clock; the rest needs telemetry enabled."""
        from repro.telemetry.health import health_report

        return health_report(
            rank=self.process_group.global_rank, last_detail=detail
        )

    def _profile_stats(self, detail: dict) -> Optional[dict]:
        """Critical-path attribution of the last synchronized iteration:
        overlap ratio, exposed-comm time, and the top-3 blame buckets
        (None before the first sync).  Built from the recorder's coarse
        clock, so it works with telemetry disabled."""
        from repro.telemetry.observatory import profile_from_detail

        profile = profile_from_detail(detail, rank=self.process_group.global_rank)
        return profile.summary(top=3) if profile is not None else None

    def _resilience_stats(self) -> Optional[dict]:
        """Transport retry/dedup/corruption counters, when the group runs
        over a :class:`~repro.resilience.ReliableTransportHub` (None on
        the plain hub)."""
        hub = getattr(self.process_group, "hub", None)
        probe = getattr(hub, "resilience_stats", None)
        return probe() if callable(probe) else None

    def _debug_stats(self) -> dict:
        """REPRO_DEBUG layer state: the depth of this rank's collective
        record ring (filled at INFO or with telemetry on) and the
        watchdog status of its process group (None when OFF)."""
        group = self.process_group
        recorder = getattr(group, "flight_recorder", None)
        watchdog = getattr(group, "_watchdog", None)
        return {
            "level": debug_level_name(),
            "flight_recorder_depth": recorder.depth() if recorder else 0,
            "watchdog": watchdog.status() if watchdog else None,
        }

    def check_stragglers(self, threshold: float = 1.5):
        """Exchange the last backward-compute time across ranks and flag
        outliers (a **collective** — every rank must call it at the same
        point).  Returns a :class:`repro.telemetry.StragglerReport`."""
        from repro.telemetry.straggler import detect_stragglers

        phases = self.reducer.recorder.last_detail.get("phases", {})
        local = float(phases.get("backward_compute", 0.0))
        return detect_stragglers(self.process_group, local, threshold=threshold)

    def __repr__(self) -> str:
        return (
            f"DistributedDataParallel(world={self.process_group.size}, "
            f"bucket_cap={self.bucket_cap_mb}MB, "
            f"buckets={len(self.reducer.buckets)})\n  {self.module!r}"
        )

    def summary(self) -> str:
        """Human-readable configuration + bucket layout report."""
        from repro.core.bucket import describe_assignment
        from repro.utils.units import format_bytes

        total_params = sum(p.numel() for p in self._params)
        grad_bytes = sum(p.numel() * p.element_size() for p in self._params)
        lines = [
            "DistributedDataParallel summary",
            f"  world size:          {self.process_group.size}",
            f"  backend:             {self.process_group.backend}",
            f"  parameters:          {total_params:,} in {len(self._params)} tensors",
            f"  gradient volume:     {format_bytes(grad_bytes)} per iteration",
            f"  bucket cap:          {self.bucket_cap_mb} MB "
            f"({len(self.reducer.buckets)} buckets)",
            f"  find unused params:  {self.find_unused_parameters}",
            f"  broadcast buffers:   {self.broadcast_buffers}",
            f"  iterations synced:   {self.reducer.iterations_synced}",
            "",
            describe_assignment([b.spec for b in self.reducer.buckets]),
        ]
        return "\n".join(lines)


def _flatten_outputs(out) -> list:
    """Collect all Tensors from arbitrarily nested forward outputs."""
    tensors: list = []

    def visit(value) -> None:
        if isinstance(value, Tensor):
            tensors.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)
        elif isinstance(value, dict):
            for item in value.values():
                visit(item)

    visit(out)
    return tensors
