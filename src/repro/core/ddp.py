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
import time
from typing import Optional

from repro.comm.distributed import get_context
from repro.core.bucket import (
    UNBOUNDED_CAP_BYTES,
    broadcast_params,
    compute_bucket_assignment,
    describe_assignment,
)
from repro.core.reducer import CommHook, Reducer
from repro.debug.flight_recorder import collective_context
from repro.debug.levels import DEBUG, DETAIL, INFO, debug_level_name
from repro.nn.module import Module
from repro.utils.units import MB, format_bytes


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
        The layout is computed once, here, in reverse ``parameters()``
        order (§3.2.3) and never changes; to try another cap, wrap
        again.  A model whose backward produces gradients far from
        reverse definition order overlaps less; define its modules in
        forward order.
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
    comm_hook:
        Optional gradient-compression hook run on each bucket in place
        of the AllReduce (§6.2.3; see :mod:`repro.core.comm_hooks`).
    gradient_as_bucket_view:
        When True (default), parameters' ``.grad`` tensors are views of
        the reducer's flat bucket buffers: the op that produces each
        gradient writes it straight into communication memory, and no
        hook-time gather or write-back copy follows.  Set False to get
        the seed copy-in/copy-out path (same numerics, two more copies
        per gradient).
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
        gradient_as_bucket_view: bool = True,
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

        named = list(module.named_parameters())
        if not named:
            raise ValueError("DistributedDataParallel requires a model with parameters")
        self._param_names = [name for name, _ in named]
        self._params = [param for _, param in named]
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

        # (2) Bucket assignment in reverse parameters() order, fixed for
        # the life of the wrap.
        bucket_specs = compute_bucket_assignment(
            self._params, bucket_cap_bytes=int(bucket_cap_mb * MB)
        )

        # (3) The reducer installs one autograd hook per parameter.
        self.reducer = Reducer(
            self._params,
            bucket_specs,
            process_group,
            find_unused_parameters=find_unused_parameters,
            overlap=overlap,
            comm_hook=comm_hook,
            param_names=self._param_names,
            gradient_as_bucket_view=gradient_as_bucket_view,
        )

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

    def forward(self, *inputs, **kwargs):
        if self._sync_enabled:
            # Buffers changed since the last synchronized iteration must
            # be re-aligned to rank 0 before this forward (§4.1).
            if self.broadcast_buffers:
                self._broadcast_buffers_now()
        t_forward = time.perf_counter()
        out = self.module(*inputs, **kwargs)
        if self._sync_enabled:
            self.reducer.prepare_for_backward(out, t_forward)
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

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def ddp_stats(self) -> dict:
        """Iteration statistics report — the analog of PyTorch DDP's
        ``get_ddp_logging_data()``: :meth:`Reducer.stats` (shared with
        the sharded wrappers) plus the backend and the cap.  Always
        available: the reducer's coarse phase clock stays on with
        telemetry disabled.  Other subsystems report for themselves:
        ``telemetry.health_report(rank)``, ``CheckpointEngine.stats()``,
        ``recorder_for(rank).depth()`` and ``get_context().monitor.status()``."""
        return {
            **self.reducer.stats(),
            "backend": self.process_group.backend,
            "bucket_cap_mb": self.bucket_cap_mb,
        }

    def __repr__(self) -> str:
        return (
            f"DistributedDataParallel(world={self.process_group.size}, "
            f"bucket_cap={self.bucket_cap_mb}MB, "
            f"buckets={len(self.reducer.buckets)})\n  {self.module!r}"
        )

    def summary(self) -> str:
        """Human-readable configuration + bucket layout report."""
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
