"""The online autotuner: live retuning of the comm hot path.

:class:`Autotuner` closes the loop between the record the runtime
already keeps of every iteration (the reducer's ``IterationProfile``:
iteration time, backward-compute time, compute/comm overlap ratio) and
the knobs that shape the hot path (``bucket_cap_mb``, ``chunk_bytes``,
the collective algorithm, optionally the compression hook) — the
adaptive tuning the paper proposes as future work (§7), in the style of
Bagua's hyperparameter service.

It runs no thread of its own.  The training thread calls
:meth:`on_iteration` from ``DistributedDataParallel.forward`` — a
deterministic point every rank reaches in lockstep — which reads the
last iteration's profile.  Every ``window_iters`` synchronized
iterations it closes a measurement window: the ranks agree on the
window's iteration time with a single 1-element MAX-AllReduce (the
slowest rank defines the truth, and every rank now holds the same
number), feeds it with the window's median backward time and overlap
ratio to the seeded deterministic
:class:`~repro.autotune.policy.SearchPolicy`, and applies whatever
config the policy answers with.  Identical inputs + identical policy ⇒
identical decisions on every rank, with no extra broadcast.

Config application happens only at this **safe iteration boundary**
(reducer finalized, every ``Work`` waited, before the next forward):
bucket relayouts go through the no-op-aware ``rebuild_buckets`` (which
also resets a stateful comm hook), chunk and algorithm switches through
the group's setters.  Under telemetry every applied change is an
``autotune.retune`` incident on the rank's ring — an instant on the
trace's ``autotune`` row — so retune decisions are visible on the
timeline next to their effect.
"""

from __future__ import annotations

import statistics
import weakref
from typing import List, Optional

import numpy as np

from repro.comm import algorithms, backends
from repro.comm.process_group import ReduceOp
from repro.core.comm_hooks import make_hook
from repro.debug.flight_recorder import record_incident
from repro.utils.logging import logger

from repro.autotune.knobs import TunedConfig, clamp_config, knob_table, validate_config
from repro.autotune.policy import SearchPolicy


class Autotuner:
    """Per-job online tuner attached to one ``DistributedDataParallel``.

    Constructed by ``DistributedDataParallel(..., autotune=True)``;
    options arrive via the ``autotune_options`` dict.  All knob
    movement stays inside the safe ranges declared in
    ``repro.autotune.knobs`` (validated on every application).
    """

    def __init__(
        self,
        ddp,
        window_iters: int = 5,
        warmup_windows: int = 2,
        sweep_keep: int = 6,
        tune_comm_hook: bool = False,
        tune_algorithm: bool = True,
        seed: int = 0,
        rollback_margin: float = 0.10,
        improve_margin: float = 0.02,
        drift_threshold: float = 1.3,
        drift_patience: int = 3,
    ):
        if window_iters < 1:
            raise ValueError("window_iters must be >= 1")
        # Weakref: the DDP instance owns the tuner; no reference cycle.
        self._ddp = weakref.ref(ddp)
        self.window_iters = window_iters
        self.tune_comm_hook = tune_comm_hook

        group = ddp.process_group
        model_bytes = sum(p.numel() * p.element_size() for p in ddp._params)
        # A group whose backend has no cost row (mpi, a round-robin
        # composite) is priced with gloo's, the closest to the thread
        # transport.
        try:
            priced = backends.backend(group.backend).cost is not None
        except ValueError:
            priced = False
        backend = group.backend if priced else "gloo"
        self._hook_name: Optional[str] = (
            None if ddp.reducer.comm_hook is None else "user"
        )
        base = clamp_config(self._live_config())
        self.policy = SearchPolicy(
            base,
            model_bytes=model_bytes,
            world_size=group.size,
            backend=backend,
            warmup_windows=warmup_windows,
            sweep_keep=sweep_keep,
            improve_margin=improve_margin,
            rollback_margin=rollback_margin,
            drift_threshold=drift_threshold,
            drift_patience=drift_patience,
            tune_comm_hook=tune_comm_hook,
            tune_algorithm=tune_algorithm,
            seed=seed,
        )

        self.applied_changes = 0
        self.windows_closed = 0
        self._last_seen_iteration: Optional[int] = None
        self._window_totals: List[float] = []
        self._window_backward: List[float] = []
        self._window_overlap: List[float] = []
        self._applied_log: List[dict] = []

    def on_iteration(self) -> None:
        """Called by DDP at the start of each synchronized forward.

        Cheap in the steady state (one read of the last iteration's
        profile); every ``window_iters`` new finalized iterations it
        closes a window, which costs one 1-element MAX-AllReduce plus
        whatever config changes the policy decides on.  **Collective at
        window boundaries** — safe because every rank counts the same
        synchronized iterations and therefore closes the same windows.
        """
        ddp = self._ddp()
        if ddp is None:
            return
        profile = ddp.reducer.recorder.last
        if profile is None or profile.iteration == self._last_seen_iteration:
            return  # no newly finalized iteration since the last call
        self._last_seen_iteration = profile.iteration
        if profile.total_s <= 0.0:
            return
        self._window_totals.append(profile.total_s)
        self._window_backward.append(profile.backward_s)
        self._window_overlap.append(profile.overlap_ratio)
        if len(self._window_totals) < self.window_iters:
            return
        self._close_window(ddp)

    def _close_window(self, ddp) -> None:
        local = statistics.median(self._window_totals)
        agreed = self._agree(ddp.process_group, local)
        signals = {
            "backward_compute_s": statistics.median(self._window_backward),
            "overlap_ratio": statistics.median(self._window_overlap),
        }
        self._window_totals.clear()
        self._window_backward.clear()
        self._window_overlap.clear()
        self.windows_closed += 1
        next_config = self.policy.observe(agreed, signals)
        live = self._live_config()
        if next_config != live:
            self._apply(ddp, live, next_config)

    @staticmethod
    def _agree(group, local_s: float) -> float:
        """Cross-rank agreement on the window measurement.

        MAX over ranks: iteration time is gated by the slowest rank, and
        a MAX-AllReduce leaves every rank holding the identical number —
        the whole coordination protocol in one tiny collective.
        """
        value = np.array([local_s], dtype=np.float64)
        group.allreduce(value, ReduceOp.MAX)
        return float(value[0])

    def _live_config(self) -> TunedConfig:
        ddp = self._ddp()
        group = ddp.process_group
        chunk = group.chunk_bytes
        return TunedConfig(
            bucket_cap_mb=float(ddp.bucket_cap_mb),
            chunk_bytes=int(chunk if chunk is not None else algorithms.DEFAULT_CHUNK_BYTES),
            algorithm=group.algorithm,
            comm_hook=self._hook_name,
        )

    def _apply(self, ddp, live: TunedConfig, config: TunedConfig) -> None:
        """Install ``config``, field by field, at the safe boundary."""
        validate_config(config)
        group = ddp.process_group
        changes = []
        if config.bucket_cap_mb != live.bucket_cap_mb:
            ddp.set_bucket_cap_mb(config.bucket_cap_mb)
            changes.append("bucket_cap_mb")
        if config.chunk_bytes != live.chunk_bytes:
            group.set_chunk_bytes(int(config.chunk_bytes))
            changes.append("chunk_bytes")
        if config.algorithm != live.algorithm:
            group.set_algorithm(config.algorithm)
            changes.append("algorithm")
        if self.tune_comm_hook and config.comm_hook != live.comm_hook:
            hook = make_hook(config.comm_hook) if config.comm_hook else None
            ddp.register_comm_hook(hook)
            self._hook_name = config.comm_hook
            changes.append("comm_hook")
        if not changes:
            return
        self.applied_changes += 1
        self._applied_log.append(
            {
                "window": self.policy.windows,
                "state": self.policy.state,
                "changes": changes,
                "config": config.as_dict(),
            }
        )
        # An instant on the trace's ``autotune`` row, next to its effect.
        record_incident(group.global_rank, "autotune.retune", "autotune",
                        changes=changes, state=self.policy.state,
                        config=config.describe())
        logger.info(
            "autotune: applied %s -> %s (state %s)",
            ",".join(changes),
            config.describe(),
            self.policy.state,
        )

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Full tuner state: the ``ddp_stats()["autotune"]`` payload and
        the JSON body behind ``tools/autotunectl.py``."""
        payload = self.policy.report()
        payload.update(
            {
                "enabled": True,
                "window_iters": self.window_iters,
                "windows_closed": self.windows_closed,
                "applied_changes": self.applied_changes,
                "applied_log": list(self._applied_log),
                "history": list(self.policy.history),
                "knobs": knob_table(),
            }
        )
        return payload
