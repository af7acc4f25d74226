"""The online autotuner: live retuning of the comm hot path.

:class:`Autotuner` closes the loop between the telemetry the runtime
already produces (per-bucket AllReduce latency, compute/comm overlap
ratio, backward-compute time, health signals) and the knobs that shape
the hot path (``bucket_cap_mb``, ``chunk_bytes``, the collective
algorithm, optionally the compression hook) — the adaptive
tuning the paper proposes as future work (§7), in the style of Bagua's
hyperparameter service.

Two halves, split by *who is allowed to do what*:

* A **background sampler thread** continuously snapshots the
  observatory/health signals between iteration boundaries (overlap
  ratio, per-bucket latencies, straggler diagnoses) into a rolling
  window.  It never touches knobs and never issues collectives — it
  only observes.
* The **training thread** calls :meth:`on_iteration` from
  ``DistributedDataParallel.forward`` — a deterministic point every
  rank reaches in lockstep.  Every ``window_iters`` synchronized
  iterations it closes a measurement window: the ranks agree on the
  window's iteration time with a single 1-element MAX-AllReduce (the
  slowest rank defines the truth, and every rank now holds the same
  number), feeds it to the seeded deterministic
  :class:`~repro.autotune.policy.SearchPolicy`, and applies whatever
  config the policy answers with.  Identical inputs + identical policy
  ⇒ identical decisions on every rank, with no extra broadcast.

Config application happens only at this **safe iteration boundary**
(reducer finalized, every ``Work`` waited, before the next forward):
bucket relayouts go through the no-op-aware ``rebuild_buckets``, chunk
and algorithm switches through the group's setters, and stateful
comm hooks are reset on relayout so error-feedback residuals never
apply to a mismatched layout.  Every applied change is annotated on the
merged trace (an ``autotune`` instant span), so retune
decisions are visible on the timeline next to their effect.
"""

from __future__ import annotations

import statistics
import threading
import time
import weakref
from typing import Dict, List, Optional

import numpy as np

from repro.comm import algorithms
from repro.comm.process_group import ReduceOp
from repro.core.comm_hooks import make_hook, reset_hook
from repro.telemetry.spans import TRACER
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
        sample_interval_s: float = 0.02,
        background_sampler: bool = True,
        cost_backend: Optional[str] = None,
    ):
        if window_iters < 1:
            raise ValueError("window_iters must be >= 1")
        # Weakref: the tuner must not keep a dropped DDP instance (and
        # its buffers) alive from the sampler thread.
        self._ddp = weakref.ref(ddp)
        self.window_iters = window_iters
        self.tune_comm_hook = tune_comm_hook

        group = ddp.process_group
        model_bytes = sum(p.numel() * p.element_size() for p in ddp._params)
        backend = cost_backend or group.backend
        if backend not in ("nccl", "gloo"):
            backend = "gloo"  # closest personality for the thread transport
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

        self._sampled_signals: Dict[str, List[float]] = {}
        self._sample_lock = threading.Lock()
        self._stop = threading.Event()
        self._sampler: Optional[threading.Thread] = None
        if background_sampler:
            self._sampler = threading.Thread(
                target=self._sample_loop,
                args=(sample_interval_s,),
                name=f"autotune-rank{group.global_rank}",
                daemon=True,
            )
            self._sampler.start()

    # ------------------------------------------------------------------
    # background half: signal sampling only, never knob movement
    # ------------------------------------------------------------------
    def _sample_loop(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            ddp = self._ddp()
            if ddp is None:
                return
            try:
                detail = ddp.reducer.recorder.last_detail
            except Exception:
                continue
            if not detail:
                continue
            overlap = detail.get("comm_compute_overlap_ratio")
            latencies = [
                entry.get("allreduce_latency_s", 0.0)
                for entry in detail.get("buckets", ())
            ]
            with self._sample_lock:
                if overlap is not None:
                    self._sampled_signals.setdefault("overlap_ratio", []).append(
                        float(overlap)
                    )
                if latencies:
                    self._sampled_signals.setdefault(
                        "max_bucket_latency_s", []
                    ).append(max(latencies))

    def _drain_sampled_signals(self) -> dict:
        with self._sample_lock:
            drained = {
                key: statistics.median(values)
                for key, values in self._sampled_signals.items()
                if values
            }
            self._sampled_signals.clear()
        return drained

    # ------------------------------------------------------------------
    # training-thread half: windows, agreement, application
    # ------------------------------------------------------------------
    def on_iteration(self) -> None:
        """Called by DDP at the start of each synchronized forward.

        Cheap in the steady state (a couple of dict reads); every
        ``window_iters`` new finalized iterations it closes a window,
        which costs one 1-element MAX-AllReduce plus whatever config
        changes the policy decides on.  **Collective at window
        boundaries** — safe because every rank counts the same
        synchronized iterations and therefore closes the same windows.
        """
        ddp = self._ddp()
        if ddp is None:
            return
        detail = ddp.reducer.recorder.last_detail
        if not detail:
            return
        iteration = detail.get("iteration")
        if iteration == self._last_seen_iteration:
            return  # no newly finalized iteration since the last call
        self._last_seen_iteration = iteration
        phases = detail.get("phases", {})
        total = float(phases.get("total", 0.0))
        if total <= 0.0:
            return
        self._window_totals.append(total)
        self._window_backward.append(float(phases.get("backward_compute", 0.0)))
        self._window_overlap.append(
            float(detail.get("comm_compute_overlap_ratio", 0.0))
        )
        if len(self._window_totals) < self.window_iters:
            return
        self._close_window(ddp)

    def _close_window(self, ddp) -> None:
        local = statistics.median(self._window_totals)
        agreed = self._agree(ddp.process_group, local)
        signals = self._drain_sampled_signals()
        signals["backward_compute_s"] = statistics.median(self._window_backward)
        signals.setdefault(
            "overlap_ratio", statistics.median(self._window_overlap)
        )
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
        relayout = False
        if config.bucket_cap_mb != live.bucket_cap_mb:
            ddp.set_bucket_cap_mb(config.bucket_cap_mb)
            changes.append("bucket_cap_mb")
            relayout = True
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
        elif relayout:
            # Bucket buffers were reallocated under a stateful hook:
            # drop residuals/factors keyed to the old layout.
            reset_hook(ddp.reducer.comm_hook)
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
        self._annotate(group, config, changes)
        logger.info(
            "autotune: applied %s -> %s (state %s)",
            ",".join(changes),
            config.describe(),
            self.policy.state,
        )

    def _annotate(self, group, config: TunedConfig, changes: list) -> None:
        """Make the retune visible on the merged timeline."""
        rank = group.global_rank
        now = time.perf_counter()
        args = {
            "changes": changes,
            "state": self.policy.state,
            "config": config.describe(),
        }
        TRACER.record(
            "autotune.retune", now, now, cat="autotune", stream="autotune",
            rank=rank, args=args,
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

    def close(self) -> None:
        """Stop the background sampler (idempotent)."""
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join(timeout=2.0)
            self._sampler = None
