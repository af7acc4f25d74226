"""The autotune search policy: a deterministic, seeded state machine.

The policy is *pure decision logic* — it never touches the training
loop.  Each measurement window, the service feeds it one number (the
cross-rank-agreed iteration time for the currently active config, see
``repro.autotune.service``) plus optional telemetry signals, and the
policy answers with the config to run next.  Because the inputs are
identical on every rank (the service MAX-allreduces the measurement)
and the policy is seeded and deterministic, every rank walks the exact
same state sequence without any extra coordination traffic.

States::

    WARMUP ──► SWEEP ──► HILL_CLIMB ──► CONVERGED
                 ▲                          │
                 └──── drift re-tune ◄──────┘

* **WARMUP** — measure the starting config for ``warmup_windows``
  windows to establish the baseline and the backward-compute estimate
  that feeds the cost prior.
* **SWEEP** — score the full knob grid with the analytic prior
  (``repro.autotune.cost_prior``), keep the best ``sweep_keep``
  candidates, and measure each for one window.
* **HILL_CLIMB** — from the sweep winner, measure one-knob-step
  neighbors (seeded shuffle) and move whenever a neighbor improves the
  best time by more than ``improve_margin``; moving regenerates the
  neighbor frontier.
* **CONVERGED** — freeze on the best config.  If the frozen config's
  measured time later drifts above ``drift_threshold`` x its converged
  time for ``drift_patience`` consecutive windows (topology changed,
  a link went slow), the policy re-enters SWEEP with a re-pruned grid.

**Rollback guard**: every experimental step is judged against the best
measured time.  A step that regresses beyond ``rollback_margin`` is
*reverted* — the next proposal is computed from the best config, never
from the regressing one — and counted in ``rollbacks``.  The active
config can therefore only ever be the best-known config or a
single-window experiment away from it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.autotune import cost_prior
from repro.autotune.knobs import (
    TunedConfig,
    candidate_grid,
    clamp_config,
    neighbors,
    validate_config,
)

WARMUP = "warmup"
SWEEP = "sweep"
HILL_CLIMB = "hill_climb"
CONVERGED = "converged"


class SearchPolicy:
    """Warmup → sweep → hill-climb → converge/freeze, with rollback."""

    def __init__(
        self,
        base_config: TunedConfig,
        model_bytes: float,
        world_size: int,
        backend: str = "gloo",
        warmup_windows: int = 2,
        sweep_keep: int = 6,
        improve_margin: float = 0.02,
        rollback_margin: float = 0.10,
        drift_threshold: float = 1.3,
        drift_patience: int = 3,
        tune_comm_hook: bool = False,
        tune_algorithm: bool = True,
        seed: int = 0,
    ):
        self.base_config = clamp_config(base_config)
        self.model_bytes = float(model_bytes)
        self.world_size = int(world_size)
        self.backend = backend
        self.warmup_windows = max(1, warmup_windows)
        self.sweep_keep = max(1, sweep_keep)
        self.improve_margin = improve_margin
        self.rollback_margin = rollback_margin
        self.drift_threshold = drift_threshold
        self.drift_patience = max(1, drift_patience)
        self.tune_comm_hook = tune_comm_hook
        self.tune_algorithm = tune_algorithm
        self.seed = seed
        self._rng = random.Random(seed)

        self.state = WARMUP
        self.active_config = self.base_config
        self.best_config = self.base_config
        self.best_time = float("inf")
        self.windows = 0
        self.rollbacks = 0
        self.retunes = 0
        self.history: List[dict] = []
        self.measured: Dict[TunedConfig, float] = {}

        self._warmup_times: List[float] = []
        self._backward_estimate = 0.0
        self._queue: List[TunedConfig] = []
        self._frontier_origin: Optional[TunedConfig] = None
        self._frontier_best = float("inf")
        self._frozen_time = float("inf")
        self._drift_count = 0

    # ------------------------------------------------------------------
    def observe(self, measured_s: float, signals: Optional[dict] = None) -> TunedConfig:
        """Record one window's measurement; return the next config.

        ``measured_s`` is the agreed per-iteration time for
        ``self.active_config`` over the window just finished.  The
        returned config is validated against the knob safe ranges
        before being handed back — the policy cannot emit an out-of-
        range config.
        """
        signals = signals or {}
        backward = signals.get("backward_compute_s")
        if backward:
            # Exponential smoothing keeps one noisy window from
            # skewing the prior.
            self._backward_estimate = (
                0.5 * self._backward_estimate + 0.5 * backward
                if self._backward_estimate
                else backward
            )
        self.windows += 1
        previous = self.active_config
        self._record_measurement(previous, measured_s)
        action = self._advance(previous, measured_s)
        self._log(previous, measured_s, action, signals)
        validate_config(self.active_config)
        return self.active_config

    # ------------------------------------------------------------------
    def _record_measurement(self, config: TunedConfig, measured_s: float) -> None:
        seen = self.measured.get(config)
        # Keep the best observation per config: transient stragglers
        # should not permanently poison a good config's score.
        self.measured[config] = measured_s if seen is None else min(seen, measured_s)
        if self.measured[config] < self.best_time:
            self.best_time = self.measured[config]
            self.best_config = config

    def _advance(self, previous: TunedConfig, measured_s: float) -> str:
        if self.state == WARMUP:
            return self._advance_warmup(measured_s)
        if self.state == SWEEP:
            return self._advance_experiment(previous, measured_s, next_state=HILL_CLIMB)
        if self.state == HILL_CLIMB:
            return self._advance_experiment(previous, measured_s, next_state=CONVERGED)
        return self._advance_converged(measured_s)

    def _advance_warmup(self, measured_s: float) -> str:
        self._warmup_times.append(measured_s)
        if len(self._warmup_times) < self.warmup_windows:
            return "warmup"
        self._queue = self._pruned_sweep()
        self.state = SWEEP
        if self._queue:
            self.active_config = self._queue.pop(0)
            return "sweep_start"
        # Prior kept nothing beyond the base config — nothing to try.
        self.state = CONVERGED
        self._freeze()
        return "converged"

    def _advance_experiment(
        self, previous: TunedConfig, measured_s: float, next_state: str
    ) -> str:
        regressed = measured_s > self.best_time * (1.0 + self.rollback_margin)
        action = "step"
        if regressed and previous != self.best_config:
            self.rollbacks += 1
            action = "rollback"
        if self.state == HILL_CLIMB and not regressed and previous == self.best_config:
            # The climb moved here and the move held up by more than
            # the noise margin: regenerate the frontier around the new
            # best.  (Each config is measured at most once per tune
            # cycle, so the climb always terminates.)
            if (
                self._frontier_origin != self.best_config
                and self.best_time < self._frontier_best * (1.0 - self.improve_margin)
            ):
                self._queue = self._hill_frontier()
                action = "climb_move"
        if not self._queue and self.state == SWEEP:
            self.state = HILL_CLIMB
            self._queue = self._hill_frontier()
            action = "sweep_done"
        if not self._queue:
            self.state = CONVERGED
            self._freeze()
            self.active_config = self.best_config
            return "converged"
        self.active_config = self._queue.pop(0)
        return action

    def _advance_converged(self, measured_s: float) -> str:
        self.active_config = self.best_config
        if measured_s > self._frozen_time * self.drift_threshold:
            self._drift_count += 1
            if self._drift_count >= self.drift_patience:
                # The world changed under the frozen config — forget
                # stale measurements and re-tune from here.
                self.retunes += 1
                self.measured = {}
                self.best_time = measured_s
                self.best_config = self.active_config
                self._drift_count = 0
                self._queue = self._pruned_sweep()
                if self._queue:
                    self.state = SWEEP
                    self.active_config = self._queue.pop(0)
                    return "retune"
            return "drift"
        self._drift_count = 0
        # Track the steady-state time so slow drift is judged against
        # reality, not a one-off fast window.
        self._frozen_time = min(self._frozen_time, measured_s)
        return "frozen"

    # ------------------------------------------------------------------
    def _pruned_sweep(self) -> List[TunedConfig]:
        grid = candidate_grid(
            self.best_config,
            tune_comm_hook=self.tune_comm_hook,
            tune_algorithm=self.tune_algorithm,
        )
        fresh = [config for config in grid if config not in self.measured]
        kept = cost_prior.prune_candidates(
            fresh,
            self.model_bytes,
            self.world_size,
            backward_compute_s=self._backward_estimate,
            keep=self.sweep_keep,
            backend=self.backend,
        )
        return kept

    def _hill_frontier(self) -> List[TunedConfig]:
        self._frontier_origin = self.best_config
        self._frontier_best = self.best_time
        frontier = [
            config
            for config in neighbors(self.best_config, tune_comm_hook=self.tune_comm_hook)
            if config not in self.measured
            and (self.tune_algorithm or config.algorithm == self.best_config.algorithm)
        ]
        # Seeded shuffle: diversifies the climb order without breaking
        # cross-rank determinism (same seed everywhere).
        self._rng.shuffle(frontier)
        return frontier

    def _freeze(self) -> None:
        self._frozen_time = self.best_time
        self._drift_count = 0

    def _log(
        self, config: TunedConfig, measured_s: float, action: str, signals: dict
    ) -> None:
        self.history.append(
            {
                "window": self.windows,
                "state": self.state,
                "action": action,
                "config": config.as_dict(),
                "measured_s": measured_s,
                "best_s": self.best_time,
                "best_config": self.best_config.as_dict(),
                "overlap_ratio": signals.get("overlap_ratio"),
            }
        )

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Snapshot for ``ddp_stats()["autotune"]`` / autotunectl."""
        return {
            "state": self.state,
            "windows": self.windows,
            "rollbacks": self.rollbacks,
            "retunes": self.retunes,
            "active_config": self.active_config.as_dict(),
            "best_config": self.best_config.as_dict(),
            "best_time_s": None if self.best_time == float("inf") else self.best_time,
            "configs_measured": len(self.measured),
        }
