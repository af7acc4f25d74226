"""The tunable-knob registry: every knob the autotuner may move.

The paper hand-picks ``bucket_cap_mb=25`` and observes (§6.2.1, §7)
that the best bucket size and overlap configuration vary by model,
network, and world size.  This module is the single source of truth for
*which* knobs exist, their defaults, and the **safe ranges** the
autotuner is allowed to explore — the contract behind two guarantees:

* the tuner never applies a value outside a knob's safe range
  (:meth:`Knob.clamp` is applied on every proposal, and
  :func:`validate_config` re-checks before a config is installed);
* every knob in this registry is documented in ``docs/autotuning.md``
  — enforced by ``tools/check_docs.py`` in CI, so a knob cannot be
  added here without landing in the docs the same PR.

The registry is deliberately declarative: the search policy iterates
``KNOBS`` rather than hard-coding dimensions, so adding a knob here
automatically makes it tunable (and automatically fails the docs gate
until documented).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.units import MB

#: Comm-hook candidates the tuner may select when hook tuning is opted
#: in (``tune_comm_hook=True``).  ``None`` is the uncompressed native
#: path; names index :data:`repro.core.comm_hooks.HOOK_FACTORIES`.
HOOK_CHOICES: Tuple[Optional[str], ...] = (None, "fp16", "topk", "powersgd")

#: AllReduce algorithms the tuner may select; the choice governs buffers
#: above the group's size rule (``algorithms.allreduce_protocol``).
#: ``naive`` is excluded on purpose — above that rule it is a
#: correctness oracle, not a choice (docs/performance.md), and
#: ``hierarchical`` only pays off on multi-host topologies the thread
#: transport does not model.
ALGORITHM_CHOICES: Tuple[str, ...] = ("ring", "halving_doubling", "tree")


@dataclass(frozen=True)
class Knob:
    """One autotunable dimension.

    ``choices`` enumerates categorical knobs; numeric knobs use
    ``low``/``high`` (inclusive, both set) plus a ``grid`` of sweep
    candidates.
    ``signal`` names the telemetry signal that drives retunes of this
    knob — the row surfaced in the docs taxonomy table.
    """

    name: str
    kind: str  # "numeric" | "categorical"
    default: object
    signal: str
    env: Optional[str] = None
    low: Optional[float] = None
    high: Optional[float] = None
    grid: Tuple = ()
    choices: Tuple = ()

    def clamp(self, value):
        """Pull ``value`` back inside the safe range (numeric knobs) or
        onto a legal choice (categorical knobs fall back to default)."""
        if self.kind == "categorical":
            return value if value in self.choices else self.default
        return min(max(value, self.low), self.high)

    def in_range(self, value) -> bool:
        """Whether ``value`` lies inside this knob's safe range."""
        if self.kind == "categorical":
            return value in self.choices
        return self.low <= value <= self.high


#: The knob registry, keyed by :class:`TunedConfig` field name.
KNOBS: Dict[str, Knob] = {
    "bucket_cap_mb": Knob(
        name="bucket_cap_mb",
        kind="numeric",
        default=25.0,
        low=1.0,
        high=200.0,
        grid=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0),
        signal="per-bucket AllReduce latency + overlap ratio",
    ),
    "chunk_bytes": Knob(
        name="chunk_bytes",
        kind="numeric",
        default=1 * MB,
        env="REPRO_CHUNK_BYTES",
        low=64 * 1024,
        high=8 * MB,
        grid=(64 * 1024, 256 * 1024, 1 * MB, 4 * MB),
        signal="chunk-pipeline utilization",
    ),
    "algorithm": Knob(
        name="algorithm",
        kind="categorical",
        default="ring",
        choices=ALGORITHM_CHOICES,
        signal="achieved bus bandwidth vs cost-model frontier",
    ),
    "comm_hook": Knob(
        name="comm_hook",
        kind="categorical",
        default=None,
        choices=HOOK_CHOICES,
        signal="exposed comm time (opt-in: changes numerics)",
    ),
}


@dataclass(frozen=True)
class TunedConfig:
    """One point in the search space — hashable, comparable, loggable."""

    bucket_cap_mb: float = 25.0
    chunk_bytes: int = 1 * MB
    algorithm: str = "ring"
    comm_hook: Optional[str] = None

    def replace(self, **changes) -> "TunedConfig":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        """Plain-dict form for reports and JSON artifacts."""
        return asdict(self)

    def describe(self) -> str:
        """Compact one-line form for logs and trace annotations."""
        hook = self.comm_hook or "none"
        return (
            f"bucket={self.bucket_cap_mb:g}MB chunk={self.chunk_bytes // 1024}KB "
            f"alg={self.algorithm} hook={hook}"
        )


def default_config() -> TunedConfig:
    """The registry defaults as a :class:`TunedConfig`."""
    return TunedConfig(
        **{name: knob.default for name, knob in KNOBS.items()}
    )


def clamp_config(config: TunedConfig) -> TunedConfig:
    """Every knob pulled back inside its safe range."""
    return TunedConfig(
        **{name: knob.clamp(getattr(config, name)) for name, knob in KNOBS.items()}
    )


def validate_config(config: TunedConfig) -> None:
    """Raise ``ValueError`` naming every knob outside its safe range.

    The tuner calls this immediately before *applying* a config — the
    hard backstop behind the CI assertion that a tuned run never leaves
    the documented ranges.
    """
    problems = [
        f"{name}={getattr(config, name)!r} outside safe range "
        + (
            f"[{knob.low:g}, {knob.high:g}]"
            if knob.kind == "numeric"
            else f"{knob.choices!r}"
        )
        for name, knob in KNOBS.items()
        if not knob.in_range(getattr(config, name))
    ]
    if problems:
        raise ValueError("autotune config outside safe ranges: " + "; ".join(problems))


def candidate_grid(
    base: TunedConfig,
    tune_comm_hook: bool = False,
    tune_algorithm: bool = True,
) -> List[TunedConfig]:
    """The full sweep grid: the cross product of every knob's grid.

    The cost-model prior prunes this before anything is measured
    (:func:`repro.autotune.cost_prior.prune_candidates`); the grid
    itself is bounded (6 caps x 4 chunks x <=3 algorithms x <=4 hooks)
    so even the unpruned product stays enumerable.
    """
    configs = [base]
    for name, knob in KNOBS.items():
        if name == "comm_hook" and not tune_comm_hook:
            continue
        if name == "algorithm" and not tune_algorithm:
            continue
        values = knob.choices if knob.kind == "categorical" else knob.grid
        configs = [
            config.replace(**{name: value})
            for config in configs
            for value in values
        ]
    # De-duplicate while keeping deterministic order.
    seen = set()
    unique: List[TunedConfig] = []
    for config in configs:
        if config not in seen:
            seen.add(config)
            unique.append(config)
    return unique


def neighbors(config: TunedConfig, tune_comm_hook: bool = False) -> List[TunedConfig]:
    """Hill-climb moves: one knob stepped one grid/choice position.

    Numeric knobs move to the adjacent grid value on each side of the
    current value; categorical knobs move to each alternative choice.
    Every neighbor is clamped, so the climb cannot leave safe ranges.
    """
    moves: List[TunedConfig] = []
    for name, knob in KNOBS.items():
        if name == "comm_hook" and not tune_comm_hook:
            continue
        current = getattr(config, name)
        if knob.kind == "categorical":
            moves.extend(
                config.replace(**{name: choice})
                for choice in knob.choices
                if choice != current
            )
            continue
        grid = sorted(set(knob.grid) | {current})
        position = grid.index(current)
        for step in (-1, 1):
            neighbor = position + step
            if 0 <= neighbor < len(grid):
                moves.append(config.replace(**{name: grid[neighbor]}))
    return [clamp_config(move) for move in moves]


def knob_table() -> List[dict]:
    """Registry rows for reports and the docs taxonomy table."""
    rows = []
    for name, knob in KNOBS.items():
        if knob.kind == "categorical":
            safe = ", ".join(str(c) for c in knob.choices)
        else:
            safe = f"[{knob.low:g}, {knob.high:g}]"
        rows.append(
            {
                "knob": name,
                "kind": knob.kind,
                "env": knob.env,
                "default": knob.default,
                "safe_range": safe,
                "signal": knob.signal,
            }
        )
    return rows
