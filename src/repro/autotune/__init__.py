"""``repro.autotune`` — online tuning of the communication hot path.

The paper hand-picks its knobs (25 MB buckets, §6.2.1) and names
adaptive tuning as future work (§7); this package closes that loop.  A
per-job :class:`Autotuner` reads the reducer's per-iteration profile on
the training thread, agrees on measurements across ranks with a single
MAX-AllReduce per window, walks a seeded warmup → sweep → hill-climb → converge
search (:class:`SearchPolicy`) pruned by an analytic alpha-beta cost
prior (:mod:`repro.autotune.cost_prior`), and applies winning configs
live at safe iteration boundaries — with a rollback guard so a bad
step can never stick.

Enable it with ``DistributedDataParallel(..., autotune=True)``; observe
it via ``ddp_stats()["autotune"]`` or ``tools/autotunectl.py``.  Every
knob it may move is declared in :data:`repro.autotune.knobs.KNOBS` and
documented in ``docs/autotuning.md`` (enforced by ``tools/check_docs.py``).
"""

from repro.autotune.knobs import (
    KNOBS,
    Knob,
    TunedConfig,
    clamp_config,
    default_config,
    knob_table,
    validate_config,
)
from repro.autotune.policy import CONVERGED, HILL_CLIMB, SWEEP, WARMUP, SearchPolicy
from repro.autotune.service import Autotuner

__all__ = [
    "KNOBS",
    "Knob",
    "TunedConfig",
    "clamp_config",
    "default_config",
    "knob_table",
    "validate_config",
    "SearchPolicy",
    "Autotuner",
    "WARMUP",
    "SWEEP",
    "HILL_CLIMB",
    "CONVERGED",
]
