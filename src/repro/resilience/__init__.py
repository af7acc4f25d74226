"""Fault injection, reliable transport, and elastic recovery.

The paper treats robustness as a first-class property of the DDP stack:
collectives time out instead of hanging forever, desyncs are diagnosed
instead of corrupting silently, and production deployments expect ranks
to die.  This package makes each of those failure modes *inducible* and
*survivable*:

* :mod:`repro.resilience.faults` — seeded, declarative
  :class:`FaultPlan` rules (drop / delay / duplicate / corrupt /
  crash-rank / slow-rank) installed on the transport hub and picked up
  by process groups, so chaos runs are reproducible library features
  rather than ad-hoc test subclasses.
* :mod:`repro.resilience.transport` — :class:`ReliableTransportHub`,
  a retrying, acked, checksummed transport that absorbs drops,
  duplicates, and corruption; counters surface in ``ddp_stats()`` and
  the flight recorder.
* :mod:`repro.resilience.elastic` — :func:`run_elastic`, the
  shrink-to-survive supervisor: checkpoint, detect death (from the
  store-based beats of each rank's :mod:`repro.comm.liveness` monitor,
  in fractions of a second), re-rendezvous the survivors, restore,
  continue.

See ``docs/resilience.md`` for the taxonomy mapping paper failure modes
to injection rules and recovery behaviour.
"""

from repro.resilience.elastic import (
    ElasticConfig,
    ElasticContext,
    ElasticResult,
    RankFailedError,
    run_elastic,
)
from repro.resilience.faults import (
    CHECKPOINT,
    COLLECTIVE,
    ELASTIC,
    WIRE,
    FaultPlan,
    FaultRule,
    InjectedRankFailure,
    corrupt,
    corrupt_file,
    crash_rank,
    delay,
    delay_write,
    drop,
    duplicate,
    rejoin_rank,
    slow_rank,
)
from repro.resilience.transport import (
    ReliableTransportHub,
    RetryBudgetExceededError,
    RetryPolicy,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedRankFailure",
    "WIRE",
    "COLLECTIVE",
    "CHECKPOINT",
    "ELASTIC",
    "drop",
    "delay",
    "duplicate",
    "corrupt",
    "corrupt_file",
    "delay_write",
    "crash_rank",
    "rejoin_rank",
    "slow_rank",
    "ReliableTransportHub",
    "RetryPolicy",
    "RetryBudgetExceededError",
    "run_elastic",
    "ElasticConfig",
    "ElasticContext",
    "ElasticResult",
    "RankFailedError",
]
