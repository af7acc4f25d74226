"""Fault injection and elastic recovery.

The paper treats robustness as a first-class property of the DDP stack:
collectives time out instead of hanging forever, desyncs are diagnosed
instead of corrupting silently, and production deployments expect ranks
to die.  This package makes each of those failure modes *inducible* and
*survivable*:

* :mod:`repro.resilience.faults` — seeded, declarative
  :class:`FaultPlan` rules (delay / crash-rank / slow-rank on the wire,
  torn or slow checkpoint writes, rejoin) installed on the transport
  hub and picked up by process groups, so chaos runs are reproducible
  library features rather than ad-hoc test subclasses.  There is no
  lossy-wire rule: the transports DDP runs on deliver reliably (paper
  §3.3), so a lost, duplicated or corrupted message is not a failure
  this runtime can have.
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
    corrupt_file,
    crash_rank,
    delay,
    delay_write,
    rejoin_rank,
    slow_rank,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedRankFailure",
    "WIRE",
    "COLLECTIVE",
    "CHECKPOINT",
    "ELASTIC",
    "delay",
    "corrupt_file",
    "delay_write",
    "crash_rank",
    "rejoin_rank",
    "slow_rank",
    "run_elastic",
    "ElasticConfig",
    "ElasticContext",
    "ElasticResult",
    "RankFailedError",
]
