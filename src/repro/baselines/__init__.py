"""Baselines the paper positions DDP against.

* :mod:`~repro.baselines.parameter_server` — the P2P parameter-server
  architecture (§2.3, Table 1's asynchronous rows): a server rank owns
  the parameters and optimizer; worker ranks push gradients and pull
  parameters, synchronously (mathematically equivalent, but two network
  hops and a server bottleneck) or asynchronously (no barrier, but
  stale gradients).
* ``repro.core.param_avg`` (in the core package, because the paper
  discusses it in §2.2) — parameter averaging.
"""

from repro.baselines.parameter_server import (
    ParameterServer,
    ParameterServerWorker,
    run_parameter_server_training,
)

__all__ = [
    "ParameterServer",
    "ParameterServerWorker",
    "run_parameter_server_training",
]
