"""repro: a from-scratch reproduction of *PyTorch Distributed:
Experiences on Accelerating Data Parallel Training* (Li et al., VLDB
2020).

Layered like the paper's Fig. 1, bottom-up:

* :mod:`repro.autograd` — tensors and the dynamic autograd engine with
  gradient-accumulator post-hooks.
* :mod:`repro.nn` / :mod:`repro.optim` — layers and optimizers.
* :mod:`repro.comm` — collective communication (the c10d analog):
  rendezvous store, transport, one-round and ring AllReduce,
  NCCL/Gloo-personality process groups.
* :mod:`repro.core` — the contribution: ``DistributedDataParallel``
  with gradient bucketing, computation/communication overlap,
  ``no_sync``, unused-parameter detection, communication hooks.
* :mod:`repro.simnet` / :mod:`repro.simulation` — calibrated hardware
  cost models and the discrete-event iteration simulator behind every
  latency figure.
* :mod:`repro.data` / :mod:`repro.models` — data pipelines and small
  real models for correctness and convergence experiments.

Quickstart::

    import numpy as np
    from repro import nn, optim
    from repro.autograd import Tensor
    from repro.comm import run_distributed
    from repro.core import DistributedDataParallel
    from repro.utils import manual_seed

    def train(rank):
        manual_seed(0)                       # identical replicas
        net = nn.Linear(10, 10)
        net = DistributedDataParallel(net)   # the only changed line
        opt = optim.SGD(net.parameters(), lr=0.01)
        inp, exp = Tensor(np.random.randn(20, 10)), Tensor(np.random.randn(20, 10))
        out = net(inp)
        nn.MSELoss()(out, exp).backward()
        opt.step()

    run_distributed(world_size=4, fn=train, backend="gloo")
"""

from repro import (
    autograd,
    baselines,
    comm,
    core,
    data,
    debug,
    experiments,
    models,
    nn,
    optim,
    sharded,
    simnet,
    simulation,
    telemetry,
    utils,
)
from repro.core import DistributedDataParallel

__version__ = "1.0.0"

__all__ = [
    "autograd",
    "baselines",
    "comm",
    "core",
    "data",
    "debug",
    "experiments",
    "models",
    "nn",
    "optim",
    "sharded",
    "simnet",
    "simulation",
    "telemetry",
    "utils",
    "DistributedDataParallel",
    "__version__",
]
