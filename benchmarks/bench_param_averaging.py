"""Ablation: parameter averaging vs DDP (paper §2.2).

Two measurements:

1. **Timeline**: parameter averaging forces computation and
   communication into non-overlapping phases separated by
   ``optimizer.step()`` and communicates *parameters* (same volume as
   gradients) with zero overlap; DDP overlaps bucketed gradient
   AllReduce with the backward pass.
2. **Correctness drift**: with a stateful nonlinear optimizer (Adam),
   parameter averaging diverges from local large-batch training while
   DDP matches it to machine precision (measured on the threaded
   backend).
"""

import numpy as np

from repro import nn
from repro.autograd import Tensor
from repro.comm import get_context, run_distributed
from repro.core import DistributedDataParallel
from repro.core.param_avg import ParameterAveragingTrainer
from repro.optim import Adam
from repro.utils import manual_seed

from common import report


def bench_param_averaging_timeline(benchmark):
    from repro.experiments import ablations

    rows = benchmark(ablations.param_averaging_timeline)
    report(
        "ablation_param_avg_timeline",
        "Ablation: DDP (overlapped) vs parameter averaging (phase-separated), ResNet50",
        ["backend", "gpus", "ddp_latency_s", "param_avg_latency_s", "ddp_advantage"],
        rows,
    )
    for _, _, ddp_latency, avg_latency, _ in rows:
        assert ddp_latency <= avg_latency


def bench_param_averaging_drift(benchmark):
    """Measured §2.2 divergence with Adam on the threaded backend."""
    rng = np.random.default_rng(17)
    X, Y = rng.standard_normal((8, 6)), rng.integers(0, 4, 8)

    def measure():
        def make_model():
            manual_seed(23)
            return nn.Sequential(nn.Linear(6, 16), nn.ReLU(), nn.Linear(16, 4))

        # local full-batch reference
        reference = make_model()
        opt = Adam(reference.parameters(), lr=0.05)
        loss_fn = nn.CrossEntropyLoss()
        for _ in range(8):
            opt.zero_grad()
            loss_fn(reference(Tensor(X)), Y).backward()
            opt.step()
        ref_state = reference.state_dict()

        def ddp_body(rank):
            model = make_model()
            ddp = DistributedDataParallel(model)
            opt = Adam(ddp.parameters(), lr=0.05)
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(8):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            return ddp.state_dict()

        def avg_body(rank):
            model = make_model()
            pg = get_context().default_group
            opt = Adam(model.parameters(), lr=0.05)
            trainer = ParameterAveragingTrainer(model, opt, pg)
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(8):
                trainer.zero_grad()
                loss_fn(model(Tensor(X[shard])), Y[shard]).backward()
                trainer.step()
            return model.state_dict()

        ddp_state = run_distributed(2, ddp_body, backend="gloo")[0]
        avg_state = run_distributed(2, avg_body, backend="gloo")[0]
        ddp_drift = max(np.abs(ddp_state[n] - ref_state[n]).max() for n in ref_state)
        avg_drift = max(np.abs(avg_state[n] - ref_state[n]).max() for n in ref_state)
        return ddp_drift, avg_drift

    ddp_drift, avg_drift = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "ablation_param_avg_drift",
        "Ablation: drift from local full-batch Adam training after 8 iterations",
        ["method", "max_param_drift"],
        [("DDP (gradient averaging)", f"{ddp_drift:.2e}"),
         ("parameter averaging", f"{avg_drift:.2e}")],
    )
    assert ddp_drift < 1e-9
    assert avg_drift > 1e-4
