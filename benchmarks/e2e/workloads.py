"""The four workloads: constants, seeded inputs, model/optimizer builders.

Every constant here belongs to the workload, not to the run: ``--seed``
changes the generated arrays and the initial weights only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro import optim
from repro.data import DataLoader, DistributedSampler, TensorDataset, synthetic_mnist
from repro.models import MLP, ConvNet, TinyTransformer
from repro.utils import manual_seed

#: Warm-up iterations of set-up; their losses feed the correctness check.
WARMUP_ITERS = 5
#: Batches per rank and epoch before the sampler reshuffles.
BATCHES_PER_EPOCH = 32


@dataclass(frozen=True)
class Workload:
    name: str
    world: int
    batch: int  # per rank
    iters: int  # timed-window iterations at BENCHMARK.json's run_seconds
    wrapper: str  # "ddp" or "zero3"
    make_model: Callable
    make_arrays: Callable  # (rng, num_samples) -> (inputs, labels)
    make_optimizer: Callable  # params -> Optimizer
    ddp_kwargs: dict = field(default_factory=dict)
    #: Losses must equal single-process training on the concatenated batch
    #: (false where per-rank BatchNorm statistics make the maths differ).
    reference: bool = True

    def constants(self) -> dict:
        return {
            "world": self.world, "batch_per_rank": self.batch,
            "iters_at_run_seconds": self.iters, "wrapper": self.wrapper,
            "ddp_kwargs": dict(self.ddp_kwargs), "warmup_iters": WARMUP_ITERS,
            "reference_check": self.reference,
        }

    def timed_iters(self, scale: float) -> int:
        """``iters`` scaled by the run's arguments alone, never by a clock."""
        return max(8, round(self.iters * scale))

    def dataset(self, seed: int) -> TensorDataset:
        rng = np.random.default_rng(seed)
        return TensorDataset(
            *self.make_arrays(rng, self.world * self.batch * BATCHES_PER_EPOCH)
        )

    def model(self, seed: int):
        manual_seed(seed)
        return self.make_model()

    def batches(self, dataset, seed: int, rank: int) -> Iterator:
        """Endless per-rank batch stream: DataLoader over a
        DistributedSampler, reshuffled every epoch."""
        sampler = DistributedSampler(
            dataset, num_replicas=self.world, rank=rank, seed=seed
        )
        loader = DataLoader(dataset, batch_size=self.batch, sampler=sampler,
                            drop_last=True)
        epoch = 0
        while True:
            sampler.set_epoch(epoch)
            yield from loader
            epoch += 1


def _tokens(rng, n):
    return rng.integers(0, 256, (n, 32)), rng.integers(0, 8, n)


def _dense(rng, n):
    return rng.standard_normal((n, 1024)), rng.integers(0, 8, n)


def _digits(rng, n):
    return synthetic_mnist(n, seed=int(rng.integers(1 << 31))).arrays


def _transformer():
    return TinyTransformer(vocab_size=256, max_seq_len=32, hidden=128, num_heads=4,
                           num_layers=4, ffn_dim=512, num_classes=8)


def _adam(params):
    return optim.Adam(params, lr=1e-3)


# Iteration counts are the issue's 200/360/300/120 times 5/6, the one factor
# that keeps the smallest at 100 and 92 driver runs inside 3420 s on this box.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tfm_ddp_w2",
            world=2, batch=8, iters=167, wrapper="ddp",
            make_model=_transformer, make_arrays=_tokens, make_optimizer=_adam,
        ),
        Workload(
            name="mlp_ddp_bw_w2",
            world=2, batch=4, iters=300, wrapper="ddp",
            make_model=lambda: MLP(1024, [1024] * 4, 8), make_arrays=_dense,
            make_optimizer=lambda params: optim.SGD(params, lr=0.01, momentum=0.9),
        ),
        Workload(
            name="cnn_ddp_lat_w4",
            world=4, batch=16, iters=250, wrapper="ddp",
            make_model=lambda: ConvNet(channels=8), make_arrays=_digits,
            make_optimizer=lambda params: optim.SGD(params, lr=0.05),
            ddp_kwargs={"bucket_cap_mb": 0, "broadcast_buffers": True},
            reference=False,
        ),
        Workload(
            name="tfm_zero3_w2",
            world=2, batch=8, iters=100, wrapper="zero3",
            make_model=_transformer, make_arrays=_tokens, make_optimizer=_adam,
        ),
    )
}
