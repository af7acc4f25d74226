"""Inverted dropout."""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.utils.seed import get_rng


class Dropout(Module):
    """Zeroes activations with probability ``p`` during training.

    The mask is drawn from the thread-local generator; ranks that want
    different masks (as in real data parallel training) seed per-rank,
    ranks that need identical replicas (equivalence tests) seed alike.
    """

    def __init__(self, p: float = 0.5):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (get_rng().random(x.shape) < keep).astype(x.dtype) / keep
        return x * Tensor(mask)
