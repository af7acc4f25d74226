"""Loss functions.

The paper's experiments compute losses with ``CrossEntropyLoss`` and
``MSELoss`` (its §3.1 example); both are provided with mean/sum/none
reductions.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn.module import Module


def _reduce(value: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return value.mean()
    if reduction == "sum":
        return value.sum()
    if reduction == "none":
        return value
    raise ValueError(f"unknown reduction {reduction!r}")


class MSELoss(Module):
    def __init__(self, reduction: str = "mean"):
        super().__init__()
        self.reduction = reduction

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        diff = prediction - target
        return _reduce(diff * diff, self.reduction)


class NLLLoss(Module):
    """Negative log likelihood over log-probability inputs (N, C)."""

    def __init__(self, reduction: str = "mean"):
        super().__init__()
        self.reduction = reduction

    def forward(self, log_probs: Tensor, target) -> Tensor:
        target_idx = _target_indices(target)
        rows = np.arange(log_probs.shape[0])
        picked = log_probs[rows, target_idx]
        return _reduce(-picked, self.reduction)


class CrossEntropyLoss(Module):
    """Softmax cross entropy over raw logits (N, C), as one tape node
    (:class:`~repro.autograd.ops.CrossEntropy`)."""

    def __init__(self, reduction: str = "mean"):
        super().__init__()
        self.reduction = reduction

    def forward(self, logits: Tensor, target) -> Tensor:
        return ops.cross_entropy(logits, _target_indices(target), self.reduction)


def _target_indices(target) -> np.ndarray:
    data = target.data if isinstance(target, Tensor) else np.asarray(target)
    return data.astype(np.int64).reshape(-1)
