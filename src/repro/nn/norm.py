"""Normalization layers.

``BatchNorm*`` keeps *buffers* (running mean/var and a batch counter) —
the model state that DDP must broadcast from rank 0 before synchronized
forward passes (paper §4.1, "Model Buffers").  Keeping them here makes
the buffer-broadcast code path real rather than hypothetical.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, Parameter


class _BatchNorm(Module):
    """Shared machinery for BatchNorm1d/2d: both normalize over every
    axis but the channel axis 1."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", Tensor(np.zeros(num_features)))
        self.register_buffer("running_var", Tensor(np.ones(num_features)))
        self.register_buffer("num_batches_tracked", Tensor(np.zeros(1)))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            stats: list = []
            out = ops.batch_norm(x, self.weight, self.bias, eps=self.eps, stats=stats)
            self.track(stats)
            return out
        shape = (1, -1) + (1,) * (x.ndim - 2)
        mean = Tensor(self.running_mean.data.reshape(shape))
        var = Tensor(self.running_var.data.reshape(shape))
        normalized = (x - mean) * Tensor((var.data + self.eps) ** -0.5)
        return normalized * self.weight.reshape(shape) + self.bias.reshape(shape)

    def track(self, stats: list) -> None:
        """Fold one batch's ``[mean, biased variance, elements per
        channel]``, what a training-mode op hands its ``stats`` list, into
        the running statistics, outside the tape."""
        mean, var, count = stats
        unbiased = var * count / max(count - 1, 1)
        m = self.momentum
        self.running_mean.data[...] = (1 - m) * self.running_mean.data + m * mean
        self.running_var.data[...] = (1 - m) * self.running_var.data + m * unbiased
        self.num_batches_tracked.data += 1


class BatchNorm1d(_BatchNorm):
    """Normalizes (N, C) or (N, C, L) inputs over the batch dimension(s)."""


class BatchNorm2d(_BatchNorm):
    """Normalizes (N, C, H, W) inputs over N, H, W."""


class LayerNorm(Module):
    """Normalizes over the last dimension (transformer-style)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.weight, self.bias, eps=self.eps)
