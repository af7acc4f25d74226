"""Fully connected layer."""

from __future__ import annotations

import math

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.seed import get_rng


class Linear(Module):
    """``y = x @ W^T + b`` over the last input dimension.

    Weight is registered before bias, so reverse-parameter-order bucketing
    sees ``(bias, weight)`` per layer — matching the gradient readiness
    order sketched in the paper's Fig. 4.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((out_features, in_features)))
        init.kaiming_uniform_(self.weight)
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(get_rng().uniform(-bound, bound, out_features))
        else:
            self.register_parameter("bias", None)
            object.__setattr__(self, "bias", None)

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        has_bias = self._parameters.get("bias") is not None
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={has_bias})"
