"""Convolution and pooling layers (NCHW)."""

from __future__ import annotations

import math

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.seed import get_rng


class Conv2d(Module):
    """2-D convolution with symmetric stride/padding and optional bias."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            np.empty((out_channels, in_channels, kernel_size, kernel_size))
        )
        init.kaiming_uniform_(self.weight)
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            bound = 1.0 / math.sqrt(fan_in)
            self.bias = Parameter(get_rng().uniform(-bound, bound, out_channels))
        else:
            self.register_parameter("bias", None)
            object.__setattr__(self, "bias", None)

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding
        )

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, pad={self.padding})"
        )


class _Pool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        return self._op(x, kernel=self.kernel_size, stride=self.stride)


class MaxPool2d(_Pool2d):
    _op = staticmethod(ops.max_pool2d)


class AvgPool2d(_Pool2d):
    _op = staticmethod(ops.avg_pool2d)


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
