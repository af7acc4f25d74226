"""A small CNN for the synthetic-MNIST convergence experiments (Fig. 11).

The paper "uses the MNIST dataset to train the ResNet"; at this
library's scale a compact BatchNorm'd CNN plays that role — it has the
same structural ingredients (convolutions, batch-norm buffers, a linear
head) while training in seconds.
"""

from __future__ import annotations

from repro import nn
from repro.autograd import ops
from repro.autograd.tensor import Tensor


class ConvStage(nn.Module):
    """Conv2d → BatchNorm2d → ReLU → MaxPool2d(2).  In training mode the
    stage is one tape node (:class:`~repro.autograd.ops.ConvStage`) that
    reads ``conv`` and ``bn``'s parameters here, inside the stage's own
    ``forward`` — what ZeRO-3, which gathers a unit when its ``forward``
    is entered, asks of a unit — and hands the batch statistics to
    ``bn.track``; in eval mode it is the composed modules."""

    def __init__(self, in_channels: int, out_channels: int):
        super().__init__()
        self.conv = nn.Conv2d(in_channels, out_channels, kernel_size=3, padding=1)
        self.bn = nn.BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        conv, bn = self.conv, self.bn
        if not self.training:
            return ops.max_pool2d(ops.relu(bn(conv(x))), 2)
        stats: list = []
        out = ops.conv_stage(x, conv.weight, conv.bias, bn.weight, bn.bias,
                             padding=conv.padding, eps=bn.eps, stats=stats)
        bn.track(stats)
        return out


class ConvNet(nn.Module):
    def __init__(self, num_classes: int = 10, channels: int = 8, image_size: int = 28):
        super().__init__()
        self.features = nn.Sequential(
            ConvStage(1, channels),
            ConvStage(channels, channels * 2),
        )
        spatial = image_size // 4
        self.head = nn.Sequential(
            nn.Flatten(),
            nn.Linear(channels * 2 * spatial * spatial, 64),
            nn.ReLU(),
            nn.Linear(64, num_classes),
        )

    def forward(self, x):
        return self.head(self.features(x))
