"""Learning-rate schedulers operating on optimizer param groups."""

from __future__ import annotations

import math
from typing import Callable, List

from repro.optim.optimizer import Optimizer


class _Scheduler:
    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lrs: List[float] = [g["lr"] for g in optimizer.param_groups]
        self.last_epoch = 0

    def get_lr(self) -> List[float]:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self) -> None:
        self.last_epoch += 1
        for group, lr in zip(self.optimizer.param_groups, self.get_lr()):
            group["lr"] = lr

    @property
    def current_lrs(self) -> List[float]:
        return [g["lr"] for g in self.optimizer.param_groups]


class StepLR(_Scheduler):
    """Multiply LR by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        if step_size < 1:
            raise ValueError(f"invalid step_size {step_size}: must be >= 1")
        super().__init__(optimizer)
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> List[float]:
        factor = self.gamma ** (self.last_epoch // self.step_size)
        return [base * factor for base in self.base_lrs]


class CosineAnnealingLR(_Scheduler):
    """Cosine decay from base LR to ``eta_min`` over ``t_max`` epochs."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0):
        if t_max < 1:
            raise ValueError(f"invalid t_max {t_max}: must be >= 1")
        super().__init__(optimizer)
        self.t_max = t_max
        self.eta_min = eta_min

    def get_lr(self) -> List[float]:
        progress = min(self.last_epoch, self.t_max) / self.t_max
        scale = (1 + math.cos(math.pi * progress)) / 2
        return [self.eta_min + (base - self.eta_min) * scale for base in self.base_lrs]


class LambdaLR(_Scheduler):
    """LR = base * fn(epoch)."""

    def __init__(self, optimizer: Optimizer, lr_lambda: Callable[[int], float]):
        super().__init__(optimizer)
        self.lr_lambda = lr_lambda

    def get_lr(self) -> List[float]:
        factor = self.lr_lambda(self.last_epoch)
        return [base * factor for base in self.base_lrs]
