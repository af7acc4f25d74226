"""Adam and AdamW optimizers."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.optim.optimizer import BLOCK_ELEMENTS, Optimizer


class Adam(Optimizer):
    """Adam with bias correction; L2 is coupled (added to the gradient).

    Adam's second-moment state makes it sensitive to whether a gradient
    "participated" in an iteration — the exact regression the paper's
    globally-unused-parameter machinery exists to avoid (§3.2.3): DDP
    must not write zero gradients into absent parameters, or optimizers
    like this one will decay their moments incorrectly.
    """

    _decoupled_weight_decay = False

    def __init__(
        self,
        params: Iterable,
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if not 0.0 <= betas[0] < 1.0 or not 0.0 <= betas[1] < 1.0:
            raise ValueError(f"invalid betas {betas}")
        defaults = {"lr": lr, "betas": betas, "eps": eps, "weight_decay": weight_decay}
        super().__init__(params, defaults)

    def _kernel(self, group, units) -> None:
        lr = group["lr"]
        beta1, beta2 = group["betas"]
        eps = group["eps"]
        weight_decay = group["weight_decay"]
        coupled = weight_decay and not self._decoupled_weight_decay
        decoupled = weight_decay and self._decoupled_weight_decay
        for p, g, state in units:
            if "step" not in state:
                state["step"] = 0
                state["exp_avg"] = np.zeros_like(p)
                state["exp_avg_sq"] = np.zeros_like(p)
            state["step"] += 1
            step = state["step"]
            exp_avg, exp_avg_sq = state["exp_avg"], state["exp_avg_sq"]
            bias1 = 1 - beta1**step
            bias2 = 1 - beta2**step
            work_a, work_b = self._workspace(p.dtype)
            for lo in range(0, p.size, BLOCK_ELEMENTS):
                hi = lo + BLOCK_ELEMENTS
                pb, gb, mb, vb = p[lo:hi], g[lo:hi], exp_avg[lo:hi], exp_avg_sq[lo:hi]
                a, b = work_a[: pb.size], work_b[: pb.size]
                if coupled:
                    np.multiply(pb, weight_decay, out=a)
                    gb = np.add(gb, a, out=a)
                np.multiply(mb, beta1, out=mb)
                np.multiply(gb, 1 - beta1, out=b)
                np.add(mb, b, out=mb)
                np.multiply(vb, beta2, out=vb)
                np.multiply(gb, 1 - beta2, out=b)
                np.multiply(b, gb, out=b)
                np.add(vb, b, out=vb)
                # The gradient is spent: ``a`` becomes the denominator,
                # ``b`` the update lr * (m / bias1) / (sqrt(v / bias2) + eps).
                np.divide(vb, bias2, out=a)
                np.sqrt(a, out=a)
                np.add(a, eps, out=a)
                np.divide(mb, bias1, out=b)
                np.multiply(b, lr, out=b)
                np.divide(b, a, out=b)
                if decoupled:
                    np.multiply(pb, lr * weight_decay, out=a)
                    np.subtract(pb, a, out=pb)
                np.subtract(pb, b, out=pb)


class AdamW(Adam):
    """Adam with decoupled weight decay."""

    _decoupled_weight_decay = True
