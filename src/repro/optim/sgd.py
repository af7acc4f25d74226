"""Stochastic gradient descent with momentum, weight decay, nesterov."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.optim.optimizer import BLOCK_ELEMENTS, Optimizer


class SGD(Optimizer):
    """Matches ``torch.optim.SGD`` update semantics.

    With ``momentum > 0`` the buffer ``v`` evolves as
    ``v <- mu * v + g`` and parameters as ``p <- p - lr * v`` (or the
    nesterov variant).  The buffer depends on the entire gradient
    history, which is why parameter averaging diverges from gradient
    averaging (paper §2.2): averaged parameters do not imply averaged
    momentum buffers.
    """

    def __init__(
        self,
        params: Iterable,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        if lr < 0.0:
            raise ValueError(f"invalid learning rate {lr}")
        if nesterov and momentum <= 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        defaults = {
            "lr": lr,
            "momentum": momentum,
            "weight_decay": weight_decay,
            "nesterov": nesterov,
        }
        super().__init__(params, defaults)

    def _kernel(self, group, units) -> None:
        lr = group["lr"]
        momentum = group["momentum"]
        weight_decay = group["weight_decay"]
        nesterov = group["nesterov"]
        for p, g, state in units:
            work_a, work_b = self._workspace(p.dtype)
            buf = first = None
            if momentum:
                buf = state.get("momentum_buffer")
                first = buf is None
                if first:
                    buf = state["momentum_buffer"] = np.empty_like(p)
            for lo in range(0, p.size, BLOCK_ELEMENTS):
                hi = lo + BLOCK_ELEMENTS
                pb, gb = p[lo:hi], g[lo:hi]
                a = work_a[: pb.size]
                if weight_decay:
                    np.multiply(pb, weight_decay, out=a)
                    gb = np.add(gb, a, out=a)
                if momentum:
                    vb = buf[lo:hi]
                    if first:
                        np.copyto(vb, gb)
                    else:
                        np.multiply(vb, momentum, out=vb)
                        np.add(vb, gb, out=vb)
                    if nesterov:
                        b = work_b[: pb.size]
                        np.multiply(vb, momentum, out=b)
                        gb = np.add(gb, b, out=b)
                    else:
                        gb = vb
                np.multiply(gb, lr, out=a)
                np.subtract(pb, a, out=pb)
