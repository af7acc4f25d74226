"""Differentiable function nodes for the autograd tape.

Each primitive operation subclasses :class:`Function` and implements a pair
of static methods, ``forward`` and ``backward``.  ``Function.apply`` runs
the forward computation on raw numpy arrays and, when gradients are
enabled and at least one input requires them, records a node on the tape.

The recorded node keeps ``next_edges``: one entry per input, pointing at
either the producing node (for interior tensors), the input's
``AccumulateGrad`` node (for leaf tensors that require grad), or ``None``
(for inputs that do not need gradients).  The backward engine walks these
edges in reverse topological order.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.engine import is_grad_enabled
from repro.autograd.tensor import Tensor


class Context:
    """Scratch space a Function's forward leaves for its backward.

    ``save_for_backward`` stores arrays; arbitrary attributes may also be
    assigned (e.g. ``ctx.shape = x.shape``) exactly as in PyTorch.

    ``needs_input_grad`` — one bool per forward input, true where the
    input has an edge — exists only on the context of a *recorded* node
    (``Function.apply`` sets it after forward, from the edges it builds
    anyway), so ``backward`` may read it to skip a gradient nobody
    consumes; it must still return ``None`` in that input's position.

    ``grad_out`` maps an input position to the array the gradient for
    that input should be written into (see
    :attr:`Function.grad_destinations`); it is empty unless the engine
    offered one for this backward call.
    """

    __slots__ = ("saved", "needs_input_grad", "__dict__")
    grad_out: Mapping[int, np.ndarray] = MappingProxyType({})

    def __init__(self) -> None:
        self.saved: tuple = ()

    def save_for_backward(self, *arrays: Any) -> None:
        self.saved = arrays


class Function:
    """Base class for differentiable primitives.

    Subclasses implement::

        @staticmethod
        def forward(ctx, *array_inputs) -> np.ndarray

        @staticmethod
        def backward(ctx, grad_output) -> tuple[Optional[np.ndarray], ...]

    ``backward`` must return one gradient (or ``None``) per tensor input
    of ``forward``, in order.

    ``grad_destinations`` lists the input positions at which
    ``backward`` returns a fresh array nobody else references, and
    honours ``ctx.grad_out[position]`` when present by computing that
    gradient *into* it (``out=``) and returning it.  The engine offers a
    leaf's bucket view there, so a parameter gradient is written once,
    straight into the buffer that is communicated, and
    :meth:`AccumulateGrad.accumulate` adopts a fresh array where no view
    is installed instead of copying it.
    """

    grad_destinations: Tuple[int, ...] = ()

    def __init__(self, ctx: Context, next_edges: Sequence[Optional[object]]):
        self.ctx = ctx
        self.next_edges = list(next_edges)
        # Sequence number lets the engine break ties deterministically and
        # lets tooling reconstruct execution order.
        self.seq_nr = _next_seq()

    # -- subclass API -------------------------------------------------
    @staticmethod
    def forward(ctx: Context, *inputs: Any) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):  # pragma: no cover
        raise NotImplementedError

    # -- machinery ----------------------------------------------------
    @classmethod
    def apply(cls, *inputs: Any, **kwargs: Any):
        """Run forward, and record a tape node when gradients are needed."""
        tensor_inputs = [inp for inp in inputs if isinstance(inp, Tensor)]
        raw = [inp.data if isinstance(inp, Tensor) else inp for inp in inputs]

        ctx = Context()
        out_data = cls.forward(ctx, *raw, **kwargs)

        needs_grad = is_grad_enabled() and any(
            t.requires_grad for t in tensor_inputs
        )
        out = Tensor(out_data, requires_grad=needs_grad)
        if needs_grad:
            edges: list[Optional[object]] = []
            for inp in inputs:
                if isinstance(inp, Tensor) and inp.requires_grad:
                    edges.append(inp._grad_edge())
                else:
                    edges.append(None)
            ctx.needs_input_grad = tuple(edge is not None for edge in edges)
            node = cls(ctx, edges)
            node.input_count = len(inputs)
            out.grad_fn = node
        return out

    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name()} seq={self.seq_nr}>"


import itertools

# itertools.count.__next__ is atomic under CPython, so concurrent
# forward passes (DataParallel's replica threads) get unique sequence
# numbers without a lock.
_seq_counter = itertools.count(1)


def _next_seq() -> int:
    return next(_seq_counter)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Broadcasting in the forward pass means the backward pass must sum the
    gradient over every broadcast dimension, otherwise gradient shapes
    drift away from parameter shapes.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading dims that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
