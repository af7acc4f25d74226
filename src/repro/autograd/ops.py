"""Differentiable primitive operations.

Every public function here builds (at most) one tape node via
``Function.apply``.  Higher-level layers (``repro.nn``) compose these
primitives, which keeps each backward rule small and independently
testable against numeric differentiation.

The ops a per-op profile (``repro.autograd.profiler``) ranked at the top
of the transformer / MLP / ConvNet iteration are fused instead of
composed — :class:`Linear`, :class:`Gelu`, :class:`LayerNorm`,
:class:`Conv2d` (with bias), :class:`BatchNorm`, :class:`MaxPool2d` and
:class:`CrossEntropy`, a transformer block's :class:`SelfAttention`,
:class:`FeedForward` and :class:`AddLayerNorm`, and a ConvNet stage's
:class:`ConvStage` — and the formulations they replaced are kept as the
references in ``tests/test_fused_ops.py``.  Every op hands a parameter
its gradient C-contiguous in the parameter's layout.

The ops that produce parameter gradients — :class:`Linear`,
:class:`Conv2d`, :class:`LayerNorm`, :class:`AddLayerNorm`,
:class:`BatchNorm`, :class:`SelfAttention`, :class:`FeedForward` and
:class:`ConvStage` (biases and weights) and :class:`GetItem` (an
embedding table) — declare
``grad_destinations``: they compute those gradients with ``out=`` into
``ctx.grad_out[position]`` when the engine offers one (a bucket view),
and otherwise into a fresh array of their own that the accumulator
adopts.  The call is the one they would make anyway; only where its
result lands changes.  Temporaries take the dtype of the input or the
gradient, never a hard-coded float64, so a float32 model stays float32.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.autograd.function import Context, Function, unbroadcast

# ---------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------


class Add(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        return a + b

    @staticmethod
    def backward(ctx: Context, grad):
        return unbroadcast(grad, ctx.a_shape), unbroadcast(grad, ctx.b_shape)


class Sub(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        return a - b

    @staticmethod
    def backward(ctx: Context, grad):
        return unbroadcast(grad, ctx.a_shape), unbroadcast(-grad, ctx.b_shape)


class Mul(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.save_for_backward(a, b)
        return a * b

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        return unbroadcast(grad * b, a.shape), unbroadcast(grad * a, b.shape)


class Div(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.save_for_backward(a, b)
        return a / b

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        grad_a = unbroadcast(grad / b, a.shape)
        grad_b = unbroadcast(-grad * a / (b * b), b.shape)
        return grad_a, grad_b


class Neg(Function):
    @staticmethod
    def forward(ctx: Context, a):
        return -a

    @staticmethod
    def backward(ctx: Context, grad):
        return (-grad,)


class Pow(Function):
    @staticmethod
    def forward(ctx: Context, a, exponent: float):
        ctx.save_for_backward(a)
        ctx.exponent = exponent
        return a**exponent

    @staticmethod
    def backward(ctx: Context, grad):
        (a,) = ctx.saved
        return (grad * ctx.exponent * a ** (ctx.exponent - 1), None)


class Clone(Function):
    @staticmethod
    def forward(ctx: Context, a):
        return a.copy()

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad,)


# ---------------------------------------------------------------------
# transcendental / activation
# ---------------------------------------------------------------------


class Exp(Function):
    @staticmethod
    def forward(ctx: Context, a):
        out = np.exp(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * out,)


class Log(Function):
    @staticmethod
    def forward(ctx: Context, a):
        ctx.save_for_backward(a)
        return np.log(a)

    @staticmethod
    def backward(ctx: Context, grad):
        (a,) = ctx.saved
        return (grad / a,)


class Tanh(Function):
    @staticmethod
    def forward(ctx: Context, a):
        out = np.tanh(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * (1.0 - out * out),)


class Sigmoid(Function):
    @staticmethod
    def forward(ctx: Context, a):
        out = 1.0 / (1.0 + np.exp(-a))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * out * (1.0 - out),)


class Relu(Function):
    @staticmethod
    def forward(ctx: Context, a):
        mask = a > 0
        ctx.save_for_backward(mask)
        return a * mask

    @staticmethod
    def backward(ctx: Context, grad):
        (mask,) = ctx.saved
        return (grad * mask,)


class Abs(Function):
    @staticmethod
    def forward(ctx: Context, a):
        ctx.save_for_backward(np.sign(a))
        return np.abs(a)

    @staticmethod
    def backward(ctx: Context, grad):
        (sign,) = ctx.saved
        return (grad * sign,)


class Sqrt(Function):
    @staticmethod
    def forward(ctx: Context, a):
        out = np.sqrt(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad / (2.0 * out),)


class Clamp(Function):
    """Clip values into [low, high]; gradient is 1 inside, 0 outside."""

    @staticmethod
    def forward(ctx: Context, a, low=None, high=None):
        mask = np.ones_like(a, dtype=bool)
        if low is not None:
            mask &= a >= low
        if high is not None:
            mask &= a <= high
        ctx.save_for_backward(mask)
        return np.clip(a, low, high)

    @staticmethod
    def backward(ctx: Context, grad):
        (mask,) = ctx.saved
        return (grad * mask, None, None)


class Stack(Function):
    @staticmethod
    def forward(ctx: Context, *arrays, axis: int = 0):
        ctx.axis = axis
        return np.stack(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, grad):
        pieces = np.moveaxis(grad, ctx.axis, 0)
        return tuple(pieces[i] for i in range(pieces.shape[0]))


class Min(Function):
    @staticmethod
    def forward(ctx: Context, a, axis=None, keepdims: bool = False):
        out = a.min(axis=axis, keepdims=keepdims)
        ctx.save_for_backward(a, out)
        ctx.axis = axis
        ctx.keepdims = keepdims
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        a, out = ctx.saved
        out_b = _expand_reduced(out, a.shape, ctx.axis, ctx.keepdims)
        grad_b = _expand_reduced(grad, a.shape, ctx.axis, ctx.keepdims)
        mask = (a == out_b).astype(grad_b.dtype)
        counts = mask.sum(axis=ctx.axis, keepdims=True) if ctx.axis is not None else mask.sum()
        return (grad_b * mask / counts, None, None)


class Gelu(Function):
    """Gaussian error linear unit (tanh approximation, as in BERT).

    Forward computes the derivative beside the value
    (:func:`_gelu_with_slope`), so backward is one multiply and never
    re-runs ``tanh``.
    """

    @staticmethod
    def forward(ctx: Context, a):
        out = np.empty(a.shape, np.result_type(a, 1.0))
        ctx.save_for_backward(_gelu_with_slope(a, out))
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (slope,) = ctx.saved
        return (grad * slope,)


# Python floats: a numpy float64 scalar would promote float32 arrays.
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_K = 0.044715
#: Elements per GELU block: the two scratch blocks and one block of each
#: operand are 128 KB apiece and stay in a 1 MB L2.
_GELU_BLOCK = 16384


def _gelu_with_slope(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``gelu(a) = 0.5 a (1 + t)``, ``t = tanh(c (a + k a^3))``, into
    ``out`` (C-contiguous; ``a`` itself may be it) and return the slope
    ``0.5 (1 + t) + 0.5 a (1 - t^2) c (1 + 3 k a^2)``, a new array.

    Both come out of one pass of cache-sized blocks, as multiplies on two
    block-sized scratch arrays: no ``a**3`` (libm ``pow``), and no
    full-size temporary.
    """
    slope = np.empty(out.shape, out.dtype)
    a_flat, out_flat, slope_flat = np.ravel(a), out.reshape(-1), slope.reshape(-1)
    t_all = np.empty(a_flat[:_GELU_BLOCK].shape, out.dtype)  # one block, or all of a small input
    u_all = np.empty_like(t_all)
    for start in range(0, a_flat.size, _GELU_BLOCK):
        block = slice(start, start + _GELU_BLOCK)
        x, d = a_flat[block], slope_flat[block]
        t, u = t_all[: x.size], u_all[: x.size]
        np.multiply(x, x, out=t)
        np.multiply(t, 3.0 * _GELU_C * _GELU_K, out=d)
        d += _GELU_C  # c (1 + 3 k a^2)
        t *= _GELU_C * _GELU_K
        t += _GELU_C
        t *= x  # c (a + k a^3)
        np.tanh(t, out=t)
        np.multiply(t, t, out=u)
        np.subtract(1.0, u, out=u)  # sech^2
        np.multiply(u, d, out=d)
        d *= x
        d += t
        d += 1.0
        d *= 0.5
        t += 1.0
        t *= x
        np.multiply(t, 0.5, out=out_flat[block])  # last: ``x`` may be this block
    return slope


# ---------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------


class MatMul(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.save_for_backward(a, b)
        return a @ b

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        grad_a = grad @ np.swapaxes(b, -1, -2)
        grad_b = np.swapaxes(a, -1, -2) @ grad
        # Batched matmul broadcasts leading dims; fold them back.
        grad_a = unbroadcast(grad_a, a.shape)
        grad_b = unbroadcast(grad_b, b.shape)
        return grad_a, grad_b


class Linear(Function):
    """``x @ weight.T (+ bias)`` over the last dimension of ``x``.

    Leading dimensions are folded so forward and backward are one GEMM
    each, and ``grad_weight`` is produced directly as a C-contiguous
    ``(out, in)`` array — the layout a bucket view has and every
    optimizer sweeps at unit stride — by that GEMM, into the bucket view
    when the engine offers one.

    Inputs are ``(x, bias, weight)``: the engine hands gradients to
    leaves in input order, and bucket order (the reverse of
    ``parameters()``) assumes a layer's bias is ready before its weight.
    """

    grad_destinations = (1, 2)

    @staticmethod
    def forward(ctx: Context, x, bias, weight):
        ctx.save_for_backward(x, weight)
        ctx.has_bias = bias is not None
        out = x.reshape(-1, x.shape[-1]) @ weight.T
        if bias is not None:
            out += bias
        return out.reshape(x.shape[:-1] + (weight.shape[0],))

    @staticmethod
    def backward(ctx: Context, grad):
        x, weight = ctx.saved
        grad2 = grad.reshape(-1, grad.shape[-1])
        # The network input has no edge: nobody reads its gradient.
        grad_x = (grad2 @ weight).reshape(x.shape) if ctx.needs_input_grad[0] else None
        out = ctx.grad_out
        grad_weight = np.matmul(grad2.T, x.reshape(-1, x.shape[-1]), out=out.get(2))
        grad_bias = grad2.sum(axis=0, out=out.get(1)) if ctx.has_bias else None
        return grad_x, grad_bias, grad_weight


class Transpose(Function):
    @staticmethod
    def forward(ctx: Context, a, axis0: int, axis1: int):
        ctx.axes = (axis0, axis1)
        return np.swapaxes(a, axis0, axis1)

    @staticmethod
    def backward(ctx: Context, grad):
        axis0, axis1 = ctx.axes
        return (np.swapaxes(grad, axis0, axis1), None, None)


class Reshape(Function):
    @staticmethod
    def forward(ctx: Context, a, shape: tuple):
        ctx.shape = a.shape
        return a.reshape(shape)

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad.reshape(ctx.shape), None)


class GetItem(Function):
    """Indexing/slicing; backward scatter-adds, so fancy indexing with
    repeated indices (e.g. embedding lookups) accumulates correctly.
    An embedding table's gradient is scattered straight into its bucket
    view when the engine offers one."""

    grad_destinations = (0,)

    @staticmethod
    def forward(ctx: Context, a, index):
        ctx.shape = a.shape
        ctx.index = index
        return a[index]

    @staticmethod
    def backward(ctx: Context, grad):
        out = ctx.grad_out.get(0)
        if out is None:
            out = np.zeros(ctx.shape, dtype=grad.dtype)
        else:
            out.fill(0)
        np.add.at(out, ctx.index, grad)
        return (out, None)


class Concat(Function):
    @staticmethod
    def forward(ctx: Context, *arrays, axis: int = 0):
        ctx.axis = axis
        ctx.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, grad):
        splits = np.cumsum(ctx.sizes)[:-1]
        return tuple(np.split(grad, splits, axis=ctx.axis))


# ---------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------


class Sum(Function):
    @staticmethod
    def forward(ctx: Context, a, axis=None, keepdims: bool = False):
        ctx.shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad):
        grad = _expand_reduced(grad, ctx.shape, ctx.axis, ctx.keepdims)
        return (np.broadcast_to(grad, ctx.shape).copy(), None, None)


class Mean(Function):
    @staticmethod
    def forward(ctx: Context, a, axis=None, keepdims: bool = False):
        ctx.shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        # A Python int: a numpy int64 divisor would promote float32 to float64.
        ctx.count = a.size if axis is None else int(np.prod(
            [a.shape[ax] for ax in _normalize_axis(axis, a.ndim)]
        ))
        return a.mean(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad):
        grad = _expand_reduced(grad, ctx.shape, ctx.axis, ctx.keepdims)
        out = np.broadcast_to(grad, ctx.shape) / ctx.count
        return (out.copy(), None, None)


class Max(Function):
    @staticmethod
    def forward(ctx: Context, a, axis=None, keepdims: bool = False):
        out = a.max(axis=axis, keepdims=keepdims)
        ctx.save_for_backward(a, out)
        ctx.axis = axis
        ctx.keepdims = keepdims
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        a, out = ctx.saved
        out_b = _expand_reduced(out, a.shape, ctx.axis, ctx.keepdims)
        grad_b = _expand_reduced(grad, a.shape, ctx.axis, ctx.keepdims)
        mask = (a == out_b).astype(grad_b.dtype)
        # Split gradient evenly among ties, matching numeric-gradient tests.
        counts = mask.sum(axis=ctx.axis, keepdims=True) if ctx.axis is not None else mask.sum()
        return (grad_b * mask / counts, None, None)


class LogSoftmax(Function):
    @staticmethod
    def forward(ctx: Context, a, axis: int = -1):
        shifted = a - a.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - logsumexp
        ctx.save_for_backward(out)
        ctx.axis = axis
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        softmax = np.exp(out)
        return (grad - softmax * grad.sum(axis=ctx.axis, keepdims=True), None)


class CrossEntropy(Function):
    """Softmax cross entropy of ``(N, C)`` logits against integer targets
    as one node: log-softmax, the target's entry, negated, reduced by
    ``reduction`` (``"mean"``, ``"sum"`` or ``"none"``).  Backward is
    ``softmax * w`` with ``w`` taken once more off each target entry,
    ``w`` the incoming gradient over the reduction (``/ N`` for the mean).
    The targets are a plain array: they have no edge."""

    @staticmethod
    def forward(ctx: Context, logits, target, reduction: str = "mean"):
        if reduction not in ("mean", "sum", "none"):
            raise ValueError(f"unknown reduction {reduction!r}")
        log_probs = logits - logits.max(axis=1, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        rows = np.arange(log_probs.shape[0])
        losses = -log_probs[rows, target]
        ctx.save_for_backward(log_probs, rows, target)
        ctx.reduction = reduction
        if reduction == "mean":
            return losses.mean()
        return losses.sum() if reduction == "sum" else losses

    @staticmethod
    def backward(ctx: Context, grad):
        log_probs, rows, target = ctx.saved
        if ctx.reduction == "mean":
            grad = grad / log_probs.shape[0]  # a Python int: float32 stays float32
        grad_logits = np.exp(log_probs)
        grad_logits *= grad[:, None] if ctx.reduction == "none" else grad
        grad_logits[rows, target] -= grad
        return grad_logits, None


class Softmax(Function):
    @staticmethod
    def forward(ctx: Context, a, axis: int = -1):
        out = a - a.max(axis=axis, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=axis, keepdims=True)
        ctx.save_for_backward(out)
        ctx.axis = axis
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        grad_a = grad * out
        grad_a -= out * grad_a.sum(axis=ctx.axis, keepdims=True)
        return (grad_a,)


# ---------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------


class LayerNorm(Function):
    """``(x - mean) / sqrt(var + eps) * weight + bias`` over the last
    dimension, with the closed-form backward

    ``grad_x = rstd * (gw - mean(gw) - xhat * mean(gw * xhat))``,
    ``gw = grad * weight``.

    Inputs are ``(x, bias, weight)`` for the reason given in
    :class:`Linear`.
    """

    grad_destinations = (1, 2)

    @staticmethod
    def forward(ctx: Context, x, bias, weight, eps: float = 1e-5):
        return _layer_norm(ctx, x - x.mean(axis=-1, keepdims=True), bias, weight, eps)

    @staticmethod
    def backward(ctx: Context, grad):
        out = ctx.grad_out
        return _layer_norm_backward(ctx, grad, out.get(1), out.get(2))


class AddLayerNorm(Function):
    """``LayerNorm(x + residual)``: a transformer block's residual add and
    its normalisation as one node.  Both addends receive the same
    gradient.  Inputs are ``(x, residual, bias, weight)``."""

    grad_destinations = (2, 3)

    @staticmethod
    def forward(ctx: Context, x, residual, bias, weight, eps: float = 1e-5):
        total = x + residual
        total -= total.mean(axis=-1, keepdims=True)
        return _layer_norm(ctx, total, bias, weight, eps)

    @staticmethod
    def backward(ctx: Context, grad):
        out = ctx.grad_out
        grad_x, grad_bias, grad_weight = _layer_norm_backward(ctx, grad, out.get(2), out.get(3))
        return grad_x, grad_x, grad_bias, grad_weight


def _layer_norm(ctx: Context, xhat: np.ndarray, bias, weight, eps: float) -> np.ndarray:
    """Forward of :class:`LayerNorm` from the centred input ``xhat`` (the
    caller's own array, normalised in place and saved)."""
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat *= rstd
    ctx.save_for_backward(xhat, rstd, weight)
    out = xhat * weight
    out += bias
    return out


def _layer_norm_backward(ctx: Context, grad, bias_out, weight_out):
    """``(grad_x, grad_bias, grad_weight)`` of :func:`_layer_norm`, the
    parameter gradients computed into ``bias_out`` / ``weight_out`` when
    they are arrays."""
    xhat, rstd, weight = ctx.saved
    width = xhat.shape[-1]
    grad_bias = grad.reshape(-1, width).sum(axis=0, out=bias_out)
    scratch = grad * xhat
    grad_weight = scratch.reshape(-1, width).sum(axis=0, out=weight_out)
    grad_x = grad * weight
    np.multiply(grad_x, xhat, out=scratch)
    np.multiply(xhat, scratch.mean(axis=-1, keepdims=True), out=scratch)
    grad_x -= grad_x.mean(axis=-1, keepdims=True)
    grad_x -= scratch
    grad_x *= rstd
    return grad_x, grad_bias, grad_weight


class BatchNorm(Function):
    """Training-mode batch normalisation: ``(x - mean) / sqrt(var + eps)
    * weight + bias`` with the statistics taken over every axis but 1,
    so ``(N, C)``, ``(N, C, L)`` and ``(N, C, H, W)`` inputs share it.

    Closed-form backward, ``m`` elements per channel::

        grad_b = sum(g)    grad_w = sum(g * xhat)
        grad_x = weight * rstd * (g - grad_b / m - xhat * grad_w / m)

    ``stats``, when given, is a list that receives the batch mean and
    the biased batch variance (each ``(C,)``) and the element count per
    channel: the module's running statistics are built from them outside
    the tape.  Inputs are
    ``(x, bias, weight)`` for the reason given in :class:`Linear`.
    """

    grad_destinations = (1, 2)

    @staticmethod
    def forward(ctx: Context, x, bias, weight, eps: float = 1e-5, stats=None):
        axes = (0,) + tuple(range(2, x.ndim))
        ctx.axes = axes
        ctx.channel_shape = shape = (1, -1) + (1,) * (x.ndim - 2)
        mean = x.mean(axis=axes, keepdims=True)
        xhat = x - mean
        out = xhat * xhat  # the squares now, the result below
        var = out.mean(axis=axes, keepdims=True)
        if stats is not None:
            stats += (mean.reshape(-1), var.reshape(-1), x.size // x.shape[1])
        rstd = (var + eps) ** -0.5
        xhat *= rstd
        ctx.save_for_backward(xhat, rstd, weight)
        np.multiply(xhat, weight.reshape(shape), out=out)
        out += bias.reshape(shape)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        xhat, rstd, weight = ctx.saved
        axes, shape = ctx.axes, ctx.channel_shape
        per_channel = xhat.size // xhat.shape[1]
        grad_bias = grad.sum(axis=axes, out=ctx.grad_out.get(1))
        # One full-size array, in the activation's memory layout: first
        # the products for grad_weight, then grad_x built up in place.
        grad_x = np.multiply(grad, xhat, out=np.empty_like(xhat))
        grad_weight = grad_x.sum(axis=axes, out=ctx.grad_out.get(2))
        np.multiply(xhat, (grad_weight / -per_channel).reshape(shape), out=grad_x)
        grad_x += grad
        grad_x -= (grad_bias / per_channel).reshape(shape)
        grad_x *= weight.reshape(shape) * rstd
        return grad_x, grad_bias, grad_weight


# ---------------------------------------------------------------------
# transformer blocks
# ---------------------------------------------------------------------


class SelfAttention(Function):
    """Multi-head self-attention as one node: ``softmax(q k^T / sqrt(d))
    v`` per head, heads merged, then the output projection.

    Inputs are ``(x, output.bias, output.weight, value.bias, value.weight,
    key.bias, key.weight, query.bias, query.weight)``, the reverse of the
    module's registration order: the engine hands leaves their gradients
    in input order, which is then bucket order, as for :class:`Linear`.
    Forward is one GEMM against the query, key and value weights stacked
    per call, with the heads as views of its result; backward is one
    ``grad_x`` GEMM against the same stack, and computes every weight and
    bias gradient into ``ctx.grad_out`` when the engine offers it.
    """

    grad_destinations = (1, 2, 3, 4, 5, 6, 7, 8)

    @staticmethod
    def forward(ctx: Context, x, out_bias, out_weight, v_bias, v_weight, k_bias, k_weight,
                q_bias, q_weight, num_heads: int):
        batch, seq, width = x.shape
        head_dim = width // num_heads
        rows = x.reshape(-1, width)
        stacked = np.concatenate((q_weight, k_weight, v_weight))
        qkv = rows @ stacked.T
        qkv += np.concatenate((q_bias, k_bias, v_bias))
        # (3, batch, heads, seq, head_dim) views of the (rows, 3 * width) GEMM
        heads = qkv.reshape(batch, seq, 3, num_heads, head_dim).transpose(2, 0, 3, 1, 4)
        q, k, v = heads
        scale = 1.0 / math.sqrt(head_dim)
        probs = q @ k.swapaxes(-1, -2)
        probs *= scale
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        mixed = (probs @ v).transpose(0, 2, 1, 3).reshape(-1, width)
        out = mixed @ out_weight.T
        out += out_bias
        ctx.save_for_backward(rows, stacked, heads, probs, mixed, out_weight)
        ctx.scale = scale
        return out.reshape(x.shape)

    @staticmethod
    def backward(ctx: Context, grad):
        rows, stacked, (q, k, v), probs, mixed, out_weight = ctx.saved
        out = ctx.grad_out
        batch, num_heads, seq, head_dim = q.shape
        width = rows.shape[1]
        grad2 = grad.reshape(-1, width)
        grad_out_weight = np.matmul(grad2.T, mixed, out=out.get(2))
        grad_out_bias = grad2.sum(axis=0, out=out.get(1))
        grad_mixed = (grad2 @ out_weight).reshape(batch, seq, num_heads, head_dim)
        grad_mixed = grad_mixed.transpose(0, 2, 1, 3)
        # Gradients of q, k and v land in the layout of the forward's GEMM,
        # so one GEMM against ``stacked`` gives grad_x.
        grad_qkv = np.empty((batch, seq, 3, num_heads, head_dim), np.result_type(grad, probs))
        grad_q, grad_k, grad_v = grad_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(probs.swapaxes(-1, -2), grad_mixed, out=grad_v)
        grad_scores = grad_mixed @ v.swapaxes(-1, -2)
        grad_scores *= probs  # the softmax's backward, then the scale's
        grad_scores -= probs * grad_scores.sum(axis=-1, keepdims=True)
        grad_scores *= ctx.scale
        np.matmul(grad_scores, k, out=grad_q)
        np.matmul(grad_scores.swapaxes(-1, -2), q, out=grad_k)
        grad_qkv = grad_qkv.reshape(-1, 3 * width)
        grads = [None, grad_out_bias, grad_out_weight]
        for part, position in ((2, 3), (1, 5), (0, 7)):  # value, key, query
            columns = grad_qkv[:, part * width:(part + 1) * width]
            grads.append(columns.sum(axis=0, out=out.get(position)))
            grads.append(np.matmul(columns.T, rows, out=out.get(position + 1)))
        if ctx.needs_input_grad[0]:
            grads[0] = (grad_qkv @ stacked).reshape(grad.shape)
        return tuple(grads)


class FeedForward(Function):
    """A transformer block's ``gelu(x @ in_weight.T + in_bias) @
    out_weight.T + out_bias`` as one node.  GELU's slope is computed in the
    forward's blocks (:func:`_gelu_with_slope`) and saved, so backward
    multiplies by it and never re-runs ``tanh``.  Inputs are ``(x,
    out_bias, out_weight, in_bias, in_weight)``, reverse registration
    order as in :class:`SelfAttention`.
    """

    grad_destinations = (1, 2, 3, 4)

    @staticmethod
    def forward(ctx: Context, x, out_bias, out_weight, in_bias, in_weight):
        rows = x.reshape(-1, x.shape[-1])
        hidden = rows @ in_weight.T
        hidden += in_bias
        slope = _gelu_with_slope(hidden, hidden)  # GELU in place
        out = hidden @ out_weight.T
        out += out_bias
        ctx.save_for_backward(rows, hidden, slope, in_weight, out_weight)
        return out.reshape(x.shape[:-1] + (out_weight.shape[0],))

    @staticmethod
    def backward(ctx: Context, grad):
        rows, hidden, slope, in_weight, out_weight = ctx.saved
        out = ctx.grad_out
        grad2 = grad.reshape(-1, grad.shape[-1])
        grad_out_weight = np.matmul(grad2.T, hidden, out=out.get(2))
        grad_out_bias = grad2.sum(axis=0, out=out.get(1))
        grad_hidden = grad2 @ out_weight
        grad_hidden *= slope
        grad_in_weight = np.matmul(grad_hidden.T, rows, out=out.get(4))
        grad_in_bias = grad_hidden.sum(axis=0, out=out.get(3))
        grad_x = None
        if ctx.needs_input_grad[0]:
            grad_x = (grad_hidden @ in_weight).reshape(grad.shape[:-1] + (rows.shape[1],))
        return grad_x, grad_out_bias, grad_out_weight, grad_in_bias, grad_in_weight


# ---------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------


class Conv2d(Function):
    """2-D cross-correlation (+ bias) over NCHW inputs via im2col.

    Weight layout is ``(out_channels, in_channels, kh, kw)``; stride and
    zero padding are symmetric.  :func:`_im2col` copies the K-major patch
    matrix ``(C*kh*kw, N*oh*ow)`` in one call, so forward is one GEMM
    ``(oc, K) @ (K, M)`` whose channel-major result takes the bias as
    ``+= bias[:, None]`` and is returned as its NCHW *view*; ``grad_weight
    = G @ cols.T`` comes out C-contiguous in the weight's layout.
    Elementwise ops keep the memory order, so a following
    :class:`BatchNorm` hands the gradient back channel-major and ``G`` is
    a view too.  ``grad_x`` (a second GEMM and the col2im scatter) is
    skipped when the input has no edge — the first layer of a network.
    Inputs are ``(x, bias, weight)`` for the reason given in :class:`Linear`.
    """

    grad_destinations = (1, 2)

    @staticmethod
    def forward(ctx: Context, x, bias, weight, stride: int = 1, padding: int = 0):
        n, c, h, w = x.shape
        oc, ic, kh, kw = weight.shape
        if ic != c:
            raise ValueError(f"conv2d channel mismatch: input {c}, weight {ic}")
        out_h, out_w = _output_size("conv2d", (h, w), kh, kw, stride, padding)
        cols = _im2col(x, kh, kw, stride, padding)
        out = weight.reshape(oc, -1) @ cols
        if bias is not None:
            out += bias[:, None]
        ctx.save_for_backward(cols, weight)
        ctx.has_bias = bias is not None
        ctx.x_shape, ctx.stride, ctx.padding = x.shape, stride, padding
        return out.reshape(oc, n, out_h, out_w).transpose(1, 0, 2, 3)

    @staticmethod
    def backward(ctx: Context, grad):
        cols, weight = ctx.saved
        oc, _, kh, kw = weight.shape
        grad_mat = grad.transpose(1, 0, 2, 3).reshape(oc, -1)  # a view, if channel-major
        # The GEMM writes through a 2-D view of a weight-shaped array, so
        # what is returned is that array itself (its own base).
        grad_weight = ctx.grad_out.get(2)
        if grad_weight is None:
            grad_weight = np.empty(weight.shape, np.result_type(grad_mat, cols))
        np.matmul(grad_mat, cols.T, out=grad_weight.reshape(oc, -1))
        grad_bias = grad_mat.sum(axis=1, out=ctx.grad_out.get(1)) if ctx.has_bias else None
        grad_x = None
        if ctx.needs_input_grad[0]:
            grad_cols = weight.reshape(oc, -1).T @ grad_mat
            grad_x = _col2im(grad_cols, ctx.x_shape, kh, kw, ctx.stride, ctx.padding)
        return grad_x, grad_bias, grad_weight, None, None


class MaxPool2d(Function):
    """Separable max pooling: the maximum along W, then along H, each a
    running maximum over ``kernel`` strided views whose strict ``>`` keeps
    the first offset attaining it, ``argmax``'s row-major tie rule (ReLU's
    all-zero windows are the common tie).  Backward routes the gradient
    back along H, then W, accumulating only where windows overlap."""

    @staticmethod
    def forward(ctx: Context, x, kernel: int = 2, stride: Optional[int] = None):
        stride = kernel if stride is None else stride
        out_h, out_w = _output_size("max_pool2d", x.shape[2:], kernel, kernel, stride)
        rows, ctx.w_index = _max_along(x, 3, kernel, stride, out_w)
        out, ctx.h_index = _max_along(rows, 2, kernel, stride, out_h)
        ctx.x_shape, ctx.kernel, ctx.stride = x.shape, kernel, stride
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        rows = _route(grad, ctx.h_index, 2, ctx.kernel, ctx.stride, ctx.x_shape[2])
        grad_x = _route(rows, ctx.w_index, 3, ctx.kernel, ctx.stride, ctx.x_shape[3])
        grad_x += 0.0  # the -0.0 of ``g * False`` becomes +0.0, as in a sum from zeros
        return (grad_x, None, None)


def _along(axis: int, offset: int, count: int, stride: int) -> tuple:
    """Index of one in-window offset's strided view on ``axis``."""
    return (slice(None),) * axis + (slice(offset, offset + count * stride, stride),)


def _max_along(x: np.ndarray, axis: int, kernel: int, stride: int, count: int):
    """Each window's maximum along ``axis``, and its first offset in C
    order: the layout backward's masked products run fastest over."""
    first, *rest = (x[_along(axis, offset, count, stride)] for offset in range(kernel))
    second = rest[0] if rest else first  # kernel 1: each window is its own maximum
    out = np.maximum(first, second)
    index = np.greater(second, first, out=np.empty(first.shape, np.min_scalar_type(kernel - 1)))
    for offset, view in enumerate(rest[1:], start=2):
        better = view > out
        np.maximum(out, view, out=out)
        np.putmask(index, better, offset)
    return out, index


def _route(grad: np.ndarray, index, axis: int, kernel: int, stride: int, length: int):
    """``grad`` at each window's winning offset on ``axis`` (of ``length``), else 0."""
    out = np.zeros(grad.shape[:axis] + (length,) + grad.shape[axis + 1:], grad.dtype)
    for offset in range(kernel):
        view = out[_along(axis, offset, grad.shape[axis], stride)]
        if stride >= kernel:  # no position is in two windows
            np.multiply(grad, index == offset, out=view)
        else:
            view += grad * (index == offset)
    return out


class ConvStage(Function):
    """A ConvNet stage — :class:`Conv2d` with stride 1 and a bias,
    training-mode :class:`BatchNorm`, :class:`Relu` and a 2x2
    :class:`MaxPool2d` — as one node, computed on the conv GEMM's
    channel-major ``(C, N*H*W)`` result.

    The batch statistics are row reductions of that matrix.  The conv
    bias cancels in the normalisation, so it enters only the batch mean
    handed to ``stats`` (for the running statistics), and its gradient
    is 0 in exact arithmetic.  The stage pools first and applies ReLU to
    the pooled quarter: max and ReLU commute, and with the first offset
    winning a tie the input gradient is the same — a window whose
    maximum is not positive passes no gradient either way, and equal
    positive maxima tie the same before and after ReLU.

    Inputs are ``(x, bn_bias, bn_weight, conv_bias, conv_weight)``, the
    reverse of the stage's registration order, as in
    :class:`SelfAttention`; backward computes all four parameter
    gradients into ``ctx.grad_out`` when the engine offers it, and
    skips ``grad_x`` when the input has no edge, as :class:`Conv2d` does.
    ``stats`` is :class:`BatchNorm`'s.  The output is the NCHW view of
    channel-major memory.
    """

    grad_destinations = (1, 2, 3, 4)

    @staticmethod
    def forward(ctx: Context, x, bn_bias, bn_weight, conv_bias, conv_weight,
                padding: int = 0, eps: float = 1e-5, stats=None):
        n, c, h, w = x.shape
        oc, ic, kh, kw = conv_weight.shape
        if ic != c:
            raise ValueError(f"conv_stage channel mismatch: input {c}, weight {ic}")
        out_h, out_w = _output_size("conv_stage", (h, w), kh, kw, 1, padding)
        _output_size("conv_stage pool", (out_h, out_w), 2, 2, 2)  # a window must fit
        cols = _im2col(x, kh, kw, 1, padding)
        xhat = conv_weight.reshape(oc, -1) @ cols
        mean = xhat.mean(axis=1, keepdims=True)
        xhat -= mean
        var = np.einsum("ij,ij->i", xhat, xhat)[:, None]
        var /= xhat.shape[1]
        if stats is not None:
            stats += (mean.reshape(-1) + conv_bias, var.reshape(-1), xhat.shape[1])
        rstd = (var + eps) ** -0.5
        xhat *= rstd
        normed = np.multiply(xhat, bn_weight[:, None])
        normed += bn_bias[:, None]
        out, winner = _pool_relu(normed.reshape(oc, n, out_h, out_w))
        ctx.save_for_backward(cols, conv_weight, xhat, rstd, bn_weight, winner)
        ctx.x_shape, ctx.padding, ctx.conv_size = x.shape, padding, (out_h, out_w)
        return out.transpose(1, 0, 2, 3)

    @staticmethod
    def backward(ctx: Context, grad):
        cols, conv_weight, xhat, rstd, bn_weight, winner = ctx.saved
        out = ctx.grad_out
        oc, _, kh, kw = conv_weight.shape
        grad_y = _unpool_relu(grad.transpose(1, 0, 2, 3), winner, ctx.conv_size).reshape(oc, -1)
        count = grad_y.shape[1]
        grad_bn_bias = grad_y.sum(axis=1, out=out.get(1))
        grad_bn_weight = np.einsum("ij,ij->i", grad_y, xhat, out=out.get(2))
        scratch = np.multiply(xhat, (grad_bn_weight / -count)[:, None])
        scratch -= (grad_bn_bias / count)[:, None]
        grad_y += scratch
        grad_y *= (bn_weight * rstd.reshape(-1))[:, None]
        grad_conv_bias = grad_y.sum(axis=1, out=out.get(3))
        grad_weight = out.get(4)
        if grad_weight is None:
            grad_weight = np.empty(conv_weight.shape, np.result_type(grad_y, cols))
        np.matmul(grad_y, cols.T, out=grad_weight.reshape(oc, -1))
        grad_x = None
        if ctx.needs_input_grad[0]:
            grad_cols = conv_weight.reshape(oc, -1).T @ grad_y
            grad_x = _col2im(grad_cols, ctx.x_shape, kh, kw, 1, ctx.padding)
        return grad_x, grad_bn_bias, grad_bn_weight, grad_conv_bias, grad_weight


def _pool_relu(planes: np.ndarray):
    """``relu(max_pool2d(planes, 2))`` over the last two axes, and each
    window's winner for :func:`_unpool_relu`: its offset ``2 * row +
    column`` (``uint8``), or 4 where the maximum is not positive and ReLU
    passes nothing.  The maximum is separable, along W then along H, and
    a strict ``>`` keeps the first offset on a tie, as in
    :class:`MaxPool2d`."""
    rows_h, cols_w = (2 * (size // 2) for size in planes.shape[-2:])
    left, right = planes[..., 0:cols_w:2], planes[..., 1:cols_w:2]
    rows = np.maximum(left, right)
    right_won = right > left
    top, bottom = rows[..., 0:rows_h:2, :], rows[..., 1:rows_h:2, :]
    out = np.maximum(top, bottom)
    winner = np.where(bottom > top, right_won[..., 1:rows_h:2, :] + np.uint8(2),
                      right_won[..., 0:rows_h:2, :])
    np.putmask(winner, out <= 0, 4)
    np.maximum(out, 0.0, out=out)
    return out, winner


def _unpool_relu(grad: np.ndarray, winner: np.ndarray, size: tuple) -> np.ndarray:
    """The gradient of :func:`_pool_relu`'s input, ``size`` its last two
    axes: ``grad`` at each window's winner, 0 elsewhere."""
    rows_h, cols_w = (2 * (length // 2) for length in size)
    fill = np.empty if (rows_h, cols_w) == tuple(size) else np.zeros  # ragged: a zero edge
    out = fill(grad.shape[:-2] + tuple(size), grad.dtype)
    for offset in range(4):
        row, column = divmod(offset, 2)
        np.multiply(grad, winner == offset, out=out[..., row:rows_h:2, column:cols_w:2])
    return out


class AvgPool2d(Function):
    """Average pooling as the mean of :func:`_im2col`'s window columns;
    backward is :func:`_col2im` of the gradient shared over the window."""

    @staticmethod
    def forward(ctx: Context, x, kernel: int = 2, stride: Optional[int] = None):
        stride = kernel if stride is None else stride
        out_h, out_w = _output_size("avg_pool2d", x.shape[2:], kernel, kernel, stride)
        ctx.x_shape, ctx.kernel, ctx.stride = x.shape, kernel, stride
        cols = _im2col(x, kernel, kernel, stride, 0).reshape(x.shape[1], kernel * kernel, -1)
        return cols.mean(axis=1).reshape(-1, x.shape[0], out_h, out_w).transpose(1, 0, 2, 3)

    @staticmethod
    def backward(ctx: Context, grad):
        kernel, c = ctx.kernel, ctx.x_shape[1]
        share = (grad / (kernel * kernel)).transpose(1, 0, 2, 3).reshape(c, 1, -1)
        cols = np.broadcast_to(share, (c, kernel * kernel, share.shape[2]))
        return (_col2im(cols, ctx.x_shape, kernel, kernel, ctx.stride, 0), None, None)


def _output_size(op: str, size: tuple, kh: int, kw: int, stride: int, padding: int = 0):
    """``(out_h, out_w)``, or a ``ValueError`` naming a geometry with no output."""
    out_h, out_w = ((n + 2 * padding - k) // (stride or 1) + 1 for n, k in zip(size, (kh, kw)))
    if kh < 1 or kw < 1 or stride < 1 or padding < 0 or out_h < 1 or out_w < 1:
        raise ValueError(f"{op}: kernel {kh}x{kw}, stride {stride}, padding {padding} on a "
                         f"{size[0]}x{size[1]} input has no output")
    return out_h, out_w


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """The ``(C*kh*kw, N*out_h*out_w)`` patch matrix of an NCHW array: one copy
    from a ``(C, kh, kw, N, out_h, out_w)`` view of its padded channel-major memory."""
    n, c, h, w = x.shape
    channel_major = x.transpose(1, 0, 2, 3)
    if padding:
        padded = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = channel_major
        channel_major = padded
    windows = np.lib.stride_tricks.sliding_window_view(channel_major, (kh, kw), axis=(2, 3))
    patches = windows[:, :, ::stride, ::stride].transpose(0, 4, 5, 1, 2, 3)
    return np.ascontiguousarray(patches).reshape(c * kh * kw, -1)


def _col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, padding: int):
    """Scatter-add a patch matrix back onto an NCHW array (the transpose of
    :func:`_im2col`), separably: ``kw`` offsets along W, then ``kh`` along H."""
    n, c, h, w = x_shape
    ph, pw = h + 2 * padding, w + 2 * padding
    out_h, out_w = (ph - kh) // stride + 1, (pw - kw) // stride + 1
    cols = cols.reshape(c, kh, kw, n, out_h, out_w)
    rows = np.zeros((c, kh, n, out_h, pw), dtype=cols.dtype)
    for kj in range(kw):
        rows[_along(4, kj, out_w, stride)] += cols[:, :, kj]
    padded = np.zeros((c, n, ph, pw), dtype=cols.dtype)
    for ki in range(kh):
        padded[_along(2, ki, out_h, stride)] += rows[:, ki]
    return padded[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)


# ---------------------------------------------------------------------
# public functional wrappers
# ---------------------------------------------------------------------


def add(a, b):
    return Add.apply(a, b)


def sub(a, b):
    return Sub.apply(a, b)


def mul(a, b):
    return Mul.apply(a, b)


def div(a, b):
    return Div.apply(a, b)


def neg(a):
    return Neg.apply(a)


def pow(a, exponent):  # noqa: A001 - mirrors torch naming
    return Pow.apply(a, exponent)


def clone(a):
    return Clone.apply(a)


def exp(a):
    return Exp.apply(a)


def log(a):
    return Log.apply(a)


def tanh(a):
    return Tanh.apply(a)


def sigmoid(a):
    return Sigmoid.apply(a)


def relu(a):
    return Relu.apply(a)


def gelu(a):
    return Gelu.apply(a)


def abs(a):  # noqa: A001 - mirrors torch naming
    return Abs.apply(a)


def sqrt(a):
    return Sqrt.apply(a)


def clamp(a, low=None, high=None):
    return Clamp.apply(a, low=low, high=high)


def stack(tensors, axis: int = 0):
    return Stack.apply(*tensors, axis=axis)


def min(a, axis=None, keepdims: bool = False):  # noqa: A001
    return Min.apply(a, axis=axis, keepdims=keepdims)


def split(a, sections: int, axis: int = 0):
    """Split into ``sections`` equal parts along ``axis`` (gradient flows
    through the underlying slicing)."""
    length = a.shape[axis]
    if length % sections:
        raise ValueError(f"cannot split axis of size {length} into {sections} parts")
    step = length // sections
    index: list = [slice(None)] * a.ndim
    parts = []
    for start in range(0, length, step):
        index[axis] = slice(start, start + step)
        parts.append(getitem(a, tuple(index)))
    return parts


def matmul(a, b):
    return MatMul.apply(a, b)


def linear(x, weight, bias=None):
    """``x @ weight.T (+ bias)`` as one tape node; ``weight`` is ``(out, in)``."""
    return Linear.apply(x, bias, weight)


def layer_norm(x, weight, bias, eps: float = 1e-5):
    """Normalize over the last dimension, then scale and shift, as one node."""
    return LayerNorm.apply(x, bias, weight, eps=eps)


def add_layer_norm(x, residual, weight, bias, eps: float = 1e-5):
    """``layer_norm(x + residual, weight, bias, eps)`` as one node."""
    return AddLayerNorm.apply(x, residual, bias, weight, eps=eps)


def self_attention(x, query, key, value, output, num_heads: int):
    """Multi-head self-attention over ``(batch, seq, width)`` ``x`` as one
    node; ``query``, ``key``, ``value`` and ``output`` are ``(weight,
    bias)`` pairs, each weight ``(width, width)``."""
    return SelfAttention.apply(x, *output[::-1], *value[::-1], *key[::-1], *query[::-1],
                               num_heads=num_heads)


def feed_forward(x, in_weight, in_bias, out_weight, out_bias):
    """``linear(gelu(linear(x, in_weight, in_bias)), out_weight, out_bias)``
    as one node."""
    return FeedForward.apply(x, out_bias, out_weight, in_bias, in_weight)


def transpose(a, axis0: int, axis1: int):
    return Transpose.apply(a, axis0, axis1)


def reshape(a, shape: tuple):
    return Reshape.apply(a, shape)


def getitem(a, index):
    return GetItem.apply(a, index)


def cat(tensors, axis: int = 0):
    return Concat.apply(*tensors, axis=axis)


def sum(a, axis=None, keepdims: bool = False):  # noqa: A001
    return Sum.apply(a, axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims: bool = False):
    return Mean.apply(a, axis=axis, keepdims=keepdims)


def max(a, axis=None, keepdims: bool = False):  # noqa: A001
    return Max.apply(a, axis=axis, keepdims=keepdims)


def log_softmax(a, axis: int = -1):
    return LogSoftmax.apply(a, axis=axis)


def softmax(a, axis: int = -1):
    return Softmax.apply(a, axis=axis)


def cross_entropy(logits, target, reduction: str = "mean"):
    """Softmax cross entropy of ``(N, C)`` logits against ``(N,)`` integer
    targets (an array) as one node."""
    return CrossEntropy.apply(logits, target, reduction=reduction)


def batch_norm(x, weight, bias, eps: float = 1e-5, stats=None):
    """Normalize by the batch statistics over every axis but 1, then
    scale and shift, as one node; ``stats`` (a list) receives the batch
    mean, the biased variance and the count they were taken over."""
    return BatchNorm.apply(x, bias, weight, eps=eps, stats=stats)


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0):
    """Cross-correlate NCHW ``x`` with ``(oc, ic, kh, kw)`` ``weight``
    (+ per-channel ``bias``) as one tape node."""
    return Conv2d.apply(x, bias, weight, stride=stride, padding=padding)


def conv_stage(x, conv_weight, conv_bias, bn_weight, bn_bias, padding: int = 0,
               eps: float = 1e-5, stats=None):
    """``max_pool2d(relu(batch_norm(conv2d(x, ...), ...)), 2)`` in training
    mode, the conv's stride 1, as one node; ``stats`` as in
    :func:`batch_norm`."""
    return ConvStage.apply(x, bn_bias, bn_weight, conv_bias, conv_weight, padding=padding,
                           eps=eps, stats=stats)


def max_pool2d(x, kernel: int = 2, stride: Optional[int] = None):
    return MaxPool2d.apply(x, kernel=kernel, stride=stride)


def avg_pool2d(x, kernel: int = 2, stride: Optional[int] = None):
    return AvgPool2d.apply(x, kernel=kernel, stride=stride)


# ---------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------


def _normalize_axis(axis, ndim: int) -> Tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _expand_reduced(grad: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Reinsert reduced axes so ``grad`` broadcasts against ``shape``."""
    grad = np.asarray(grad)
    if axis is None or keepdims:
        return grad.reshape([1] * len(shape)) if axis is None and not keepdims else grad
    for ax in sorted(_normalize_axis(axis, len(shape))):
        grad = np.expand_dims(grad, ax)
    return grad
