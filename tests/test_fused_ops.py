"""Fused compute kernels: Linear, Gelu, LayerNorm, Softmax, Conv2d,
BatchNorm, MaxPool2d, CrossEntropy, the transformer block's
SelfAttention, FeedForward and AddLayerNorm, and the ConvNet stage's
ConvStage.

The formulations these kernels replaced live on here as the references:
each fused op must match its reference to 1e-12 in value and in every
input gradient, pass ``gradcheck``, and hand every leaf gradient to
``AccumulateGrad`` C-contiguous in the parameter's layout — locally,
under DDP (view and copy mode) and under ZeRO-3.
"""

import heapq
import math

import numpy as np
import pytest

from repro import nn
from repro.autograd import (
    AccumulateGrad,
    Tensor,
    collect_participating_accumulators,
    gradcheck,
    ops,
)
from repro.autograd import engine as engine_module
from repro.autograd.function import Context, Function
from repro.autograd.graph import graph_node_count
from repro.autograd.profiler import main as profiler_main
from repro.autograd.profiler import profile_ops
from repro.comm import get_context
from repro.core import DistributedDataParallel
from repro.models import MLP, ConvNet, TinyTransformer
from repro.models.convnet import ConvStage
from repro.models.transformer import MultiHeadSelfAttention, TransformerBlock
from repro.nn.norm import _BatchNorm
from repro.optim import SGD
from repro.sharded import FullyShardedDataParallel
from repro.utils import manual_seed

from conftest import run_world

TOL = 1e-12


# -- the composed-primitive references ---------------------------------

def linear_reference(x, weight, bias=None):
    out = x @ weight.T
    return out if bias is None else out + bias


def gelu_reference(x):
    inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + ops.tanh(inner))


def layer_norm_reference(x, weight, bias, eps=1e-5):
    mean = ops.mean(x, axis=-1, keepdims=True)
    centered = x - mean
    var = ops.mean(centered * centered, axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * weight + bias


def scaled_softmax_reference(x, scale):
    scaled = x * scale
    e = ops.exp(scaled - Tensor(scaled.data.max(axis=-1, keepdims=True)))
    return e / ops.sum(e, axis=-1, keepdims=True)


def attention_reference(x, q_weight, q_bias, k_weight, k_bias, v_weight, v_bias,
                        o_weight, o_bias, num_heads):
    """The chain ``ops.SelfAttention`` replaced: four Linears, heads split
    by Reshape + Transpose, two MatMuls and a scaled softmax."""
    batch, seq, width = x.shape
    head_dim = width // num_heads

    def split_heads(t):
        return ops.transpose(t.reshape(batch, seq, num_heads, head_dim), 1, 2)

    q = split_heads(linear_reference(x, q_weight, q_bias))
    k = split_heads(linear_reference(x, k_weight, k_bias))
    v = split_heads(linear_reference(x, v_weight, v_bias))
    weights = scaled_softmax_reference(q @ ops.transpose(k, 2, 3), 1.0 / math.sqrt(head_dim))
    merged = ops.transpose(weights @ v, 1, 2).reshape(batch, seq, width)
    return linear_reference(merged, o_weight, o_bias)


def feed_forward_reference(x, in_weight, in_bias, out_weight, out_bias):
    return linear_reference(gelu_reference(linear_reference(x, in_weight, in_bias)),
                            out_weight, out_bias)


def add_layer_norm_reference(x, residual, weight, bias, eps=1e-5):
    return layer_norm_reference(x + residual, weight, bias, eps)


def block_reference(x, *params, num_heads=2):
    """A ``TransformerBlock``, its parameters in ``parameters()`` order,
    as the composed primitives it ran before its four fused nodes."""
    attention, (w1, b1, wi, bi, wo, bo, w2, b2) = params[:8], params[8:]
    x = add_layer_norm_reference(x, attention_reference(x, *attention, num_heads), w1, b1)
    return add_layer_norm_reference(x, feed_forward_reference(x, wi, bi, wo, bo), w2, b2)


class Conv2dReference(Function):
    """The im2col convolution ``ops.Conv2d`` replaced: a padded copy, a
    6-D ``sliding_window_view`` gathered into an M-major patch matrix,
    and a transposed output made contiguous; bias is a separate ``Add``."""

    @staticmethod
    def forward(ctx: Context, x, weight, stride: int = 1, padding: int = 0):
        n, c, h, w = x.shape
        oc, _, kh, kw = weight.shape
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride, :, :]
        out_h, out_w = windows.shape[2:4]
        cols = np.ascontiguousarray(
            windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
        )
        ctx.save_for_backward(cols, weight)
        ctx.geometry = (x.shape, padded.shape, out_h, out_w, stride, padding)
        out = (cols @ weight.reshape(oc, -1).T).reshape(n, out_h, out_w, oc)
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    @staticmethod
    def backward(ctx: Context, grad):
        cols, weight = ctx.saved
        (n, c, h, w), padded_shape, out_h, out_w, stride, padding = ctx.geometry
        oc, _, kh, kw = weight.shape
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, oc)
        grad_weight = (grad_mat.T @ cols).reshape(weight.shape)
        grad_cols = (grad_mat @ weight.reshape(oc, -1)).reshape(n, out_h, out_w, c, kh, kw)
        grad_cols = grad_cols.transpose(0, 3, 1, 2, 4, 5)
        padded = np.zeros(padded_shape)
        for ki in range(kh):
            for kj in range(kw):
                padded[:, :, ki : ki + out_h * stride : stride,
                       kj : kj + out_w * stride : stride] += grad_cols[:, :, :, :, ki, kj]
        return padded[:, :, padding : padding + h, padding : padding + w], grad_weight, None, None


def conv2d_reference(x, weight, bias=None, stride=1, padding=0):
    out = Conv2dReference.apply(x, weight, stride=stride, padding=padding)
    return out if bias is None else out + bias.reshape(1, -1, 1, 1)


class MaxPool2dReference(Function):
    """The pooling ``ops.MaxPool2d`` replaced: ``argmax`` over the
    flattened windows, ``take_along_axis``, and an ``np.add.at`` scatter."""

    @staticmethod
    def forward(ctx: Context, x, kernel: int = 2, stride=None):
        stride = stride or kernel
        windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride, :, :]
        flat = windows.reshape(windows.shape[:4] + (-1,))
        ctx.argmax = flat.argmax(axis=-1)
        ctx.geometry = (x.shape, kernel, stride)
        return np.take_along_axis(flat, ctx.argmax[..., None], axis=-1)[..., 0]

    @staticmethod
    def backward(ctx: Context, grad):
        (n, c, h, w), kernel, stride = ctx.geometry
        grad_x = np.zeros((n, c, h, w))
        ii = np.arange(grad.shape[2])[None, None, :, None] * stride + ctx.argmax // kernel
        jj = np.arange(grad.shape[3])[None, None, None, :] * stride + ctx.argmax % kernel
        nn_, cc = np.arange(n)[:, None, None, None], np.arange(c)[None, :, None, None]
        np.add.at(grad_x, (nn_, cc, ii, jj), grad)
        return (grad_x, None, None)


def max_pool2d_reference(x, kernel=2, stride=None):
    return MaxPool2dReference.apply(x, kernel=kernel, stride=stride)


class MaxPool2dKernelSquared(Function):
    """The pooling the separable ``ops.MaxPool2d`` replaced: a running
    maximum over the ``kernel**2`` strided window views in row-major
    order, and backward a masked ``+=`` per view into zeros.  Where
    windows do not overlap the separable op must equal it bit for bit."""

    @staticmethod
    def forward(ctx: Context, x, kernel: int = 2, stride=None):
        stride = kernel if stride is None else stride
        out_h, out_w = (x.shape[2] - kernel) // stride + 1, (x.shape[3] - kernel) // stride + 1
        views = [x[..., ki : ki + out_h * stride : stride, kj : kj + out_w * stride : stride]
                 for ki in range(kernel) for kj in range(kernel)]
        out = np.array(views[0])
        ctx.index = np.zeros(out.shape, np.intp)
        for offset, view in enumerate(views[1:], start=1):
            better = view > out
            np.maximum(out, view, out=out)
            np.putmask(ctx.index, better, offset)
        ctx.geometry = (x.shape, kernel, stride)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        x_shape, kernel, stride = ctx.geometry
        out_h, out_w = grad.shape[2:]
        grad_x = np.zeros(x_shape)
        for offset in range(kernel * kernel):
            ki, kj = divmod(offset, kernel)
            grad_x[..., ki : ki + out_h * stride : stride,
                   kj : kj + out_w * stride : stride] += grad * (ctx.index == offset)
        return (grad_x, None, None)


class ComposedBatchNorm(_BatchNorm):
    """The twelve-node batch norm ``ops.BatchNorm`` replaced, buffers
    included: the module the fused one must equal bit for bit in its
    running statistics."""

    def forward(self, x):
        axes = (0,) + tuple(range(2, x.ndim))
        shape = (1, self.num_features) + (1,) * (x.ndim - 2)
        if self.training:
            mean = ops.mean(x, axis=axes, keepdims=True)
            centered = x - mean
            var = ops.mean(centered * centered, axis=axes, keepdims=True)
            count = np.prod([x.shape[ax] for ax in axes])
            unbiased = var.data * count / max(count - 1, 1)
            m = self.momentum
            self.running_mean.data[...] = (
                (1 - m) * self.running_mean.data + m * mean.data.reshape(-1)
            )
            self.running_var.data[...] = (
                (1 - m) * self.running_var.data + m * unbiased.reshape(-1)
            )
            self.num_batches_tracked.data += 1
            normalized = centered * (var + self.eps) ** -0.5
        else:
            mean = Tensor(self.running_mean.data.reshape(shape))
            var = Tensor(self.running_var.data.reshape(shape))
            normalized = (x - mean) * Tensor((var.data + self.eps) ** -0.5)
        return normalized * self.weight.reshape(shape) + self.bias.reshape(shape)


def batch_norm_reference(x, weight, bias, eps=1e-5):
    module = ComposedBatchNorm(weight.shape[0], eps=eps)
    module.weight, module.bias = weight, bias
    return module(x)


def conv_stage_reference(x, conv_weight, conv_bias, bn_weight, bn_bias, padding=1, bn=None):
    """The chain ``ops.ConvStage`` replaced: the reference Conv2d, a
    ``ComposedBatchNorm`` — ``bn``, whose running statistics it updates,
    when given —, Relu, and the reference MaxPool2d(2)."""
    bn = ComposedBatchNorm(bn_weight.shape[0]) if bn is None else bn
    bn.weight, bn.bias = bn_weight, bn_bias
    conv = conv2d_reference(x, conv_weight, conv_bias, padding=padding)
    return max_pool2d_reference(ops.relu(bn(conv)), 2)


def cross_entropy_reference(logits, target, reduction="mean"):
    """The chain ``ops.CrossEntropy`` replaced: LogSoftmax, the targets'
    GetItem, Neg, and Mean or Sum."""
    losses = -ops.log_softmax(logits, axis=-1)[np.arange(logits.shape[0]), np.asarray(target)]
    if reduction == "mean":
        return losses.mean()
    return losses.sum() if reduction == "sum" else losses


class _ReferenceConv2d(nn.Conv2d):
    def forward(self, x):
        return conv2d_reference(x, self.weight, self.bias, self.stride, self.padding)


class _ReferenceMaxPool2d(nn.MaxPool2d):
    def forward(self, x):
        return max_pool2d_reference(x, self.kernel_size, self.stride)


class _ReferenceBlock(TransformerBlock):
    def forward(self, x):
        return block_reference(x, *self.parameters(), num_heads=self.attention.num_heads)


class _ReferenceConvStage(ConvStage):
    def forward(self, x):
        conv, bn = self.conv, self.bn
        return conv_stage_reference(x, conv.weight, conv.bias, bn.weight, bn.bias,
                                    conv.padding, bn=bn)


_REFERENCE_CLASS = {
    nn.Conv2d: _ReferenceConv2d,
    nn.MaxPool2d: _ReferenceMaxPool2d,
    nn.BatchNorm1d: ComposedBatchNorm,
    nn.BatchNorm2d: ComposedBatchNorm,
    TransformerBlock: _ReferenceBlock,
    ConvStage: _ReferenceConvStage,
}


def as_reference(model):
    """``model`` with every conv / pool / batch-norm layer, transformer
    block and ConvNet stage switched, in place, to the formulation it had
    before the fused kernels (its loss is not a module of it:
    ``cross_entropy_reference`` is the composed one)."""
    for module in model.modules():
        if type(module) in _REFERENCE_CLASS:
            object.__setattr__(module, "__class__", _REFERENCE_CLASS[type(module)])
    return model


def _tape_nodes(output):
    """Function nodes on the tape behind ``output`` (leaves not counted)."""
    return graph_node_count([output]) - len(collect_participating_accumulators([output]))


def _value_and_grads(fn, arrays, upstream):
    """``fn(*tensors)`` and the gradient of ``sum(fn * upstream)`` per input."""
    tensors = [None if a is None else Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    (out * Tensor(upstream)).sum().backward()
    return out.data, [None if t is None else t.grad.data for t in tensors]


def _assert_matches_reference(fused, reference, arrays, out_shape, rng):
    upstream = rng.standard_normal(out_shape)
    value, grads = _value_and_grads(fused, arrays, upstream)
    ref_value, ref_grads = _value_and_grads(reference, arrays, upstream)
    assert np.abs(value - ref_value).max() <= TOL
    for grad, ref_grad in zip(grads, ref_grads):
        if ref_grad is not None:
            assert grad.shape == ref_grad.shape
            assert np.abs(grad - ref_grad).max() <= TOL


class TestLinear:
    @pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["2d", "3d"])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    def test_matches_reference_and_gradcheck(self, rng, lead, with_bias):
        x = rng.standard_normal(lead + (4,))
        weight = rng.standard_normal((3, 4))
        bias = rng.standard_normal(3) if with_bias else None
        _assert_matches_reference(
            ops.linear, linear_reference, [x, weight, bias], lead + (3,), rng
        )
        inputs = [x, weight] + ([bias] if with_bias else [])
        assert gradcheck(lambda *t: (ops.linear(*t) ** 2).sum(), inputs)

    def test_one_tape_node_and_contiguous_weight_grad(self, rng):
        layer = nn.Linear(4, 3)
        out = layer(Tensor(rng.standard_normal((2, 5, 4))))
        assert out.grad_fn.name() == "Linear"
        assert all(isinstance(e, AccumulateGrad) for e in out.grad_fn.next_edges[1:])
        out.sum().backward()
        assert layer.weight.grad.data.flags.c_contiguous
        assert layer.weight.grad.data.strides == layer.weight.data.strides


class TestGelu:
    @pytest.mark.parametrize("shape", [(3, 5), (), (40000,)], ids=["2d", "0d", "multi-block"])
    def test_matches_reference(self, rng, shape):
        _assert_matches_reference(
            ops.gelu, gelu_reference, [rng.standard_normal(shape) * 2.0], shape, rng
        )

    def test_gradcheck(self, rng):
        assert gradcheck(lambda t: ops.gelu(t).sum(), [rng.standard_normal((3, 4)) * 2.0])

    def test_non_contiguous_input(self, rng):
        base = rng.standard_normal((6, 8))
        _assert_matches_reference(
            lambda t: ops.gelu(ops.transpose(t, 0, 1)),
            lambda t: gelu_reference(ops.transpose(t, 0, 1)),
            [base], (8, 6), rng,
        )

    def test_backward_leaves_saved_arrays_intact(self, rng):
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        out = ops.gelu(x)
        out.sum().backward()
        first = x.grad.data.copy()
        x.grad = None
        out.sum().backward()  # a second pass over the same tape
        assert np.array_equal(x.grad.data, first)


class TestLayerNorm:
    @pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["2d", "3d"])
    def test_matches_reference_and_gradcheck(self, rng, lead):
        arrays = [rng.standard_normal(lead + (6,)), rng.standard_normal(6), rng.standard_normal(6)]
        _assert_matches_reference(
            ops.layer_norm, layer_norm_reference, arrays, lead + (6,), rng
        )
        weights = Tensor(rng.standard_normal(lead + (6,)))
        assert gradcheck(lambda *t: (ops.layer_norm(*t) * weights).sum(), arrays)

    def test_module_is_one_node_and_honours_eps(self, rng):
        layer = nn.LayerNorm(6, eps=1e-2)
        x = rng.standard_normal((4, 6))
        out = layer(Tensor(x))
        assert out.grad_fn.name() == "LayerNorm"
        expected = layer_norm_reference(Tensor(x), layer.weight, layer.bias, eps=1e-2)
        assert np.abs(out.data - expected.data).max() <= TOL


class TestSoftmax:
    def test_matches_reference_and_gradcheck(self, rng):
        x = rng.standard_normal((2, 3, 5)) * 3.0
        _assert_matches_reference(
            lambda t: ops.softmax(t, axis=-1),
            lambda t: scaled_softmax_reference(t, 1.0),
            [x], x.shape, rng,
        )
        weights = Tensor(rng.standard_normal(x.shape))
        assert gradcheck(lambda t: (ops.softmax(t) * weights).sum(), [x])


def _assert_close_relative(value, reference):
    assert value.shape == reference.shape
    assert np.abs(value - reference).max() <= TOL * np.abs(reference).max()


class TestCrossEntropy:
    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_matches_the_composed_chain_and_gradcheck(self, rng, reduction):
        logits = rng.standard_normal((6, 5)) * 3.0
        target = np.array([0, 4, 4, 2, 1, 4])  # a repeated class
        upstream = rng.standard_normal((6,) if reduction == "none" else ())
        value, (grad,) = _value_and_grads(
            lambda t: ops.cross_entropy(t, target, reduction), [logits], upstream)
        ref_value, (ref_grad,) = _value_and_grads(
            lambda t: cross_entropy_reference(t, target, reduction), [logits], upstream)
        _assert_close_relative(np.asarray(value), np.asarray(ref_value))
        _assert_close_relative(grad, ref_grad)
        weights = Tensor(upstream)
        assert gradcheck(lambda t: (ops.cross_entropy(t, target, reduction) * weights).sum(),
                         [logits])

    def test_module_is_one_node_and_nll_is_unchanged(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        target = Tensor(np.array([2.0, 0.0, 1.0, 2.0]))  # float labels are indices too
        loss = nn.CrossEntropyLoss()(logits, target)
        assert loss.grad_fn.name() == "CrossEntropy" and _tape_nodes(loss) == 1
        assert loss.grad_fn.next_edges[1] is None  # the targets have no edge
        nll = nn.NLLLoss()(ops.log_softmax(logits), target)
        assert _tape_nodes(nll) == 4  # LogSoftmax, GetItem, Neg, Mean
        assert abs(float(nll.data) - float(loss.data)) <= TOL * abs(float(loss.data))

    def test_unknown_reduction_raises(self, rng):
        with pytest.raises(ValueError, match="unknown reduction 'avg'"):
            nn.CrossEntropyLoss(reduction="avg")(Tensor(rng.standard_normal((2, 3))), [0, 1])

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_float32_round_trip(self, rng, reduction):
        logits = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        loss = ops.cross_entropy(logits, np.array([0, 1, 2, 1]), reduction)
        loss.sum().backward()
        assert loss.data.dtype == logits.grad.data.dtype == np.float32


#: The inputs of ``attention_reference``, in its order.
_ATTENTION_NAMES = ["x", "q_weight", "q_bias", "k_weight", "k_bias",
                    "v_weight", "v_bias", "o_weight", "o_bias"]


def _attention_arrays(rng, batch=2, seq=5, width=8, scale=1.0):
    shapes = [(batch, seq, width)] + [(width, width), (width,)] * 4
    return [rng.standard_normal(shape) * scale for shape in shapes]


def _fused_attention(num_heads):
    return lambda x, qw, qb, kw, kb, vw, vb, ow, ob: ops.self_attention(
        x, (qw, qb), (kw, kb), (vw, vb), (ow, ob), num_heads=num_heads)


class TestSelfAttention:
    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    def test_matches_the_composed_chain(self, rng, num_heads):
        """Value and every gradient to 1e-12 relative at the scale
        ``1 / sqrt(head_dim)``.  The key bias shifts every score of a
        query row alike, which softmax cancels: its gradient is 0 in
        exact arithmetic, so it is compared absolutely."""
        arrays = _attention_arrays(rng, scale=1.5)
        upstream = rng.standard_normal(arrays[0].shape)
        value, grads = _value_and_grads(_fused_attention(num_heads), arrays, upstream)
        ref_value, ref_grads = _value_and_grads(
            lambda *t: attention_reference(*t, num_heads), arrays, upstream)
        _assert_close_relative(value, ref_value)
        for name, grad, ref_grad in zip(_ATTENTION_NAMES, grads, ref_grads):
            if name == "k_bias":
                assert np.abs(grad - ref_grad).max() <= TOL
                assert np.abs(ref_grad).max() <= TOL
            else:
                _assert_close_relative(grad, ref_grad)

    def test_gradcheck(self, rng):
        arrays = _attention_arrays(rng, batch=2, seq=3, width=4)
        weights = Tensor(rng.standard_normal(arrays[0].shape))
        fused = _fused_attention(2)
        assert gradcheck(lambda *t: (fused(*t) * weights).sum(), arrays)

    def test_attention_uses_the_fused_node(self, rng):
        manual_seed(0)
        model = TinyTransformer()
        with profile_ops() as profile:
            model(rng.integers(0, 64, (2, 16))).sum().backward()
        # Nothing but the embedding add is left of the primitive chains:
        # no projections split into heads, no score scaling, no LayerNorm
        # or residual built from primitives.
        ops_seen = {op for op, _ in profile.calls}
        assert {"Mul", "Pow", "Sub", "Softmax", "MatMul", "Transpose", "Reshape",
                "Gelu", "LayerNorm"}.isdisjoint(ops_seen)
        assert profile.calls["SelfAttention", "forward"] == 2  # one per block
        assert profile.calls["Add", "forward"] == 1
        assert profile.calls["Linear", "forward"] == 1  # the head


class TestFeedForward:
    def test_matches_the_composed_chain_and_gradcheck(self, rng):
        arrays = [rng.standard_normal(shape) * 1.5
                  for shape in [(2, 3, 4), (10, 4), (10,), (4, 10), (4,)]]
        _assert_matches_reference(
            ops.feed_forward, feed_forward_reference, arrays, (2, 3, 4), rng
        )
        weights = Tensor(rng.standard_normal((2, 3, 4)))
        assert gradcheck(lambda *t: (ops.feed_forward(*t) * weights).sum(), arrays)


class TestAddLayerNorm:
    def test_matches_the_composed_chain_and_gradcheck(self, rng):
        arrays = [rng.standard_normal(shape) for shape in [(2, 3, 6), (2, 3, 6), (6,), (6,)]]
        _assert_matches_reference(
            ops.add_layer_norm, add_layer_norm_reference, arrays, (2, 3, 6), rng
        )
        weights = Tensor(rng.standard_normal((2, 3, 6)))
        assert gradcheck(lambda *t: (ops.add_layer_norm(*t) * weights).sum(), arrays)


class TestTransformerBlock:
    def test_four_tape_nodes(self, rng):
        manual_seed(2)
        block = TransformerBlock(8, 2, 16)
        out = block(Tensor(rng.standard_normal((2, 5, 8))))
        assert _tape_nodes(out) == 4
        second_norm = out.grad_fn
        feed_forward = second_norm.next_edges[1]
        first_norm = second_norm.next_edges[0]
        attention = first_norm.next_edges[1]
        assert [n.name() for n in (attention, first_norm, feed_forward, second_norm)] == [
            "SelfAttention", "AddLayerNorm", "FeedForward", "AddLayerNorm"]
        assert feed_forward.next_edges[0] is first_norm

    def test_model_matches_the_composed_chain(self, rng):
        """Loss and every parameter gradient of the whole model, to 1e-12
        relative (the key biases absolutely)."""
        tokens, labels = rng.integers(0, 64, (4, 16)), rng.integers(0, 4, 4)

        def run(model):
            loss = nn.CrossEntropyLoss()(model(tokens), labels)
            loss.backward()
            return float(loss.data), {n: p.grad.data for n, p in model.named_parameters()}

        manual_seed(6)
        loss, grads = run(TinyTransformer())
        manual_seed(6)
        ref_loss, ref_grads = run(as_reference(TinyTransformer()))
        assert abs(loss - ref_loss) <= TOL * abs(ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            if name.endswith("key.bias"):
                assert np.abs(grad - ref_grads[name]).max() <= TOL, name
            else:
                _assert_close_relative(grad, ref_grads[name])


class TestConv2d:
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    def test_matches_reference_and_gradcheck(self, rng, with_bias, stride, padding):
        self._check(rng, with_bias, stride, padding, kernel=3)

    # im2col copies one strided view and col2im scatters W then H:
    # strides past the kernel, paddings past ``kernel - 1`` (outputs
    # computed from padding alone) and 1x1 / 5x5 kernels.
    @pytest.mark.parametrize(
        "stride, padding, kernel",
        [(s, p, k) for k in (1, 3, 5) for s in (1, 2, 3) for p in (0, 1, 2)
         if not (k == 3 and s < 3 and p < 2)],  # the grid above
    )
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    def test_wider_geometry_matches_reference_and_gradcheck(
        self, rng, with_bias, stride, padding, kernel
    ):
        self._check(rng, with_bias, stride, padding, kernel)

    @staticmethod
    def _check(rng, with_bias, stride, padding, kernel):
        x = rng.standard_normal((2, 3, 6, 5))
        weight = rng.standard_normal((4, 3, kernel, kernel))
        bias = rng.standard_normal(4) if with_bias else None
        out_shape = (2, 4, (6 + 2 * padding - kernel) // stride + 1,
                     (5 + 2 * padding - kernel) // stride + 1)
        _assert_matches_reference(
            lambda *t: ops.conv2d(*t, stride=stride, padding=padding),
            lambda *t: conv2d_reference(*t, stride=stride, padding=padding),
            [x, weight, bias], out_shape, rng,
        )
        inputs = [x, weight] + ([bias] if with_bias else [])
        assert gradcheck(
            lambda *t: (ops.conv2d(*t, stride=stride, padding=padding) ** 2).sum(), inputs
        )

    @pytest.mark.parametrize("padding", [0, 1])
    def test_input_without_edge_skips_grad_x(self, rng, monkeypatch, padding):
        x = rng.standard_normal((2, 3, 6, 6))
        arrays = [rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)]
        upstream = rng.standard_normal((2, 4, 4 + 2 * padding, 4 + 2 * padding))
        _, ref_grads = _value_and_grads(
            lambda w, b: conv2d_reference(Tensor(x), w, b, padding=padding), arrays, upstream
        )
        monkeypatch.setattr(ops, "_col2im", None)  # calling it would raise
        weight, bias = (Tensor(a, requires_grad=True) for a in arrays)
        out = ops.conv2d(Tensor(x), weight, bias, padding=padding)
        assert out.grad_fn.ctx.needs_input_grad == (False, True, True)
        (out * Tensor(upstream)).sum().backward()
        for param, ref_grad in zip((weight, bias), ref_grads):
            assert np.abs(param.grad.data - ref_grad).max() <= TOL

    def test_non_contiguous_input(self, rng):
        base = rng.standard_normal((2, 5, 6, 3))  # NHWC, viewed as NCHW
        weight, bias = rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)

        def through(conv):
            return lambda t, w, b: conv(
                ops.transpose(ops.transpose(t, 1, 3), 2, 3), w, b, stride=1, padding=1
            )

        _assert_matches_reference(
            through(ops.conv2d), through(conv2d_reference), [base, weight, bias],
            (2, 4, 5, 6), rng,
        )

    def test_module_is_one_node_with_parameter_edges(self, rng):
        layer = nn.Conv2d(3, 4, kernel_size=3, padding=1)
        out = layer(Tensor(rng.standard_normal((2, 3, 5, 5))))
        assert out.grad_fn.name() == "Conv2d"
        assert [type(e) for e in out.grad_fn.next_edges] == [type(None)] + [AccumulateGrad] * 2


class TestBatchNorm:
    SHAPES = [(6, 4), (5, 4, 3), (3, 4, 5, 2)]

    @pytest.mark.parametrize("shape", SHAPES, ids=["NC", "NCL", "NCHW"])
    def test_matches_reference_and_gradcheck(self, rng, shape):
        arrays = [rng.standard_normal(shape) * 2.0 + 1.0, rng.standard_normal(4),
                  rng.standard_normal(4)]
        _assert_matches_reference(ops.batch_norm, batch_norm_reference, arrays, shape, rng)
        weights = Tensor(rng.standard_normal(shape))
        assert gradcheck(
            lambda x, w, b: (ops.batch_norm(x, w, b) * weights).sum(), arrays
        )

    @pytest.mark.parametrize("shape", SHAPES, ids=["NC", "NCL", "NCHW"])
    def test_running_statistics_are_bitwise_the_composed_modules(self, rng, shape):
        layer = nn.BatchNorm1d(4, momentum=0.3) if len(shape) < 4 else nn.BatchNorm2d(4, momentum=0.3)
        reference = ComposedBatchNorm(4, momentum=0.3)
        for step in range(3):
            x = Tensor(rng.standard_normal(shape) * (step + 1.0))
            layer(x), reference(x)
            for name, buffer in layer.named_buffers():
                assert np.array_equal(buffer.data, dict(reference.named_buffers())[name].data)
        assert layer.num_batches_tracked.data[0] == 3
        assert not np.array_equal(layer.running_mean.data, np.zeros(4))

    def test_one_node_eps_and_momentum(self, rng):
        x = rng.standard_normal((8, 3, 4, 4))
        layer, reference = nn.BatchNorm2d(3, eps=0.5, momentum=1.0), ComposedBatchNorm(3, eps=0.5)
        out = layer(Tensor(x))
        assert out.grad_fn.name() == "BatchNorm"
        assert _tape_nodes(out) == 1
        assert np.abs(out.data - reference(Tensor(x)).data).max() <= TOL
        assert np.abs(out.data - nn.BatchNorm2d(3)(Tensor(x)).data).max() > 1e-3  # eps is used
        assert np.array_equal(layer.running_mean.data, x.mean(axis=(0, 2, 3)))  # momentum 1

    def test_statistics_update_without_a_tape(self, rng):
        layer = nn.BatchNorm1d(3)
        with engine_module.no_grad():
            out = layer(Tensor(rng.standard_normal((5, 3)) + 2.0))
        assert out.grad_fn is None
        assert layer.num_batches_tracked.data[0] == 1 and layer.running_mean.data.min() > 0

    def test_eval_mode_is_the_composed_formulation(self, rng):
        layer, reference = nn.BatchNorm2d(3), ComposedBatchNorm(3)
        warm_up = Tensor(rng.standard_normal((4, 3, 2, 2)) + 1.0)
        for module in (layer, reference):
            module(warm_up)
            module.eval()
        x = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)
        ours, theirs = layer(x), reference(x)
        assert np.array_equal(ours.data, theirs.data)
        assert _tape_nodes(ours) == _tape_nodes(theirs) > 1
        assert layer.num_batches_tracked.data[0] == 1  # eval leaves the buffers alone


class TestMaxPool2d:
    @pytest.mark.parametrize(
        "size, kernel, stride",
        [(6, 2, 2), (5, 2, 1), (7, 3, 2), (7, 2, 2), (8, 3, 3), (7, 2, 3), (6, 1, 2)],
        ids=["2/2", "2/1-overlapping", "3/2", "2/2-ragged", "3/3-ragged", "2/3-gaps", "1/2"],
    )
    def test_matches_reference_and_gradcheck(self, rng, size, kernel, stride):
        x = rng.standard_normal((2, 3, size, size + 1))
        out = (size - kernel) // stride + 1, (size + 1 - kernel) // stride + 1
        _assert_matches_reference(
            lambda t: ops.max_pool2d(t, kernel, stride),
            lambda t: max_pool2d_reference(t, kernel, stride),
            [x], (2, 3) + out, rng,
        )
        assert gradcheck(lambda t: (ops.max_pool2d(t, kernel, stride) ** 2).sum(), [x])

    @pytest.mark.parametrize("kernel, stride", [(2, 2), (2, 1), (3, 3), (3, 1)])
    def test_ties_go_to_the_first_element_like_argmax(self, kernel, stride):
        # After a ReLU whole windows are zero: every offset attains the max.
        arrays = [np.zeros((1, 2, 4, 4))]
        arrays[0][0, 1, 1:3, 1:3] = 1.0  # and a window of equal positives
        side = (4 - kernel) // stride + 1
        upstream = np.arange(1.0, 1.0 + 2 * side * side).reshape(1, 2, side, side)
        value, (grad,) = _value_and_grads(
            lambda t: ops.max_pool2d(t, kernel, stride), arrays, upstream
        )
        ref_value, (ref_grad,) = _value_and_grads(
            lambda t: max_pool2d_reference(t, kernel, stride), arrays, upstream
        )
        assert np.array_equal(value, ref_value) and np.array_equal(grad, ref_grad)
        if kernel == stride:  # the whole window's gradient lands on its first element
            assert np.array_equal(grad[0, 0, :2, :2], [[upstream[0, 0, 0, 0], 0], [0, 0]])

    def test_the_workloads_layout(self, rng):
        # Conv2d -> BatchNorm -> Relu hands the pool an NCHW view of
        # channel-major memory, ReLU zeros (ties) included.
        base = np.maximum(rng.standard_normal((3, 2, 8, 6)), 0.0)  # (C, N, H, W)
        _assert_matches_reference(
            lambda t: ops.max_pool2d(ops.transpose(t, 0, 1), 2),
            lambda t: max_pool2d_reference(ops.transpose(t, 0, 1), 2),
            [base], (2, 3, 4, 3), rng,
        )

    @pytest.mark.parametrize(
        "size, kernel, stride",
        [(8, 2, 2), (7, 2, 2), (9, 3, 3), (7, 2, 3), (8, 3, 4)],
        ids=["2/2", "2/2-ragged", "3/3", "2/3-gaps", "3/4-gaps"],
    )
    @pytest.mark.parametrize("channel_major", [False, True], ids=["nchw", "cm"])
    def test_non_overlapping_windows_are_bitwise_the_kernel_squared_op(
        self, rng, size, kernel, stride, channel_major
    ):
        base = np.maximum(rng.standard_normal((3, 2, size, size + 1)), 0.0)
        x = base.transpose(1, 0, 2, 3)
        x = x if channel_major else np.ascontiguousarray(x)
        side = lambda n: (n - kernel) // stride + 1  # noqa: E731
        upstream = rng.standard_normal((2, 3, side(size), side(size + 1)))
        upstream[0, 0, 0, 0] = -0.0  # a negative zero, and negatives everywhere
        results = []
        for op in (ops.MaxPool2d, MaxPool2dKernelSquared):
            t = Tensor(x, requires_grad=True)
            out = op.apply(t, kernel=kernel, stride=stride)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, t.grad.data))
        (value, grad), (ref_value, ref_grad) = results
        assert np.array_equal(value.view(np.uint64), ref_value.view(np.uint64))
        assert np.array_equal(grad.view(np.uint64), ref_grad.view(np.uint64))
        assert (np.signbit(grad) == (grad < 0)).all()  # every zero is +0.0, as before

    def test_second_backward_over_the_same_tape(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        out = ops.max_pool2d(x, 2, 1)
        out.sum().backward()
        first = x.grad.data.copy()
        x.grad = None
        out.sum().backward()
        assert np.array_equal(x.grad.data, first)


_STAGE_NAMES = ["x", "conv_weight", "conv_bias", "bn_weight", "bn_bias"]


def _stage_arrays(rng, shape, out_channels=5):
    """``conv_stage_reference``'s inputs, in its order."""
    channels = shape[1]
    return [rng.standard_normal(shape) * 2.0 + 1.0,
            rng.standard_normal((out_channels, channels, 3, 3)),
            rng.standard_normal(out_channels), rng.standard_normal(out_channels) * 1.5,
            rng.standard_normal(out_channels)]


def _stage_and_reference(arrays, upstream):
    """Value and gradients of the fused stage and of its composed
    reference, and their running statistics after the one batch."""
    stats, reference_bn = [], ComposedBatchNorm(arrays[1].shape[0])
    fused = _value_and_grads(lambda *t: ops.conv_stage(*t, padding=1, stats=stats),
                             arrays, upstream)
    reference = _value_and_grads(lambda *t: conv_stage_reference(*t, bn=reference_bn),
                                 arrays, upstream)
    fused_bn = nn.BatchNorm2d(arrays[1].shape[0])
    fused_bn.track(stats)
    return fused, reference, fused_bn, reference_bn


class TestConvStage:
    @pytest.mark.parametrize("shape", [(4, 3, 8, 6), (3, 2, 7, 5)], ids=["even", "ragged"])
    def test_matches_the_composed_chain(self, rng, shape):
        """Value, every gradient and the running statistics to 1e-12
        relative.  The conv bias cancels in the normalisation: its
        gradient is 0 in exact arithmetic, so it is compared absolutely."""
        arrays = _stage_arrays(rng, shape)
        upstream = rng.standard_normal((shape[0], 5, shape[2] // 2, shape[3] // 2))
        (value, grads), (ref_value, ref_grads), bn, ref_bn = _stage_and_reference(arrays, upstream)
        _assert_close_relative(value, ref_value)
        for name, grad, ref_grad in zip(_STAGE_NAMES, grads, ref_grads):
            if name == "conv_bias":
                assert np.abs(grad - ref_grad).max() <= TOL, name
                assert np.abs(ref_grad).max() <= TOL, name
            else:
                _assert_close_relative(grad, ref_grad)
        for name in ("running_mean", "running_var"):
            _assert_close_relative(getattr(bn, name).data, getattr(ref_bn, name).data)
        assert bn.num_batches_tracked.data[0] == ref_bn.num_batches_tracked.data[0] == 1

    def test_tied_windows_match_the_composed_chain(self, rng):
        """A zero BatchNorm weight makes every output its channel's bias:
        all-negative windows, windows of exactly 0.0, and windows of four
        equal positive maxima, where the first offset takes the gradient."""
        arrays = _stage_arrays(rng, (2, 2, 4, 4), out_channels=3)
        arrays[3] = np.zeros(3)
        arrays[4] = np.array([-1.0, 0.0, 1.5])
        upstream = rng.standard_normal((2, 3, 2, 2))
        (value, grads), (ref_value, ref_grads), _, _ = _stage_and_reference(arrays, upstream)
        assert np.array_equal(value, ref_value)
        assert np.array_equal(value[:, 2], np.full((2, 2, 2), 1.5))
        for name, grad, ref_grad in zip(_STAGE_NAMES, grads, ref_grads):
            assert np.abs(grad - ref_grad).max() <= TOL * max(np.abs(ref_grad).max(), 1.0), name
        assert np.abs(grads[3][2]) > 0  # the weight of the positive channel still learns

    def test_pool_relu_ties_are_bitwise_the_composed_chain(self):
        """The gradient into the pool is the composed chain's, bit for bit
        (zero signs aside): an all-negative window, a window whose maximum
        is exactly 0.0 (twice), two equal positive maxima, one winner."""
        windows = [[-1.0, -2.0, -0.5, -3.0], [0.0, -1.0, -2.0, 0.0],
                   [-1.0, 2.0, 1.0, 2.0], [0.5, 1.5, 2.5, -1.0]]
        planes = np.array(windows).reshape(1, 1, 4, 2, 2).transpose(0, 1, 3, 2, 4)
        planes = np.ascontiguousarray(planes).reshape(1, 1, 2, 8)  # windows side by side
        upstream = np.array([1.5, -2.0, 3.0, -0.25]).reshape(1, 1, 1, 4)
        out, winner = ops._pool_relu(planes)
        grad = ops._unpool_relu(upstream, winner, planes.shape[2:])
        assert np.array_equal(out, [[[[0.0, 0.0, 2.0, 2.5]]]])
        expected = np.zeros((2, 8))
        expected[0, 5] = 3.0  # the first of the equal maxima
        expected[1, 6] = -0.25
        for pool in (ops.max_pool2d, max_pool2d_reference):
            ref_value, (ref_grad,) = _value_and_grads(lambda t: pool(ops.relu(t), 2),
                                                      [planes], upstream)
            assert np.array_equal(out, ref_value)
            assert np.array_equal((grad + 0.0).view(np.uint64), (ref_grad + 0.0).view(np.uint64))
        assert np.array_equal(grad[0, 0], expected)

    def test_gradcheck(self, rng):
        arrays = _stage_arrays(rng, (3, 2, 4, 4), out_channels=3)
        weights = Tensor(rng.standard_normal((3, 3, 2, 2)))
        assert gradcheck(lambda *t: (ops.conv_stage(*t, padding=1) * weights).sum(), arrays)

    def test_float32_in_float32_out(self, rng):
        arrays = [a.astype(np.float32) for a in _stage_arrays(rng, (2, 3, 6, 6), out_channels=4)]
        x, conv_weight, conv_bias, bn_weight, bn_bias = arrays
        ctx, stats = Context(), []
        out = ops.ConvStage.forward(ctx, x, bn_bias, bn_weight, conv_bias, conv_weight,
                                    padding=1, stats=stats)
        ctx.needs_input_grad = (True,) * 5  # what apply() records
        grads = ops.ConvStage.backward(ctx, np.ones_like(out))
        assert [g.dtype for g in (out,) + grads + tuple(stats[:2])] == [np.float32] * 8
        assert [g.shape for g in grads] == [a.shape for a in arrays[:1]] + [
            a.shape for a in (bn_bias, bn_weight, conv_bias, conv_weight)]

    def test_module_is_one_node_and_eval_is_the_composed_chain(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 6, 6)))
        manual_seed(8)
        stage = ConvStage(3, 4)
        manual_seed(8)
        reference = as_reference(ConvStage(3, 4))
        out = stage(x)
        assert out.grad_fn.name() == "ConvStage" and _tape_nodes(out) == 1
        assert [None if e is None else e.tensor for e in out.grad_fn.next_edges] == [
            None, stage.bn.bias, stage.bn.weight, stage.conv.bias, stage.conv.weight]
        reference(x)
        for module in (stage, reference):
            module.eval()
        ours, theirs = stage(x), reference(x)
        _assert_close_relative(ours.data, theirs.data)
        assert _tape_nodes(ours) > 1  # eval runs the composed ops
        assert stage.bn.num_batches_tracked.data[0] == 1  # eval leaves the buffers alone


class TestGradientDtype:
    """Backward allocates in the incoming gradient's dtype, not float64."""

    @pytest.mark.parametrize("op", [ops.MaxPool2d, ops.AvgPool2d], ids=["max", "avg"])
    def test_pooling_float32_round_trip(self, rng, op):
        ctx = Context()
        out = op.forward(ctx, rng.standard_normal((2, 3, 6, 6)).astype(np.float32), kernel=2)
        assert out.dtype == np.float32
        assert op.backward(ctx, np.ones_like(out))[0].dtype == np.float32

    def test_conv2d_float32_round_trip(self, rng):
        ctx = Context()
        x, bias, weight = (rng.standard_normal(shape).astype(np.float32)
                           for shape in [(2, 3, 6, 6), (4,), (4, 3, 3, 3)])
        out = ops.Conv2d.forward(ctx, x, bias, weight, stride=1, padding=1)
        ctx.needs_input_grad = (True, True, True)  # what apply() records
        grads = ops.Conv2d.backward(ctx, np.ones_like(out))[:3]
        assert [g.dtype for g in (out,) + grads] == [np.float32] * 4
        assert grads[0].shape == x.shape

    def test_float32_models_run_float32_end_to_end(self, monkeypatch):
        """Every node's forward output and every ``grad_output`` it
        receives stay float32, from the loss's seed to the leaves."""
        seen = set()

        def classes(root=Function):
            for cls in root.__subclasses__():
                yield cls
                yield from classes(cls)

        for cls in set(classes()):
            for direction in ("forward", "backward"):
                original = cls.__dict__.get(direction)
                if not isinstance(original, staticmethod):
                    continue

                def recording(ctx, *args, _fn=original.__func__, _key=(cls.__name__, direction),
                              **kwargs):
                    out = _fn(ctx, *args, **kwargs)
                    seen.add(_key + ((out if _key[1] == "forward" else args[0]).dtype,))
                    return out

                monkeypatch.setattr(cls, direction, staticmethod(recording))
        dropout = nn.Dropout(0.25)
        # The primitive Gelu, LayerNorm, Softmax, Conv2d, BatchNorm and
        # MaxPool2d still serve nn modules.
        manual_seed(3)
        modules = nn.Sequential(nn.Linear(6, 8), nn.GELU(), nn.LayerNorm(8), nn.Softmax())
        rows = Tensor(np.random.default_rng(3).standard_normal((4, 6)))
        layers = nn.Sequential(nn.Conv2d(1, 2, 3), nn.BatchNorm2d(2), nn.ReLU(), nn.MaxPool2d(2),
                               nn.Flatten())
        images = Tensor(np.random.default_rng(3).standard_normal((4, 1, 6, 6)))
        for model, inputs in _models() + [(modules, rows), (layers, images)]:
            _cast(model, np.float32)
            if isinstance(inputs, Tensor):
                inputs = Tensor(inputs.data.astype(np.float32))
            loss = nn.CrossEntropyLoss()(dropout(model(inputs)), np.zeros(4, dtype=np.int64))
            assert loss.data.dtype == np.float32
            loss.backward()
            assert {p.grad.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        assert {op for op, _, _ in seen} >= {"Linear", "Conv2d", "BatchNorm", "LayerNorm", "Gelu",
                                              "GetItem", "Softmax", "Mean", "Mul", "SelfAttention",
                                              "FeedForward", "AddLayerNorm", "ConvStage",
                                              "CrossEntropy", "MaxPool2d"}
        assert {dtype for _, _, dtype in seen} == {np.dtype(np.float32)}

    def test_float32_ddp_replicas_stay_bitwise_equal(self):
        def body(rank):
            model = _cast(_convnet(seed=5 + rank), np.float32)
            ddp = DistributedDataParallel(model, bucket_cap_mb=0.001)
            images = Tensor(IMAGES[rank::2].astype(np.float32))
            optimizer, loss_fn = SGD(model.parameters(), lr=0.05), nn.CrossEntropyLoss()
            for _ in range(3):
                optimizer.zero_grad()
                loss_fn(ddp(images), LABELS[rank::2]).backward()
                optimizer.step()
            # Parameters only: running statistics are each rank's own.
            params = {name: p.data.copy() for name, p in model.named_parameters()}
            return params, ddp.ddp_stats()["grad_copy_count"]

        (params0, copies0), (params1, copies1) = run_world(2, body, backend="gloo")
        assert copies0 == copies1 == 0  # every float32 gradient written in place
        for name, value in params0.items():
            assert value.dtype == np.float32, name
            assert np.array_equal(value, params1[name]), name


class TestNeedsInputGrad:
    def test_set_from_the_edges_of_a_recorded_node_only(self, rng):
        weight = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = ops.linear(Tensor(rng.standard_normal((2, 4))), weight)
        assert out.grad_fn.ctx.needs_input_grad == (False, False, True)
        hidden = ops.linear(out, weight.reshape(4, 3), Tensor(np.zeros(4), requires_grad=True))
        assert hidden.grad_fn.ctx.needs_input_grad == (True, True, True)
        assert not hasattr(Context(), "needs_input_grad")

    def test_linear_skips_the_network_inputs_gradient(self, rng):
        x = rng.standard_normal((5, 4))
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal(3)]
        upstream = rng.standard_normal((5, 3))
        returned = []
        real_backward = ops.Linear.backward

        class Spy(ops.Linear):
            @staticmethod
            def backward(ctx, grad):
                returned.append(real_backward(ctx, grad))
                return returned[-1]

        _, grads = _value_and_grads(lambda w, b: Spy.apply(Tensor(x), b, w), arrays, upstream)
        _, ref_grads = _value_and_grads(
            lambda w, b: linear_reference(Tensor(x), w, b), arrays, upstream
        )
        assert returned[0][0] is None and len(returned[0]) == 3  # Nones stay aligned
        for grad, ref_grad in zip(grads, ref_grads):
            assert np.abs(grad - ref_grad).max() <= TOL


# -- the layout contract -----------------------------------------------

def _cast(model, dtype):
    """``model`` with every parameter and buffer cast to ``dtype``."""
    for tensor in list(model.parameters()) + list(model.buffers()):
        tensor.data = tensor.data.astype(dtype)
    return model


def _models():
    manual_seed(3)
    rng = np.random.default_rng(3)
    return [
        (MLP(6, [8, 8], 3), Tensor(rng.standard_normal((4, 6)))),
        (TinyTransformer(vocab_size=16, max_seq_len=8, hidden=8, num_heads=2,
                         num_layers=1, ffn_dim=16, num_classes=3),
         rng.integers(0, 16, (4, 8))),
        (ConvNet(num_classes=3, channels=2, image_size=8),
         Tensor(rng.standard_normal((4, 1, 8, 8)))),
    ]


def _backward_once(wrap):
    """One forward/backward of each model; per-parameter layout checks."""
    layouts = []
    for model, inputs in _models():
        forward = wrap(model)
        nn.CrossEntropyLoss()(forward(inputs), np.zeros(4, dtype=np.int64)).backward()
        layouts += [
            (p.grad.data.flags.c_contiguous, p.grad.data.strides == p.data.strides)
            for p in model.parameters() if p.grad is not None
        ]
    return layouts


@pytest.fixture
def incoming(monkeypatch):
    """Layout of every gradient as it *reaches* ``accumulate``: is it
    C-contiguous, and do its strides equal the parameter's."""
    seen = []
    original = AccumulateGrad.accumulate

    def recording(self, grad, owned=False):
        seen.append((grad.flags.c_contiguous, grad.strides == self.tensor.data.strides))
        original(self, grad, owned)

    monkeypatch.setattr(AccumulateGrad, "accumulate", recording)
    return seen


def _embedding_reference(indices, weight):
    return Tensor(np.eye(weight.shape[0])[indices]) @ weight


class _Tied(nn.Module):
    """One square Linear applied twice: its parameters have two consumers."""

    def __init__(self):
        super().__init__()
        self.lin = nn.Linear(6, 6)

    def forward(self, x):
        return self.lin(ops.relu(self.lin(x)))


#: Every op that declares gradient destinations, as a layer: (factory,
#: input shape — None for token indices —, output width, the composed
#: reference of the layer's op).
DESTINATIONS = {
    "linear-2d": (lambda: nn.Linear(6, 5), (4, 6), 5, linear_reference),
    "linear-3d": (lambda: nn.Linear(6, 5), (2, 3, 6), 5, linear_reference),
    "conv-bias": (lambda: nn.Conv2d(2, 3, 3, padding=1), (2, 2, 5, 5), 5,
                  lambda x, w, b: conv2d_reference(x, w, b, padding=1)),
    "conv-nobias": (lambda: nn.Conv2d(2, 3, 3, padding=1, bias=False), (2, 2, 5, 5), 5,
                    lambda x, w: conv2d_reference(x, w, padding=1)),
    "layernorm": (lambda: nn.LayerNorm(6), (4, 6), 6, layer_norm_reference),
    "batchnorm1d": (lambda: nn.BatchNorm1d(5), (6, 5), 5, batch_norm_reference),
    "batchnorm2d": (lambda: nn.BatchNorm2d(3), (4, 3, 3, 3), 3, batch_norm_reference),
    "embedding": (lambda: nn.Embedding(7, 4), None, 4, _embedding_reference),
    "attention": (lambda: MultiHeadSelfAttention(6, 2), (2, 3, 6), 6,
                  lambda x, *params: attention_reference(x, *params, num_heads=2)),
    "block": (lambda: TransformerBlock(6, 2, 10), (2, 3, 6), 6, block_reference),
    "stage": (lambda: ConvStage(2, 3), (2, 2, 6, 6), 3, conv_stage_reference),
}
_CASES = {**DESTINATIONS, "tied": (_Tied, (4, 6), 6, None)}
_TOKENS = np.array([[1, 1, 3], [3, 0, 1]])  # repeated rows scatter-add


def _destination_input(case, dtype=np.float64):
    shape = _CASES[case][1]
    if shape is None:
        return _TOKENS
    return Tensor(np.random.default_rng(17).standard_normal(shape).astype(dtype))


def _destination_model(case, dtype=np.float64):
    """The case's layer followed by a Linear head (a second ZeRO-3 unit)."""
    manual_seed(21)
    factory, _, width, _ = _CASES[case]
    return _cast(nn.Sequential(factory(), nn.Linear(width, 2)), dtype)


def _destination_run(case, wrap=None, dtype=np.float64):
    """Two forward/backward passes of the case's model, through
    ``wrap(model)`` when given, with ``zero_grad()`` between them (so the
    second writes into views that hold the first's result).  Returns
    ``(arrivals, wrapper or model)``; ``arrivals`` maps each parameter
    name to ``(in_place, bits, array)`` as a post-hook registered
    *before* the wrapper's saw its gradient land in the second pass."""
    model = _destination_model(case, dtype)
    arrivals = {}
    for name, param in model.named_parameters():
        param.accumulator().register_post_hook(
            lambda acc, name=name, param=param: arrivals.__setitem__(
                name, (acc.in_place, param.grad.data.copy(), param.grad.data))
        )
    forward = wrap(model) if wrap else model
    for _ in range(2):
        forward.zero_grad()
        out = forward(_destination_input(case, dtype))
        (out * out).sum().backward()
    return arrivals, forward


def _summary(arrivals, flats):
    """``arrivals`` with each array replaced by: does it live in a flat?"""
    return {
        name: (in_place, bits, any(np.shares_memory(array, flat) for flat in flats))
        for name, (in_place, bits, array) in arrivals.items()
    }


def _final_grads(model):
    return {name: p.grad.data.copy() for name, p in model.named_parameters()
            if p.grad is not None}


class TestGradientLayout:
    NUM_PARAMS = 6 + 20 + 12  # MLP + one-block transformer + ConvNet

    def test_local(self, incoming):
        layouts = _backward_once(lambda model: model)
        assert len(layouts) == len(incoming) == self.NUM_PARAMS
        assert all(c and s for c, s in layouts + incoming)

    @pytest.mark.parametrize("as_view", [True, False], ids=["view", "copy"])
    def test_ddp(self, incoming, as_view):
        def body(rank):
            return _backward_once(
                lambda model: DistributedDataParallel(model, gradient_as_bucket_view=as_view)
            )

        for layouts in run_world(2, body, backend="gloo"):
            assert len(layouts) == self.NUM_PARAMS
            assert all(c and s for c, s in layouts)
        assert len(incoming) == 2 * self.NUM_PARAMS
        assert all(c and s for c, s in incoming)

    def test_zero3(self, incoming):
        # ZeRO-3 frees a unit's gradients the moment they are reduced, so
        # the contract is checked where it matters: on arrival.
        def body(rank):
            _backward_once(
                lambda model: FullyShardedDataParallel(model, lambda ps: SGD(ps, lr=0.1))
            )

        run_world(2, body, backend="gloo")
        assert len(incoming) == 2 * self.NUM_PARAMS
        assert all(c and s for c, s in incoming)

    def test_accumulator_forces_c_order_for_any_producer(self):
        """A user-defined op may still return a transposed gradient."""

        class TransposedGrad(Function):
            @staticmethod
            def forward(ctx, a):
                return a * 2.0

            @staticmethod
            def backward(ctx, grad):
                return (np.asfortranarray(grad * 2.0),)

        leaf = Tensor(np.ones((3, 5)), requires_grad=True)
        TransposedGrad.apply(leaf).sum().backward()
        assert leaf.grad.data.flags.c_contiguous
        assert np.array_equal(leaf.grad.data, np.full((3, 5), 2.0))

    # -- the destination contract: ops write into the bucket view ------

    @pytest.mark.parametrize("case", DESTINATIONS)
    def test_local_matches_the_composed_reference(self, case):
        reference = DESTINATIONS[case][3]

        def layer_grads(apply):
            manual_seed(21)
            layer = DESTINATIONS[case][0]()
            out = apply(layer, _destination_input(case))
            (out * out).sum().backward()
            return [out.data] + [p.grad.data for p in layer.parameters()]

        fused = layer_grads(lambda layer, x: layer(x))
        composed = layer_grads(lambda layer, x: reference(x, *layer.parameters()))
        assert len(fused) == len(composed)
        for value, ref_value in zip(fused, composed):
            assert np.abs(value - ref_value).max() <= TOL

    @pytest.mark.parametrize("case", DESTINATIONS)
    def test_local_adopts_the_ops_array(self, case, monkeypatch):
        delivered = {}
        original = AccumulateGrad.accumulate

        def recording(self, grad, owned=False):
            delivered[id(self.tensor)] = (grad, owned)
            original(self, grad, owned)

        monkeypatch.setattr(AccumulateGrad, "accumulate", recording)
        arrivals, model = _destination_run(case)
        for param in model.parameters():
            grad, owned = delivered[id(param)]
            assert owned and param.grad.data is grad  # adopted, not copied
            assert grad.flags.c_contiguous and grad.base is None
            assert grad.dtype == param.data.dtype
        assert not any(in_place for in_place, _, _ in arrivals.values())

    def test_a_strided_view_is_copied_into_not_offered(self):
        # Conv2d writes through a reshape, which of a strided view would
        # be a copy: the gradient would never reach the view.
        def conv_grad(view=None):
            manual_seed(21)
            layer = nn.Conv2d(2, 3, 3, padding=1)
            if view is not None:
                layer.weight.accumulator().set_grad_view(view)
            out = layer(_destination_input("conv-bias"))
            (out * out).sum().backward()
            return layer.weight

        view = Tensor(np.zeros((3, 3, 2, 3)).T)  # the weight's shape, F order
        weight = conv_grad(view)
        assert weight.grad is view and not weight.accumulator().in_place
        assert np.array_equal(view.data, conv_grad().grad.data)

    def test_local_copies_a_gradient_of_another_dtype(self):
        layer = nn.Linear(6, 5)
        layer.weight.data = layer.weight.data.astype(np.float32)
        layer.bias.data = layer.bias.data.astype(np.float32)
        x = np.random.default_rng(2).standard_normal((4, 6))  # float64 input
        layer(Tensor(x)).sum().backward()
        assert layer.weight.grad.data.dtype == np.float32
        expected = (np.ones((4, 5)).T @ x).astype(np.float32)
        assert np.array_equal(layer.weight.grad.data, expected)

    @pytest.mark.parametrize("case", DESTINATIONS)
    def test_ddp_view_written_in_place_with_the_local_bits(self, case):
        local, _ = _destination_run(case)

        def body(rank):
            arrivals, ddp = _destination_run(case, DistributedDataParallel)
            flats = [bucket.flat for bucket in ddp.reducer.buckets]
            stats = ddp.ddp_stats()
            return (_summary(arrivals, flats), stats["grad_copy_count"],
                    stats["zero_copy_hits"], _final_grads(ddp.module))

        for summary, copies, hits, final in run_world(2, body, backend="gloo"):
            assert summary.keys() == local.keys()
            for name, (in_place, bits, in_flat) in summary.items():
                assert in_place and in_flat, name
                assert np.array_equal(bits, local[name][1]), name
                assert np.array_equal(final[name], local[name][1]), name  # (g + g) / 2
            assert (copies, hits) == (0, 2 * len(local))

    @pytest.mark.parametrize("case", DESTINATIONS)
    def test_zero3_written_in_place_with_the_local_bits(self, case):
        local, _ = _destination_run(case)

        def body(rank):
            # The flats are released at the end of backward: keep each
            # one as it is reduce-scattered.
            group, flats = get_context().default_group, []
            launch = group.reduce_scatter_flat
            group.reduce_scatter_flat = lambda flat, *args, **kwargs: (
                flats.append(flat) or launch(flat, *args, **kwargs))
            arrivals, _ = _destination_run(
                case, lambda model: FullyShardedDataParallel(model, lambda ps: SGD(ps, lr=0.1))
            )
            return _summary(arrivals, flats)

        for summary in run_world(2, body, backend="gloo"):
            assert summary.keys() == local.keys()
            for name, (in_place, bits, in_flat) in summary.items():
                assert np.array_equal(bits, local[name][1]), name
                # Backward reaches the head's unit first, and its flat
                # opens only when the head's bias lands (adopted, then
                # copied in): the head's weight was not offered a view
                # and is copied.  The layer's unit is open before its
                # gradients arrive: every one is written in place.
                assert in_place == (not name.startswith("1.")), name
                assert in_flat == (name != "1.bias"), name

    def test_fallback_tied_parameter_is_copied_once(self):
        local, _ = _destination_run("tied")

        def body(rank):
            arrivals, ddp = _destination_run("tied", DistributedDataParallel)
            stats = ddp.ddp_stats()
            return (_summary(arrivals, [b.flat for b in ddp.reducer.buckets]),
                    stats["grad_copy_count"], stats["zero_copy_hits"])

        for summary, copies, hits in run_world(2, body, backend="gloo"):
            for name, (in_place, bits, in_flat) in summary.items():
                # The shared layer's sums take one copy into the view.
                assert in_flat and in_place == name.startswith("1."), name
                assert np.array_equal(bits, local[name][1]), name
            assert (copies, hits) == (4, 4)  # two passes

    def test_fallback_no_sync_second_micro_batch_accumulates(self):
        def local_run():
            model = _destination_model("linear-2d")
            for scale in (1.0, 2.0):
                out = model(_destination_input("linear-2d") * scale)
                (out * out).sum().backward()
            return _final_grads(model)

        expected = local_run()

        def body(rank):
            model = _destination_model("linear-2d")
            ddp = DistributedDataParallel(model)
            with ddp.no_sync():
                out = ddp(_destination_input("linear-2d"))
                (out * out).sum().backward()
            in_place = [p.accumulator().in_place for p in model.parameters()]
            out = ddp(_destination_input("linear-2d") * 2.0)
            (out * out).sum().backward()
            added = [p.accumulator().in_place for p in model.parameters()]
            return in_place, added, _final_grads(model), ddp.ddp_stats()["grad_copy_count"]

        for in_place, added, final, copies in run_world(2, body, backend="gloo"):
            assert all(in_place) and not any(added)  # written, then +=
            assert copies == len(final)
            for name, value in final.items():
                assert np.array_equal(value, expected[name]), name

    def test_fallback_find_unused_parameters(self):
        x = Tensor(np.random.default_rng(8).standard_normal((2, 3, 4)))

        def run(wrap):
            manual_seed(4)
            model = _Branches()
            forward = wrap(model)
            (forward(x, head=0) ** 2).sum().backward()
            return model

        local = _final_grads(run(lambda model: model))

        def body(rank):
            model = run(lambda m: DistributedDataParallel(m, find_unused_parameters=True))
            return model.heads[1].weight.grad, _final_grads(model)

        for unused, final in run_world(2, body, backend="gloo"):
            assert unused is None
            assert final.keys() == local.keys()
            for name, value in final.items():
                assert np.array_equal(value, local[name]), name

    def test_fallback_copy_mode(self):
        local, _ = _destination_run("conv-bias")

        def body(rank):
            arrivals, ddp = _destination_run(
                "conv-bias", lambda model: DistributedDataParallel(
                    model, gradient_as_bucket_view=False)
            )
            return _summary(arrivals, [b.flat for b in ddp.reducer.buckets]), _final_grads(ddp.module)

        for summary, final in run_world(2, body, backend="gloo"):
            for name, (in_place, bits, in_flat) in summary.items():
                assert not in_place and not in_flat, name
                assert np.array_equal(bits, local[name][1]), name
                assert np.array_equal(final[name], local[name][1]), name

    @pytest.mark.parametrize("case", ["linear-3d", "conv-bias", "batchnorm2d", "embedding",
                                      "attention", "block", "stage"])
    def test_float32_parameters_are_written_in_place(self, case):
        local, model = _destination_run(case, dtype=np.float32)
        assert {bits.dtype for _, bits, _ in local.values()} == {np.dtype(np.float32)}

        def body(rank):
            arrivals, ddp = _destination_run(case, DistributedDataParallel, dtype=np.float32)
            return _summary(arrivals, [b.flat for b in ddp.reducer.buckets])

        for summary in run_world(2, body, backend="gloo"):
            for name, (in_place, bits, in_flat) in summary.items():
                assert in_place and in_flat, name
                assert np.array_equal(bits, local[name][1]), name


# -- readiness order ---------------------------------------------------

def _ready_order(model, inputs):
    """Parameter indices in the order their gradients become ready."""
    order = []
    for index, param in enumerate(model.parameters()):
        param.accumulator().register_post_hook(lambda _, index=index: order.append(index))
    nn.CrossEntropyLoss()(model(inputs), np.zeros(4, dtype=np.int64)).backward()
    return order


class TestReadinessOrder:
    def test_bias_before_weight_and_reverse_of_parameters(self):
        for model, inputs in _models():
            order = _ready_order(model, inputs)
            assert order == list(reversed(range(len(order))))
        # Through the fused block nodes too: each hands its leaves their
        # gradients in input order, the reverse of registration.
        manual_seed(3)
        block = TransformerBlock(8, 2, 16)
        names = [name for name, _ in block.named_parameters()]
        order = []
        for index, param in enumerate(block.parameters()):
            param.accumulator().register_post_hook(lambda _, index=index: order.append(index))
        block(Tensor(np.random.default_rng(3).standard_normal((2, 5, 8)))).sum().backward()
        assert [names[i] for i in order] == names[::-1]
        assert names[::-1][:2] == ["norm2.bias", "norm2.weight"]
        assert names[::-1][-2:] == ["attention.query.bias", "attention.query.weight"]
        # ... and through the ConvNet stage's.
        stage = ConvStage(2, 3)
        names = [name for name, _ in stage.named_parameters()]
        order = []
        for index, param in enumerate(stage.parameters()):
            param.accumulator().register_post_hook(lambda _, index=index: order.append(index))
        stage(Tensor(np.random.default_rng(3).standard_normal((2, 2, 4, 4)))).sum().backward()
        assert [names[i] for i in order] == ["bn.bias", "bn.weight", "conv.bias", "conv.weight"]
        layer = nn.Linear(4, 3)
        names = [name for name, _ in layer.named_parameters()]
        order = _ready_order(layer, Tensor(np.ones((4, 4))))
        assert [names[i] for i in order] == ["bias", "weight"]


# -- ConvNet end to end ------------------------------------------------

IMAGES = np.random.default_rng(11).standard_normal((8, 1, 8, 8))
LABELS = np.random.default_rng(12).integers(0, 4, 8)


def _convnet(seed=5):
    manual_seed(seed)
    return ConvNet(num_classes=4, channels=3, image_size=8)


def _train(model, steps, forward=None):
    """SGD steps on one fixed batch, through ``forward`` (a wrapper of
    ``model``) when given; the loss of each step, then the state."""
    forward = forward or model
    optimizer, loss_fn, losses = SGD(model.parameters(), lr=0.05), nn.CrossEntropyLoss(), []
    for _ in range(steps):
        optimizer.zero_grad()
        loss = loss_fn(forward(Tensor(IMAGES)), LABELS)
        loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
    return losses, model.state_dict()


class TestConvNet:
    def test_seven_tape_nodes(self):
        model = _convnet()
        loss = nn.CrossEntropyLoss()(model(Tensor(IMAGES)), LABELS)
        assert _tape_nodes(loss) == 7
        names = []
        node = loss.grad_fn
        while node is not None:
            names.append(node.name())
            node = node.next_edges[0]
        assert names == ["CrossEntropy", "Linear", "Relu", "Linear", "Reshape", "ConvStage",
                         "ConvStage"]
        reference = cross_entropy_reference(as_reference(model)(Tensor(IMAGES)), LABELS)
        assert _tape_nodes(reference) == 40

    def test_model_matches_the_composed_chain(self):
        """Loss, every parameter gradient and the running statistics to
        1e-12 relative (the conv biases' gradients, 0 in exact
        arithmetic, absolutely)."""

        def run(model, loss_fn):
            loss = loss_fn(model(Tensor(IMAGES)), LABELS)
            loss.backward()
            grads = {n: p.grad.data for n, p in model.named_parameters()}
            return float(loss.data), grads, {n: b.data for n, b in model.named_buffers()}

        loss, grads, buffers = run(_convnet(), nn.CrossEntropyLoss())
        ref_loss, ref_grads, ref_buffers = run(as_reference(_convnet()), cross_entropy_reference)
        assert abs(loss - ref_loss) <= TOL * abs(ref_loss)
        assert grads.keys() == ref_grads.keys() and len(grads) == 12
        for name, grad in grads.items():
            if name.endswith("conv.bias"):
                assert np.abs(grad - ref_grads[name]).max() <= TOL, name
            else:
                _assert_close_relative(grad, ref_grads[name])
        assert buffers.keys() == ref_buffers.keys() and len(buffers) == 6
        for name, value in buffers.items():
            _assert_close_relative(value, ref_buffers[name])

    def test_five_steps_match_the_reference_formulations(self):
        # Summation order inside an op changed, so not bitwise: 1e-12 relative.
        losses, state = _train(_convnet(), steps=5)
        ref_losses, ref_state = _train(as_reference(_convnet()), steps=5)
        assert ref_losses[-1] < ref_losses[0]
        for loss, ref_loss in zip(losses, ref_losses):
            assert abs(loss - ref_loss) <= TOL * abs(ref_loss)
        for name in ("features.0.bn.running_mean", "features.1.bn.running_var", "head.3.weight"):
            assert np.abs(state[name] - ref_state[name]).max() <= 1e-10

    @pytest.mark.parametrize("as_view", [True, False], ids=["view", "copy"])
    def test_ddp_is_bitwise_local_training(self, as_view):
        """Every rank feeds the local run's batch, so the averaged
        gradient is the local one exactly — parameters, running
        statistics and losses must not differ in a single bit."""
        local_losses, local_state = _train(_convnet(), steps=3)

        def body(rank):
            model = _convnet(seed=5 + rank)  # the constructor broadcast aligns them
            ddp = DistributedDataParallel(
                model, bucket_cap_mb=0, gradient_as_bucket_view=as_view
            )
            return _train(model, steps=3, forward=ddp)

        for losses, state in run_world(2, body, backend="gloo"):
            assert losses == local_losses
            assert state.keys() == local_state.keys()
            for name, value in state.items():
                assert np.array_equal(value, local_state[name]), name


# -- DDP's state broadcasts are flat -----------------------------------

class TestFlatStateBroadcast:
    @staticmethod
    def _ops_per_phase(make_model, inputs, **ddp_kwargs):
        """Collective op names at construction, in a synchronized
        iteration, and in a ``no_sync`` forward/backward — per rank."""

        def body(rank):
            recorder = get_context().default_group.flight_recorder
            phases, mark = [], recorder.depth()

            def phase_done():
                nonlocal mark
                phases.append([r.op for r in recorder.records()[mark:]])
                mark = recorder.depth()

            ddp = DistributedDataParallel(make_model(), **ddp_kwargs)
            phase_done()
            loss_fn = nn.CrossEntropyLoss()
            loss_fn(ddp(inputs), LABELS).backward()
            phase_done()
            with ddp.no_sync():
                loss_fn(ddp(inputs), LABELS).backward()
            phase_done()
            return phases

        return run_world(2, body, backend="gloo")

    def test_convnet_counts(self, flight):
        for construction, iteration, unsynced in self._ops_per_phase(
            _convnet, Tensor(IMAGES), bucket_cap_mb=0
        ):
            assert construction == ["broadcast"] * 2  # parameters, buffers
            assert iteration == ["broadcast"] + ["allreduce"] * 12  # 13, was 18
            assert unsynced == []

    def test_no_buffer_broadcast_when_disabled_or_bufferless(self, flight):
        for kwargs, make_model, inputs in [
            (dict(broadcast_buffers=False), _convnet, Tensor(IMAGES)),
            (dict(), lambda: MLP(6, [8], 4), Tensor(IMAGES.reshape(8, -1)[:, :6])),
        ]:
            for construction, iteration, _ in self._ops_per_phase(make_model, inputs, **kwargs):
                assert construction == ["broadcast"] * (2 if kwargs else 1)
                assert iteration == ["allreduce"]

    def test_replicas_start_bitwise_from_rank_zero(self):
        expected = _convnet(seed=40).state_dict()

        def body(rank):
            model = _convnet(seed=40 + rank)
            for buffer in model.buffers():
                buffer.data += rank  # buffers differ too before the broadcast
            DistributedDataParallel(model)
            return model.state_dict()

        for state in run_world(2, body, backend="gloo"):
            for name, value in state.items():
                assert value.dtype == expected[name].dtype
                assert np.array_equal(value, expected[name]), name


# -- engine: the heap pops what the sort popped ------------------------

def _sorted_list_backward_order(root):
    """Node order of the engine this PR replaced: sort the ready list by
    ``seq_nr`` on every pop and take the last."""
    dependencies = engine_module._count_dependencies(root)
    ready, order = [root], []
    while ready:
        ready.sort(key=lambda n: n.seq_nr)
        node = ready.pop()
        order.append(node)
        for edge in node.next_edges:
            if edge is None:
                continue
            dependencies[edge] -= 1
            if dependencies[edge] == 0 and not isinstance(edge, AccumulateGrad):
                ready.append(edge)
    return order


class TestEngineOrder:
    def test_transformer_backward_runs_nodes_in_the_recorded_order(self, monkeypatch):
        executed = []
        real_pop = heapq.heappop

        def recording_pop(heap):
            item = real_pop(heap)
            executed.append(item[1])
            return item

        monkeypatch.setattr(engine_module.heapq, "heappop", recording_pop)
        # Two blocks of four nodes and the loss's one, and the composed
        # chain they replaced.
        for composed, expected_nodes in [(False, 14), (True, 133)]:
            manual_seed(1)
            model = as_reference(TinyTransformer()) if composed else TinyTransformer()
            loss_fn = cross_entropy_reference if composed else nn.CrossEntropyLoss()
            loss = loss_fn(
                model(np.random.default_rng(1).integers(0, 64, (4, 16))),
                np.zeros(4, dtype=np.int64),
            )
            expected = _sorted_list_backward_order(loss.grad_fn)
            assert len(expected) == expected_nodes
            executed.clear()
            loss.backward()
            assert [id(n) for n in executed] == [id(n) for n in expected]


# -- DDP protocols through the fused Linear ----------------------------

class _Branches(nn.Module):
    """Two bias-free heads over 3-D input; a forward uses one of them."""

    def __init__(self):
        super().__init__()
        self.trunk = nn.Linear(4, 4)
        self.heads = nn.ModuleList([nn.Linear(4, 2, bias=False) for _ in range(2)])

    def forward(self, x, head):
        return self.heads[head](self.trunk(x)).sum(axis=1)


class TestDdpThroughFusedLinear:
    def test_no_sync_accumulation_equals_reference_large_batch(self):
        rng = np.random.default_rng(5)
        xs, ys = rng.standard_normal((4, 3, 6)), rng.integers(0, 3, (4, 3))

        def body(rank):
            manual_seed(9)
            model = nn.Sequential(nn.Linear(6, 5), nn.Linear(5, 3))
            ddp = DistributedDataParallel(model)
            loss_fn = nn.CrossEntropyLoss(reduction="sum")
            with ddp.no_sync():
                loss_fn(ddp(Tensor(xs[2 * rank])), ys[2 * rank]).backward()
            loss_fn(ddp(Tensor(xs[2 * rank + 1])), ys[2 * rank + 1]).backward()
            return [p.grad.data.copy() for p in model.parameters()]

        manual_seed(9)
        model = nn.Sequential(nn.Linear(6, 5), nn.Linear(5, 3))
        w0, b0, w1, b1 = model.parameters()
        hidden = linear_reference(Tensor(xs.reshape(12, 6)), w0, b0)
        logits = linear_reference(hidden, w1, b1)
        nn.CrossEntropyLoss(reduction="sum")(logits, ys.reshape(12)).backward()
        for grads in run_world(2, body, backend="gloo"):
            for grad, param in zip(grads, model.parameters()):
                assert np.abs(grad - param.grad.data / 2).max() <= TOL

    def test_find_unused_parameters(self):
        def body(rank):
            manual_seed(4)
            model = _Branches()
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            x = Tensor(np.random.default_rng(rank).standard_normal((2, 3, 4)))
            nn.CrossEntropyLoss()(ddp(x, head=0), np.zeros(2, dtype=np.int64)).backward()
            return (model.heads[0].weight.grad.data.copy(),
                    model.heads[1].weight.grad, model.trunk.weight.grad.data.copy())

        (used0, unused0, trunk0), (used1, unused1, trunk1) = run_world(2, body, backend="gloo")
        assert unused0 is None and unused1 is None
        assert np.array_equal(used0, used1) and np.array_equal(trunk0, trunk1)
        assert np.abs(used0).max() > 0


# -- the profiler ------------------------------------------------------

class TestProfiler:
    def test_rows_and_restoration(self, rng):
        forward_before = ops.Linear.__dict__["forward"]
        accumulate_before = AccumulateGrad.accumulate
        layer = nn.Linear(4, 3)
        with profile_ops() as profile:
            assert ops.Linear.__dict__["forward"] is not forward_before
            for _ in range(2):
                layer(Tensor(rng.standard_normal((5, 4)))).sum().backward()
        assert ops.Linear.__dict__["forward"] is forward_before
        assert AccumulateGrad.accumulate is accumulate_before

        rows = {(r.op, r.direction): r for r in profile.rows(iters=2)}
        assert rows["Linear", "forward"].calls_per_iter == 1
        assert rows["Linear", "backward"].calls_per_iter == 1
        assert rows["AccumulateGrad", "accumulate"].calls_per_iter == 2
        assert all(r.self_ms_per_iter >= 0 for r in rows.values())
        assert sum(r.share for r in rows.values()) == pytest.approx(1.0)
        ranked = [r.self_ms_per_iter for r in profile.rows(iters=2)]
        assert ranked == sorted(ranked, reverse=True)

    def test_self_time_excludes_ops_run_by_a_post_hook(self):
        class Slow(Function):
            @staticmethod
            def forward(ctx: Context, a):
                sum(range(20000))
                return a

            @staticmethod
            def backward(ctx: Context, grad):
                return (grad,)

        leaf = Tensor(np.ones(3), requires_grad=True)
        leaf.accumulator().register_post_hook(lambda _: Slow.apply(Tensor(np.ones(1))))
        with profile_ops() as profile:
            (leaf * 2.0).sum().backward()
        nested = profile.self_s["Slow", "forward"]
        assert nested > 0
        assert profile.self_s["AccumulateGrad", "accumulate"] < nested

    def test_restores_on_error(self):
        before = ops.Gelu.__dict__["backward"]
        with pytest.raises(RuntimeError):
            with profile_ops():
                raise RuntimeError("boom")
        assert ops.Gelu.__dict__["backward"] is before

    @pytest.mark.parametrize("model", ["transformer", "mlp", "convnet"])
    def test_cli_prints_ranked_table(self, capsys, model):
        assert profiler_main(["--model", model, "--iters", "1"]) == 0
        out = capsys.readouterr().out
        assert "self ms/iter" in out and "op self time" in out
        assert ("ConvStage" if model == "convnet" else "Linear") in out
        # The loss's node included.
        nodes = {"transformer": 22, "mlp": 10, "convnet": 7}[model]
        assert f"{nodes} tape nodes per iteration" in out
        # 68 parameters x 14 Adam ufuncs, 10 x 4 momentum-SGD blocks of at
        # most 64 K elements (4 x 16 + 6 small), 12 x 2 plain SGD.
        calls = {"transformer": 952, "mlp": 280, "convnet": 24}[model]
        assert f"{calls} numpy calls" in out

    def test_count_numpy_calls_restores_the_modules(self):
        from repro.autograd.profiler import count_numpy_calls
        from repro.optim import adam, optimizer, sgd

        with count_numpy_calls() as counts:
            assert adam.np is not np
            assert isinstance(np.zeros(1), optimizer.np.ndarray)
        assert adam.np is np and sgd.np is np and optimizer.np is np
        assert sum(counts.values()) == 0
