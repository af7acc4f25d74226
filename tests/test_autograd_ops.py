"""Numeric gradient checks for every primitive operation."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, ops
from repro.autograd.function import unbroadcast

from conftest import numeric_gradient

TOL = 5e-6


def check_op_gradient(build_loss, *arrays, tol=TOL):
    """``build_loss(*tensors)`` must return a scalar Tensor; compares
    autograd gradients against central differences for every input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for tensor_in, array in zip(tensors, arrays):
        numeric = numeric_gradient(
            lambda: build_loss(*[Tensor(a) for a in arrays]).item(), array
        )
        assert tensor_in.grad is not None
        err = np.abs(tensor_in.grad.data - numeric).max()
        assert err < tol, f"gradient mismatch {err}"


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestElementwise:
    def test_add(self, rng):
        check_op_gradient(lambda a, b: (a + b).sum(), rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))

    def test_add_broadcast(self, rng):
        check_op_gradient(lambda a, b: (a + b).sum(), rng.standard_normal((3, 4)), rng.standard_normal(4))

    def test_sub(self, rng):
        check_op_gradient(lambda a, b: ((a - b) ** 2).sum(), rng.standard_normal(5), rng.standard_normal(5))

    def test_mul(self, rng):
        check_op_gradient(lambda a, b: (a * b).sum(), rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))

    def test_mul_broadcast_scalar_shape(self, rng):
        check_op_gradient(lambda a, b: (a * b).sum(), rng.standard_normal((2, 3)), rng.standard_normal((1, 3)))

    def test_div(self, rng):
        b = rng.standard_normal((3,)) + 3.0
        check_op_gradient(lambda x, y: (x / y).sum(), rng.standard_normal(3), b)

    def test_neg(self, rng):
        check_op_gradient(lambda a: (-a * a).sum(), rng.standard_normal(4))

    def test_pow(self, rng):
        a = np.abs(rng.standard_normal(5)) + 0.5
        check_op_gradient(lambda x: (x ** 3).sum(), a)

    def test_pow_negative_exponent(self, rng):
        a = np.abs(rng.standard_normal(5)) + 1.0
        check_op_gradient(lambda x: (x ** -0.5).sum(), a)

    def test_rsub_rdiv_radd_rmul(self, rng):
        a = np.abs(rng.standard_normal(4)) + 1.0
        check_op_gradient(lambda x: (2.0 - x).sum() + (2.0 / x).sum() + (1.0 + x).sum() + (3.0 * x).sum(), a)


class TestTranscendental:
    def test_exp(self, rng):
        check_op_gradient(lambda a: a.exp().sum(), rng.standard_normal(4))

    def test_log(self, rng):
        a = np.abs(rng.standard_normal(4)) + 0.5
        check_op_gradient(lambda x: x.log().sum(), a)

    def test_tanh(self, rng):
        check_op_gradient(lambda a: (a.tanh() ** 2).sum(), rng.standard_normal(4))

    def test_sigmoid(self, rng):
        check_op_gradient(lambda a: (a.sigmoid() * 3.0).sum(), rng.standard_normal(4))

    def test_relu(self, rng):
        a = rng.standard_normal(20) + 0.05  # avoid kink at exactly 0
        check_op_gradient(lambda x: (x.relu() * x).sum(), a)

    def test_gelu(self, rng):
        check_op_gradient(lambda a: ops.gelu(a).sum(), rng.standard_normal(6))


class TestLinearAlgebra:
    def test_matmul_2d(self, rng):
        check_op_gradient(
            lambda a, b: (a @ b).sum(), rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        )

    def test_matmul_batched(self, rng):
        check_op_gradient(
            lambda a, b: ((a @ b) ** 2).sum(),
            rng.standard_normal((2, 3, 4)),
            rng.standard_normal((2, 4, 5)),
        )

    def test_matmul_broadcast_batch(self, rng):
        check_op_gradient(
            lambda a, b: (a @ b).sum(),
            rng.standard_normal((2, 3, 4)),
            rng.standard_normal((4, 5)),
        )

    def test_transpose(self, rng):
        check_op_gradient(lambda a: (a.T @ a).sum(), rng.standard_normal((3, 4)))

    def test_reshape(self, rng):
        check_op_gradient(lambda a: (a.reshape(6) ** 2).sum(), rng.standard_normal((2, 3)))

    def test_getitem_slice(self, rng):
        check_op_gradient(lambda a: (a[1:] ** 2).sum(), rng.standard_normal((4, 3)))

    def test_getitem_fancy_repeated(self, rng):
        idx = np.array([0, 0, 2])
        check_op_gradient(lambda a: (a[idx] ** 2).sum(), rng.standard_normal((4, 3)))

    def test_cat(self, rng):
        check_op_gradient(
            lambda a, b: (ops.cat([a, b], axis=0) ** 2).sum(),
            rng.standard_normal((2, 3)),
            rng.standard_normal((4, 3)),
        )


class TestReductions:
    def test_sum_all(self, rng):
        check_op_gradient(lambda a: (a.sum() ** 2), rng.standard_normal((3, 3)))

    def test_sum_axis(self, rng):
        check_op_gradient(lambda a: (a.sum(axis=0) ** 2).sum(), rng.standard_normal((3, 4)))

    def test_sum_keepdims(self, rng):
        check_op_gradient(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), rng.standard_normal((3, 4)))

    def test_mean_all(self, rng):
        check_op_gradient(lambda a: a.mean() * 6.0, rng.standard_normal((2, 3)))

    def test_mean_axis_tuple(self, rng):
        check_op_gradient(lambda a: (a.mean(axis=(0, 2)) ** 2).sum(), rng.standard_normal((2, 3, 4)))

    def test_max_all(self, rng):
        a = rng.standard_normal(10)
        check_op_gradient(lambda x: x.max() * 2.0, a)

    def test_max_axis(self, rng):
        a = rng.standard_normal((4, 5))
        check_op_gradient(lambda x: (x.max(axis=1) ** 2).sum(), a)

    def test_softmax_rows_sum_to_one(self, rng):
        out = ops.softmax(Tensor(rng.standard_normal((5, 7))))
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_softmax_gradient(self, rng):
        check_op_gradient(lambda a: (ops.softmax(a, axis=-1) ** 2).sum(), rng.standard_normal((3, 4)))

    def test_log_softmax_gradient(self, rng):
        check_op_gradient(lambda a: (ops.log_softmax(a, axis=-1) * a).sum(), rng.standard_normal((3, 4)))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.standard_normal((4, 6)))
        assert np.allclose(ops.log_softmax(x).data, np.log(ops.softmax(x).data))


class TestConvPool:
    def test_conv2d_gradient(self, rng):
        check_op_gradient(
            lambda x, w: (ops.conv2d(x, w, stride=1, padding=1) ** 2).sum(),
            rng.standard_normal((2, 2, 5, 5)),
            rng.standard_normal((3, 2, 3, 3)),
            tol=1e-5,
        )

    def test_conv2d_stride2(self, rng):
        check_op_gradient(
            lambda x, w: ops.conv2d(x, w, stride=2, padding=0).sum(),
            rng.standard_normal((1, 1, 6, 6)),
            rng.standard_normal((2, 1, 2, 2)),
        )

    def test_conv2d_shape(self, rng):
        out = ops.conv2d(
            Tensor(rng.standard_normal((2, 3, 8, 8))),
            Tensor(rng.standard_normal((5, 3, 3, 3))),
            stride=2,
            padding=1,
        )
        assert out.shape == (2, 5, 4, 4)

    def test_conv2d_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            ops.conv2d(
                Tensor(rng.standard_normal((1, 3, 4, 4))),
                Tensor(rng.standard_normal((2, 4, 3, 3))),
            )

    def test_conv2d_matches_direct_computation(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        w = rng.standard_normal((1, 1, 2, 2))
        out = ops.conv2d(Tensor(x), Tensor(w)).data
        expected = np.zeros((1, 1, 3, 3))
        for i in range(3):
            for j in range(3):
                expected[0, 0, i, j] = (x[0, 0, i : i + 2, j : j + 2] * w[0, 0]).sum()
        assert np.allclose(out, expected)

    def test_maxpool_gradient(self, rng):
        a = rng.standard_normal((2, 2, 4, 4))
        check_op_gradient(lambda x: (ops.max_pool2d(x, 2) ** 2).sum(), a)

    def test_maxpool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = ops.max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_gradient(self, rng):
        check_op_gradient(
            lambda x: (ops.avg_pool2d(x, 2) ** 2).sum(), rng.standard_normal((1, 2, 4, 4))
        )

    def test_avgpool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = ops.avg_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])


class TestWindowGeometry:
    """Pooling and convolution raise ``ValueError`` on geometry with no
    output — kernel or stride below 1, negative padding, a kernel larger
    than the padded input — and ``stride=None`` means the kernel."""

    X = Tensor(np.ones((1, 2, 4, 4)))
    WEIGHT = Tensor(np.ones((3, 2, 3, 3)))

    def test_max_pool2d_zero_stride(self):
        with pytest.raises(ValueError, match="max_pool2d.*stride 0"):
            ops.max_pool2d(self.X, 2, 0)

    def test_max_pool2d_module_zero_stride(self):
        with pytest.raises(ValueError, match="stride 0"):
            nn.MaxPool2d(2, stride=0)(self.X)

    def test_max_pool2d_kernel_larger_than_input(self):
        with pytest.raises(ValueError, match="kernel 5x5.*4x4 input"):
            ops.max_pool2d(self.X, 5)

    def test_max_pool2d_zero_kernel(self):
        with pytest.raises(ValueError, match="kernel 0x0"):
            ops.max_pool2d(self.X, 0, 1)

    def test_avg_pool2d_zero_stride(self):
        with pytest.raises(ValueError, match="avg_pool2d.*stride 0"):
            ops.avg_pool2d(self.X, 2, 0)

    def test_avg_pool2d_module_zero_stride(self):
        with pytest.raises(ValueError, match="stride 0"):
            nn.AvgPool2d(2, stride=0)(self.X)

    def test_conv2d_zero_stride(self):
        with pytest.raises(ValueError, match="conv2d.*stride 0"):
            ops.conv2d(self.X, self.WEIGHT, stride=0)

    def test_conv2d_negative_padding(self):
        with pytest.raises(ValueError, match="padding -1"):
            ops.conv2d(self.X, self.WEIGHT, padding=-1)

    def test_conv2d_kernel_larger_than_padded_input(self):
        with pytest.raises(ValueError, match="kernel 7x7.*padding 1 on a 4x4 input"):
            ops.conv2d(self.X, Tensor(np.ones((3, 2, 7, 7))), padding=1)

    def test_none_stride_is_the_kernel_and_a_fitting_kernel_pools(self):
        assert ops.max_pool2d(self.X, 4).shape == (1, 2, 1, 1)
        assert ops.max_pool2d(self.X, 2, None).shape == (1, 2, 2, 2)
        assert ops.conv2d(self.X, Tensor(np.ones((3, 2, 6, 6))), padding=1).shape == (1, 3, 1, 1)


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert unbroadcast(g, (3, 4)) is g

    def test_leading_dims(self):
        assert unbroadcast(np.ones((2, 3, 4)), (3, 4)).shape == (3, 4)

    def test_kept_one_dims(self):
        out = unbroadcast(np.ones((3, 4)), (1, 4))
        assert out.shape == (1, 4)
        assert np.all(out == 3)

    def test_scalar_target(self):
        out = unbroadcast(np.ones((2, 3)), ())
        assert out.shape == ()
        assert out == 6
