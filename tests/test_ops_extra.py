"""Additional ops (abs/sqrt/clamp/stack/min/split) and layers."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, ops, randn
from repro.utils import manual_seed

from test_autograd_ops import check_op_gradient


@pytest.fixture(autouse=True)
def seed():
    manual_seed(13)


class TestExtraOps:
    def test_abs_gradient(self, ):
        a = np.array([1.5, -2.0, 3.0, -0.5])
        check_op_gradient(lambda x: (ops.abs(x) * x).sum(), a)

    def test_sqrt_gradient(self):
        a = np.abs(np.random.default_rng(0).standard_normal(5)) + 0.5
        check_op_gradient(lambda x: ops.sqrt(x).sum(), a)

    def test_clamp_values(self):
        out = ops.clamp(Tensor(np.array([-2.0, 0.5, 3.0])), low=-1.0, high=1.0)
        assert np.allclose(out.data, [-1.0, 0.5, 1.0])

    def test_clamp_gradient_masks_boundaries(self):
        a = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        ops.clamp(a, low=-1.0, high=1.0).sum().backward()
        assert np.allclose(a.grad.data, [0.0, 1.0, 0.0])

    def test_clamp_one_sided(self):
        out = ops.clamp(Tensor(np.array([-2.0, 2.0])), low=0.0)
        assert np.allclose(out.data, [0.0, 2.0])

    def test_stack_forward_backward(self):
        rng = np.random.default_rng(1)
        check_op_gradient(
            lambda a, b: (ops.stack([a, b], axis=0) ** 2).sum(),
            rng.standard_normal((2, 3)),
            rng.standard_normal((2, 3)),
        )

    def test_stack_axis1(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3)))
        assert ops.stack([a, b], axis=1).shape == (2, 2, 3)

    def test_min_reduction_gradient(self):
        a = np.random.default_rng(2).standard_normal((4, 5))
        check_op_gradient(lambda x: (ops.min(x, axis=1) ** 2).sum(), a)

    def test_min_matches_numpy(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert ops.min(a).item() == 0.0
        assert np.allclose(ops.min(a, axis=0).data, [0, 1, 2])

    def test_split_roundtrip(self):
        a = randn(6, 4, requires_grad=True)
        parts = ops.split(a, 3, axis=0)
        assert len(parts) == 3
        assert all(p.shape == (2, 4) for p in parts)
        sum(((p * (i + 1)) ** 2).sum() for i, p in enumerate(parts)).backward()
        assert a.grad is not None
        # different scale per part -> distinct gradient blocks
        assert not np.allclose(a.grad.data[:2], a.grad.data[2:4])

    def test_split_validates(self):
        with pytest.raises(ValueError):
            ops.split(randn(5, 2), 2, axis=0)


class TestExtraLayers:
    def test_identity(self):
        x = randn(3, 3)
        assert nn.Identity()(x) is x

    def test_softmax_module(self):
        out = nn.Softmax()(randn(4, 6))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_axis(self):
        out = nn.Softmax(axis=0)(randn(4, 6))
        assert np.allclose(out.data.sum(axis=0), 1.0)

    def test_groupnorm_normalizes_groups(self):
        gn = nn.GroupNorm(2, 4)
        x = randn(3, 4, 5, 5) * 7.0 + 2.0
        out = gn(x)
        grouped = out.data.reshape(3, 2, -1)
        assert np.abs(grouped.mean(axis=-1)).max() < 1e-6
        assert np.abs(grouped.std(axis=-1) - 1.0).max() < 1e-3

    def test_groupnorm_2d_input(self):
        gn = nn.GroupNorm(2, 6)
        assert gn(randn(4, 6)).shape == (4, 6)

    def test_groupnorm_has_no_buffers(self):
        assert list(nn.GroupNorm(2, 4).buffers()) == []

    def test_groupnorm_gradients(self):
        gn = nn.GroupNorm(2, 4)
        (gn(randn(2, 4, 3, 3)) ** 2).sum().backward()
        assert gn.weight.grad is not None and gn.bias.grad is not None

    def test_groupnorm_validation(self):
        with pytest.raises(ValueError):
            nn.GroupNorm(3, 4)
        with pytest.raises(ValueError):
            nn.GroupNorm(2, 4)(randn(1, 6, 2, 2))

    def test_groupnorm_in_ddp_training(self):
        """GroupNorm removes buffer coupling: DDP equivalence holds with
        no buffer broadcasts at all."""
        from repro.core import DistributedDataParallel
        from repro.optim import SGD
        from conftest import run_world

        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 4, 2, 2))
        Y = rng.integers(0, 3, 8)

        def make_model():
            manual_seed(5)
            return nn.Sequential(
                nn.Conv2d(4, 4, 1), nn.GroupNorm(2, 4), nn.ReLU(),
                nn.Flatten(), nn.Linear(16, 3),
            )

        # local reference
        model = make_model()
        opt = SGD(model.parameters(), lr=0.05)
        loss_fn = nn.CrossEntropyLoss()
        for _ in range(3):
            opt.zero_grad()
            loss_fn(model(Tensor(X)), Y).backward()
            opt.step()
        reference = model.state_dict()

        def body(rank):
            m = make_model()
            ddp = DistributedDataParallel(m)
            opt = SGD(ddp.parameters(), lr=0.05)
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(3):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            return ddp.state_dict()

        states = run_world(2, body, backend="gloo")
        for name in reference:
            assert np.allclose(states[0][name], reference[name], atol=1e-9)
