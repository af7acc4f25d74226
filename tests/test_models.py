"""Real trainable models."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import randn
from repro.models import (
    MLP,
    BranchedModel,
    ConvNet,
    StochasticDepthMLP,
    TinyTransformer,
)
from repro.optim import Adam, SGD
from repro.utils import manual_seed


@pytest.fixture(autouse=True)
def seed():
    manual_seed(2)


class TestMLP:
    def test_shapes(self):
        mlp = MLP(10, [32, 16], 3)
        assert mlp(randn(5, 10)).shape == (5, 3)

    def test_batch_norm_variant_has_buffers(self):
        mlp = MLP(4, [8], 2, batch_norm=True)
        assert len(list(mlp.buffers())) == 3

    def test_trains(self):
        mlp = MLP(4, [16], 1)
        x, y = randn(16, 4), randn(16, 1)
        opt = SGD(mlp.parameters(), lr=0.1)
        first = nn.MSELoss()(mlp(x), y).item()
        for _ in range(50):
            opt.zero_grad()
            loss = nn.MSELoss()(mlp(x), y)
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.5


class TestConvNet:
    def test_output_shape(self):
        net = ConvNet(num_classes=10, channels=4)
        assert net(randn(2, 1, 28, 28)).shape == (2, 10)

    def test_all_params_get_grads(self):
        net = ConvNet(channels=2)
        out = net(randn(2, 1, 28, 28))
        nn.CrossEntropyLoss()(out, np.array([1, 2])).backward()
        assert all(p.grad is not None for p in net.parameters())

    def test_learns_synthetic_mnist(self):
        from repro.data import DataLoader, synthetic_mnist

        ds = synthetic_mnist(96, noise=0.15, seed=1)
        loader = DataLoader(ds, batch_size=32)
        net = ConvNet(channels=4)
        opt = Adam(net.parameters(), lr=5e-3)
        loss_fn = nn.CrossEntropyLoss()
        losses = []
        for _ in range(4):
            for x, y in loader:
                opt.zero_grad()
                loss = loss_fn(net(x), y)
                loss.backward()
                opt.step()
                losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.8


class TestTinyTransformer:
    def test_output_shape(self):
        model = TinyTransformer(num_classes=5)
        tokens = np.random.default_rng(0).integers(0, 64, (3, 12))
        assert model(tokens).shape == (3, 5)

    def test_gradients_reach_embeddings(self):
        model = TinyTransformer()
        tokens = np.random.default_rng(0).integers(0, 64, (2, 8))
        nn.CrossEntropyLoss()(model(tokens), np.array([0, 1])).backward()
        assert model.token_embedding.weight.grad is not None
        assert model.position_embedding.weight.grad is not None

    def test_attention_is_permutation_sensitive(self):
        """Position embeddings break permutation invariance."""
        model = TinyTransformer()
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 64, (1, 8))
        out1 = model(tokens).data
        out2 = model(tokens[:, ::-1]).data
        assert not np.allclose(out1, out2)

    def test_learns_token_counting_task(self):
        """Classify sequences by their dominant token id bucket."""
        rng = np.random.default_rng(3)
        n, seq = 64, 8
        labels = rng.integers(0, 2, n)
        tokens = np.where(
            rng.random((n, seq)) < 0.8,
            (labels[:, None] * 8 + rng.integers(0, 8, (n, seq))),
            rng.integers(0, 16, (n, seq)),
        )
        model = TinyTransformer(
            vocab_size=16, max_seq_len=seq, hidden=16, num_heads=2,
            num_layers=1, ffn_dim=32, num_classes=2,
        )
        opt = Adam(model.parameters(), lr=1e-2)
        loss_fn = nn.CrossEntropyLoss()
        first = loss_fn(model(tokens), labels).item()
        for _ in range(30):
            opt.zero_grad()
            loss = loss_fn(model(tokens), labels)
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.5

    def test_head_dim_validation(self):
        with pytest.raises(ValueError):
            TinyTransformer(hidden=30, num_heads=4)


class TestDynamicModels:
    def test_branch_selection(self):
        model = BranchedModel(num_branches=3)
        x = randn(2, 8)
        out = model(x, branch=2)
        out.sum().backward()
        assert all(p.grad is not None for p in model.branches[2].parameters())
        assert all(p.grad is None for p in model.branches[0].parameters())
        assert all(p.grad is not None for p in model.trunk.parameters())

    def test_invalid_branch(self):
        with pytest.raises(ValueError):
            BranchedModel()(randn(1, 8), branch=9)

    def test_stochastic_depth_skips_blocks(self):
        model = StochasticDepthMLP(num_blocks=6, drop_prob=0.5)
        manual_seed(0)
        model(randn(2, 16))
        kept_first = list(model.last_kept)
        model(randn(2, 16))
        assert len(kept_first) < 6 or len(model.last_kept) < 6

    def test_stochastic_depth_eval_keeps_all(self):
        model = StochasticDepthMLP(num_blocks=4, drop_prob=0.9)
        model.eval()
        model(randn(2, 16))
        assert model.last_kept == [0, 1, 2, 3]

    def test_skipped_blocks_get_no_grads(self):
        model = StochasticDepthMLP(num_blocks=4, drop_prob=0.5)
        manual_seed(1)
        out = model(randn(2, 16))
        out.sum().backward()
        kept = set(model.last_kept)
        for index, block in enumerate(model.blocks):
            has_grad = all(p.grad is not None for p in block.parameters())
            assert has_grad == (index in kept)
