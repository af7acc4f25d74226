"""End-to-end integration: full distributed training runs."""

import numpy as np

from repro import nn
from repro.autograd import Tensor
from repro.core import DistributedDataParallel, comm_hooks
from repro.data import DataLoader, DistributedSampler, make_classification, synthetic_mnist
from repro.models import MLP, ConvNet, StochasticDepthMLP, TinyTransformer
from repro.optim import SGD, Adam
from repro.utils import manual_seed

from conftest import run_world


class TestFullTrainingRuns:
    def test_mlp_classification_converges_distributed(self):
        """2-rank DDP + DistributedSampler reaches high train accuracy."""
        ds = make_classification(128, 8, 3, separation=3.0, seed=0)

        def body(rank):
            manual_seed(1)
            model = MLP(8, [32], 3)
            ddp = DistributedDataParallel(model)
            sampler = DistributedSampler(ds, 2, rank, shuffle=True, seed=0)
            loader = DataLoader(ds, batch_size=16, sampler=sampler)
            opt = SGD(ddp.parameters(), lr=0.1)
            loss_fn = nn.CrossEntropyLoss()
            for epoch in range(8):
                sampler.set_epoch(epoch)
                for x, y in loader:
                    opt.zero_grad()
                    loss_fn(ddp(x), y).backward()
                    opt.step()
            # evaluate on the whole dataset
            xs = Tensor(np.stack([ds[i][0] for i in range(len(ds))]))
            ys = np.array([ds[i][1] for i in range(len(ds))])
            predictions = ddp(xs).argmax(axis=1)
            return float((predictions == ys).mean()), ddp.state_dict()

        results = run_world(2, body, backend="gloo", timeout=60)
        accuracies = [acc for acc, _ in results]
        assert min(accuracies) > 0.9
        # replicas ended identical
        for name, value in results[0][1].items():
            assert np.allclose(value, results[1][1][name])

    def test_convnet_on_synthetic_mnist_distributed(self):
        ds = synthetic_mnist(64, noise=0.15, seed=2)

        def body(rank):
            manual_seed(3)
            model = ConvNet(channels=2)
            ddp = DistributedDataParallel(model)
            sampler = DistributedSampler(ds, 2, rank, shuffle=True)
            loader = DataLoader(ds, batch_size=16, sampler=sampler)
            opt = Adam(ddp.parameters(), lr=5e-3)
            loss_fn = nn.CrossEntropyLoss()
            losses = []
            for epoch in range(3):
                sampler.set_epoch(epoch)
                for x, y in loader:
                    opt.zero_grad()
                    loss = loss_fn(ddp(x), y)
                    loss.backward()
                    opt.step()
                    losses.append(loss.item())
            return losses[0], losses[-1]

        for first, last in run_world(2, body, backend="gloo", timeout=120):
            assert last < first

    def test_transformer_distributed_with_no_sync(self):
        """Gradient accumulation (2 micro-batches) on a transformer."""
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 32, (32, 8))
        labels = rng.integers(0, 2, 32)

        def body(rank):
            manual_seed(5)
            model = TinyTransformer(
                vocab_size=32, max_seq_len=8, hidden=16, num_heads=2,
                num_layers=1, ffn_dim=32, num_classes=2,
            )
            ddp = DistributedDataParallel(model)
            opt = Adam(ddp.parameters(), lr=1e-2)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 16, (rank + 1) * 16)
            x, y = tokens[shard], labels[shard]
            losses = []
            for _ in range(10):
                opt.zero_grad()
                with ddp.no_sync():
                    loss_fn(ddp(x[:8]), y[:8]).backward()
                loss = loss_fn(ddp(x[8:]), y[8:])
                loss.backward()
                opt.step()
                losses.append(loss.item())
            return losses[0], losses[-1], ddp.state_dict()

        results = run_world(2, body, backend="gloo", timeout=120)
        assert results[0][1] < results[0][0]
        for name, value in results[0][2].items():
            assert np.allclose(value, results[1][2][name])

    def test_stochastic_depth_with_shared_seed(self):
        """Layer dropping (§6.2.2): skipped layers are marked ready in
        the forward pass (find_unused_parameters), and the shared seed
        keeps the skip pattern — hence the bitmap — aligned across
        ranks."""

        def body(rank):
            manual_seed(6)
            model = StochasticDepthMLP(num_blocks=4, drop_prob=0.4)
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            rng = np.random.default_rng(10)  # same data-gen on both ranks
            manual_seed(7)  # SAME dropout seed on every rank
            kept_history = []
            for _ in range(4):
                x = Tensor(rng.standard_normal((4, 16)))
                y = rng.integers(0, 4, 4)
                opt.zero_grad()
                loss_fn(ddp(x), y).backward()
                opt.step()
                kept_history.append(tuple(model.last_kept))
            return kept_history, ddp.state_dict()

        results = run_world(2, body, backend="gloo", timeout=60)
        assert results[0][0] == results[1][0]  # same skip pattern
        for name, value in results[0][1].items():
            assert np.allclose(value, results[1][1][name])

    def test_stochastic_depth_divergent_seeds_needs_find_unused(self):
        """Different skip patterns across ranks require
        find_unused_parameters=True and still stay consistent."""

        def body(rank):
            manual_seed(6)
            model = StochasticDepthMLP(num_blocks=4, drop_prob=0.5)
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            rng = np.random.default_rng(10)
            manual_seed(100 + rank)  # DIFFERENT dropout draws per rank
            for _ in range(4):
                x = Tensor(rng.standard_normal((4, 16)))
                y = rng.integers(0, 4, 4)
                opt.zero_grad()
                loss_fn(ddp(x), y).backward()
                opt.step()
            return ddp.state_dict()

        results = run_world(2, body, backend="gloo", timeout=60)
        for name, value in results[0].items():
            assert np.allclose(value, results[1][name])

    def test_four_ranks_with_compression_and_sampler(self):
        """Maximal composition: 4 ranks, fp16 hook, sampler, momentum."""
        ds = make_classification(64, 6, 2, separation=4.0, seed=5)

        def body(rank):
            manual_seed(9)
            model = MLP(6, [16], 2)
            ddp = DistributedDataParallel(
                model, comm_hook=comm_hooks.Fp16Hook()
            )
            sampler = DistributedSampler(ds, 4, rank, shuffle=True)
            loader = DataLoader(ds, batch_size=8, sampler=sampler)
            opt = SGD(ddp.parameters(), lr=0.1, momentum=0.9)
            loss_fn = nn.CrossEntropyLoss()
            for epoch in range(4):
                sampler.set_epoch(epoch)
                for x, y in loader:
                    opt.zero_grad()
                    loss_fn(ddp(x), y).backward()
                    opt.step()
            xs = Tensor(np.stack([ds[i][0] for i in range(len(ds))]))
            ys = np.array([ds[i][1] for i in range(len(ds))])
            return float((ddp(xs).argmax(axis=1) == ys).mean())

        accuracies = run_world(4, body, backend="gloo", timeout=120)
        assert min(accuracies) > 0.85
