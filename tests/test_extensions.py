"""MPI backend, P2P, root collectives, adaptive precision,
checkpointing."""

import os
import tempfile

import numpy as np

from repro import nn
from repro.autograd import Tensor
from repro.comm import get_context
from repro.core import DistributedDataParallel, comm_hooks
from repro.optim import SGD
from repro.utils import load_checkpoint, manual_seed, save_checkpoint

from conftest import run_world, small_classifier

RNG = np.random.default_rng(31)
X = RNG.standard_normal((8, 6))
Y = RNG.integers(0, 4, 8)


class TestMpiBackend:
    def test_allreduce(self):
        def body(rank):
            pg = get_context().default_group
            x = np.full(5, float(rank + 1))
            pg.allreduce(x)
            return x[0], pg.backend, pg.algorithm

        results = run_world(3, body, backend="mpi")
        assert results[0] == (6.0, "mpi", "ring")

    def test_ddp_training_on_mpi(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(3):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            return ddp.state_dict()

        states = run_world(2, body, backend="mpi")
        for name in states[0]:
            assert np.allclose(states[0][name], states[1][name])


class TestP2PAndRootCollectives:
    def test_send_recv(self):
        def body(rank):
            pg = get_context().default_group
            if rank == 0:
                pg.send(np.arange(4.0), dst=1, tag="hello")
                return None
            buf = np.zeros(4)
            pg.recv(buf, src=0, tag="hello")
            return buf.tolist()

        results = run_world(2, body, backend="gloo")
        assert results[1] == [0.0, 1.0, 2.0, 3.0]

    def test_reduce_to_root(self):
        def body(rank):
            pg = get_context().default_group
            x = np.full(3, float(rank + 1))
            pg.reduce(x, root=1)
            return x[0]

        results = run_world(3, body, backend="gloo")
        assert results[1] == 6.0  # only the root holds the full sum

    def test_gather(self):
        def body(rank):
            pg = get_context().default_group
            out = pg.gather(np.array([float(rank)]), root=0)
            return None if out is None else out.reshape(-1).tolist()

        results = run_world(3, body, backend="gloo")
        assert results[0] == [0.0, 1.0, 2.0]
        assert results[1] is None and results[2] is None

    def test_scatter(self):
        def body(rank):
            pg = get_context().default_group
            chunks = [np.full(2, float(i * 10)) for i in range(3)] if rank == 0 else None
            out = pg.scatter(chunks, root=0)
            return out.tolist()

        results = run_world(3, body, backend="gloo")
        assert results == [[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]]


class TestAdaptivePrecision:
    def test_level_depends_on_gradient_scale(self):
        hook = comm_hooks.AdaptivePrecisionHook(tolerance=1e-4)
        big = np.full(4, 100.0)
        small = np.full(4, 1e-3)
        assert hook._desired_level(big) < hook._desired_level(small)

    def test_zero_gradient_narrowest(self):
        hook = comm_hooks.AdaptivePrecisionHook()
        assert hook._desired_level(np.zeros(3)) == len(hook.LEVELS) - 1

    def test_training_with_adaptive_hook_converges(self):
        def body(rank):
            model = small_classifier()
            hook = comm_hooks.AdaptivePrecisionHook(tolerance=1e-5)
            ddp = DistributedDataParallel(model, comm_hook=hook)
            opt = SGD(ddp.parameters(), lr=0.2, momentum=0.9)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            losses = []
            for _ in range(60):
                opt.zero_grad()
                loss = loss_fn(ddp(Tensor(X[shard])), Y[shard])
                loss.backward()
                opt.step()
                losses.append(loss.item())
            return losses[0], losses[-1], set(hook.chosen_levels.values())

        for first, last, levels in run_world(2, body, backend="gloo", timeout=30):
            assert last < first * 0.5
            assert levels  # some level was chosen collectively

    def test_ranks_agree_on_chosen_level(self):
        def body(rank):
            model = small_classifier()
            hook = comm_hooks.AdaptivePrecisionHook(tolerance=1e-6)
            ddp = DistributedDataParallel(model, comm_hook=hook)
            loss_fn = nn.CrossEntropyLoss()
            # different data -> potentially different desired levels
            loss_fn(ddp(Tensor(X[:4] * (rank + 1) * 100)), Y[:4]).backward()
            return sorted(hook.chosen_levels.values())

        levels = run_world(2, body, backend="gloo")
        assert levels[0] == levels[1]


class TestCheckpointing:
    def test_roundtrip(self):
        model = small_classifier()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt.npz")
            save_checkpoint(path, model, extra={"epoch": 3, "lr": 0.1})
            other = small_classifier()
            for p in other.parameters():
                p.data[...] = 0.0
            extra = load_checkpoint(path, other)
            assert extra["epoch"] == 3
            assert float(extra["lr"]) == 0.1
            for (na, a), (nb, b) in zip(
                model.named_parameters(), other.named_parameters()
            ):
                assert np.array_equal(a.data, b.data)

    def test_rank0_save_then_broadcast_on_load(self):
        """The DDP checkpointing pattern: load on rank 0 only, let the
        constructor broadcast align every replica."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.npz")
            source = small_classifier()
            for p in source.parameters():
                p.data += 5.0
            save_checkpoint(path, source)
            expected = source.state_dict()

            def body(rank):
                manual_seed(100 + rank)
                model = small_classifier()
                if rank == 0:
                    load_checkpoint(path, model)
                ddp = DistributedDataParallel(model)
                return ddp.state_dict()

            states = run_world(2, body, backend="gloo")
            for name in expected:
                assert np.allclose(states[0][name], expected[name])
                assert np.allclose(states[1][name], expected[name])
