"""Cross-feature interaction coverage: combinations the paper's design
must support simultaneously."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, randn
from repro.core import DistributedDataParallel, comm_hooks
from repro.models import BranchedModel
from repro.optim import SGD
from repro.utils import manual_seed

from conftest import run_world, small_classifier

RNG = np.random.default_rng(71)
X = RNG.standard_normal((8, 6))
Y = RNG.integers(0, 4, 8)


class TestNcclBitmapStaging:
    """find_unused_parameters on the NCCL backend exercises the §4.2
    CPU-bitmap -> device-bitmap staging (NCCL rejects CPU tensors)."""

    def test_unused_params_with_nccl(self):
        def body(rank):
            manual_seed(9)
            model = BranchedModel().to("gpu:0")
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            x = Tensor(np.ones((2, 8)))
            nn.CrossEntropyLoss()(ddp(x, branch=0), np.zeros(2, dtype=np.int64)).backward()
            used = all(p.grad is not None for p in model.branches[0].parameters())
            untouched = all(p.grad is None for p in model.branches[1].parameters())
            return used, untouched

        assert run_world(2, body, backend="nccl") == [(True, True)] * 2

    def test_cpu_model_with_nccl_fails_loudly(self):
        """A CPU-tagged model on the NCCL backend is rejected at the
        constructor broadcast, not deep inside the backward pass."""

        def body(rank):
            DistributedDataParallel(small_classifier())  # cpu params

        with pytest.raises(RuntimeError, match="cpu"):
            run_world(2, body, backend="nccl", timeout=3)


class TestHookAndNoSync:
    def test_compression_hook_respects_no_sync(self):
        """Inside no_sync, no communication happens even with a hook."""

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(
                model, comm_hook=comm_hooks.Fp16Hook()
            )
            hub = ddp.process_group.hub
            loss_fn = nn.CrossEntropyLoss()
            baseline = hub.bytes_sent[rank]
            with ddp.no_sync():
                loss_fn(ddp(Tensor(X[:4])), Y[:4]).backward()
            silent = hub.bytes_sent[rank] - baseline
            loss_fn(ddp(Tensor(X[:4])), Y[:4]).backward()
            talked = hub.bytes_sent[rank] - baseline - silent
            return silent, talked

        results = run_world(2, body, backend="gloo")
        for silent, talked in results:
            assert silent == 0
            assert talked > 0

    def test_accumulated_then_compressed_sync_matches_plain(self):
        """no_sync accumulation followed by an fp16-compressed sync
        produces the same (within fp16) gradients as uncompressed."""

        def run_with(hook_factory):
            def body(rank):
                model = small_classifier()
                ddp = DistributedDataParallel(model, comm_hook=hook_factory())
                loss_fn = nn.CrossEntropyLoss()
                shard = slice(rank * 4, (rank + 1) * 4)
                with ddp.no_sync():
                    loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                return {n: p.grad.data.copy() for n, p in model.named_parameters()}

            return run_world(2, body, backend="gloo")

        plain = run_with(lambda: None)
        compressed = run_with(comm_hooks.Fp16Hook)
        for name in plain[0]:
            scale = np.abs(plain[0][name]).max() + 1e-12
            assert np.abs(plain[0][name] - compressed[0][name]).max() / scale < 5e-3


class TestOverlapOffCombos:
    def test_no_overlap_with_find_unused(self):
        def body(rank):
            manual_seed(9)
            model = BranchedModel()
            ddp = DistributedDataParallel(
                model, overlap=False, find_unused_parameters=True
            )
            x = Tensor(np.ones((2, 8)))
            nn.CrossEntropyLoss()(ddp(x, branch=rank % 2), np.zeros(2, dtype=np.int64)).backward()
            return ddp.reducer.finalized

        assert all(run_world(2, body, backend="gloo"))

    def test_no_overlap_with_comm_hook(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(
                model, overlap=False, comm_hook=comm_hooks.AdaptivePrecisionHook()
            )
            nn.CrossEntropyLoss()(ddp(Tensor(X[:4])), Y[:4]).backward()
            return all(p.grad is not None for p in model.parameters())

        assert all(run_world(2, body, backend="gloo"))


class TestEngineErrorPaths:
    def test_backward_too_few_grads_detected(self):
        from repro.autograd.function import Context, Function

        class Lopsided(Function):
            @staticmethod
            def forward(ctx: Context, a, b):
                return a + b

            @staticmethod
            def backward(ctx: Context, grad):
                return (grad,)  # forgot b's gradient

        a = randn(3, requires_grad=True)
        b = randn(3, requires_grad=True)
        with pytest.raises(RuntimeError, match="returned 1 gradients"):
            Lopsided.apply(a, b).sum().backward()

    def test_context_attributes_roundtrip(self):
        from repro.autograd.function import Context

        ctx = Context()
        ctx.save_for_backward(np.ones(2), np.zeros(3))
        ctx.anything = "custom"
        assert len(ctx.saved) == 2
        assert ctx.anything == "custom"


class TestZeroBucketWithEverything:
    def test_per_gradient_buckets_with_unused_and_momentum(self):
        """The most adversarial functional combo: 0MB buckets (one per
        gradient), dynamic graphs, and momentum — replicas still agree."""

        def body(rank):
            manual_seed(9)
            model = BranchedModel(num_branches=2)
            ddp = DistributedDataParallel(
                model, bucket_cap_mb=0.0, find_unused_parameters=True
            )
            opt = SGD(ddp.parameters(), lr=0.05, momentum=0.9)
            loss_fn = nn.CrossEntropyLoss()
            rng = np.random.default_rng(5)  # same stream on both ranks
            for it in range(4):
                x = Tensor(rng.standard_normal((4, 8)))
                y = rng.integers(0, 4, 4)
                opt.zero_grad()
                loss_fn(ddp(x, branch=(it + rank) % 2), y).backward()
                opt.step()
            return ddp.state_dict()

        states = run_world(2, body, backend="gloo")
        for name in states[0]:
            assert np.allclose(states[0][name], states[1][name])
