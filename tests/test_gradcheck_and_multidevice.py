"""The public gradcheck utility and multi-device model support."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import GradcheckError, Tensor, gradcheck, ops
from repro.core import DistributedDataParallel
from repro.core.bucket import compute_bucket_assignment
from repro.optim import SGD
from repro.utils import manual_seed

from conftest import run_world


class TestGradcheck:
    def test_passes_for_correct_ops(self):
        rng = np.random.default_rng(0)
        assert gradcheck(lambda a, b: (a @ b).sum(), [rng.standard_normal((3, 4)),
                                                      rng.standard_normal((4, 2))])
        assert gradcheck(lambda a: ops.gelu(a).sum(), [rng.standard_normal(5)])
        assert gradcheck(lambda a: (a.tanh() * a).mean(), [rng.standard_normal(6)])

    def test_detects_wrong_backward(self):
        from repro.autograd.function import Context, Function

        class BadSquare(Function):
            @staticmethod
            def forward(ctx: Context, a):
                ctx.save_for_backward(a)
                return a * a

            @staticmethod
            def backward(ctx: Context, grad):
                (a,) = ctx.saved
                return (grad * a,)  # WRONG: missing factor 2

        with pytest.raises(GradcheckError, match="mismatch"):
            gradcheck(lambda a: BadSquare.apply(a).sum(), [np.array([1.0, 2.0])])

    def test_detects_missing_gradient(self):
        with pytest.raises(GradcheckError, match="no gradient"):
            gradcheck(lambda a, b: (a * 2.0).sum(), [np.ones(2), np.ones(2)])

    def test_requires_scalar(self):
        with pytest.raises(ValueError):
            gradcheck(lambda a: a * 2.0, [np.ones(3)])


class TestMultiDeviceModels:
    """Paper §4.1 "Model Device Affinity": DDP treats a model spanning
    devices as one entity; buckets never mix devices (§4.2)."""

    @staticmethod
    def _make_split_model():
        manual_seed(21)
        model = nn.Sequential(nn.Linear(6, 16), nn.ReLU(), nn.Linear(16, 4))
        # first layer on gpu:0, second on gpu:1
        model[0].to("gpu:0")
        model[2].to("gpu:1")
        return model

    def test_buckets_respect_device_affinity(self):
        model = self._make_split_model()
        buckets = compute_bucket_assignment(list(model.parameters()), 10**9)
        assert len(buckets) == 2
        devices = {b.device for b in buckets}
        assert devices == {"gpu:0", "gpu:1"}
        for bucket in buckets:
            params = list(model.parameters())
            assert all(
                params[i].device == bucket.device for i in bucket.param_indices
            )

    def test_ddp_trains_multi_device_model_on_nccl(self):
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((8, 6)), rng.integers(0, 4, 8)

        def body(rank):
            model = self._make_split_model()
            ddp = DistributedDataParallel(model)
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(3):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            return ddp.state_dict(), [b.spec.device for b in ddp.reducer.buckets]

        # NCCL backend rejects CPU tensors; the split model is all-GPU,
        # so this exercises the real device-restricted path.
        results = run_world(2, body, backend="nccl")
        assert np.allclose
        state0, devices0 = results[0]
        state1, devices1 = results[1]
        assert set(devices0) == {"gpu:0", "gpu:1"}
        for name in state0:
            assert np.allclose(state0[name], state1[name])

    def test_multi_device_equivalent_to_local(self):
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((8, 6)), rng.integers(0, 4, 8)
        loss_fn = nn.CrossEntropyLoss()

        reference = self._make_split_model()
        opt = SGD(reference.parameters(), lr=0.05)
        for _ in range(3):
            opt.zero_grad()
            loss_fn(reference(Tensor(X)), Y).backward()
            opt.step()
        expected = reference.state_dict()

        def body(rank):
            model = self._make_split_model()
            ddp = DistributedDataParallel(model)
            opt = SGD(ddp.parameters(), lr=0.05)
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(3):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            return ddp.state_dict()

        for state in run_world(2, body, backend="nccl"):
            for name in expected:
                assert np.allclose(state[name], expected[name], atol=1e-9)


class TestReducerStats:
    def test_last_iteration_populated(self):
        rng = np.random.default_rng(2)
        X, Y = rng.standard_normal((4, 6)), rng.integers(0, 4, 4)

        def body(rank):
            from conftest import small_classifier

            model = small_classifier()
            ddp = DistributedDataParallel(model)
            nn.CrossEntropyLoss()(ddp(Tensor(X)), Y).backward()
            return ddp.ddp_stats()["profile"]

        stats = run_world(2, body, backend="gloo")[0]
        phases = stats["attribution_ms"]
        assert set(phases) == {
            "prepare_ms", "backward_ms", "exposed_comm_ms", "finalize_other_ms",
        }
        assert stats["total_ms"] > 0
        assert phases["exposed_comm_ms"] + phases["finalize_other_ms"] >= 0
        assert sum(phases.values()) == pytest.approx(stats["total_ms"], abs=1e-9)
