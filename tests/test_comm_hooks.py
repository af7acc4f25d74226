"""Gradient-compression communication hooks (paper §6.2.3)."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.core import DistributedDataParallel, comm_hooks
from repro.optim import SGD
from repro.utils import manual_seed

from conftest import run_world, small_classifier

RNG = np.random.default_rng(9)
X = RNG.standard_normal((8, 6))
Y = RNG.integers(0, 4, 8)

#: name → factory of a fresh hook
HOOKS = {
    "allreduce": lambda: comm_hooks.allreduce_hook,
    "fp16": comm_hooks.Fp16Hook,
    "adaptive": comm_hooks.AdaptivePrecisionHook,
}


def grads_with_hook(hook_factory, world=2, iters=1):
    def body(rank):
        model = small_classifier()
        ddp = DistributedDataParallel(model, comm_hook=hook_factory() if hook_factory else None)
        loss_fn = nn.CrossEntropyLoss()
        shard = slice(rank * 4, (rank + 1) * 4)
        for _ in range(iters):
            model.zero_grad()
            loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
        return {n: p.grad.data.copy() for n, p in model.named_parameters()}

    return run_world(world, body, backend="gloo")


class TestAllreduceHook:
    def test_identity_hook_matches_native(self):
        native = grads_with_hook(None)
        hooked = grads_with_hook(lambda: comm_hooks.allreduce_hook)
        for name in native[0]:
            assert np.allclose(native[0][name], hooked[0][name], atol=1e-12)

    def test_ranks_agree(self):
        hooked = grads_with_hook(lambda: comm_hooks.allreduce_hook)
        for name in hooked[0]:
            assert np.allclose(hooked[0][name], hooked[1][name])


class TestFp16Hook:
    def test_close_to_exact_average(self):
        native = grads_with_hook(None)
        fp16 = grads_with_hook(comm_hooks.Fp16Hook)
        for name in native[0]:
            scale = np.abs(native[0][name]).max() + 1e-12
            err = np.abs(native[0][name] - fp16[0][name]).max() / scale
            assert err < 5e-3  # float16 relative precision

    def test_ranks_agree(self):
        fp16 = grads_with_hook(comm_hooks.Fp16Hook)
        for name in fp16[0]:
            assert np.allclose(fp16[0][name], fp16[1][name])


class _FakeOneRankGroup:
    """World-1 group: allreduce is identity."""

    size = 1
    supports_cpu_tensors = True

    class _Work:
        def wait(self, timeout=None):
            pass

    def allreduce(self, tensor, op="sum", async_op=False):
        return self._Work() if async_op else None


class TestErrorFeedback:
    def test_fp16_residual_accumulates_across_iterations(self):
        hook = comm_hooks.Fp16Hook(use_error_feedback=True)
        # A value float16 cannot represent exactly: the rounding error
        # must land in the residual, and the *same* buffer's second
        # iteration must start from it.
        bucket = Tensor(np.array([1.0 + 1e-4, -2.0 - 1e-4]))
        original = bucket.data.copy()
        hook(_FakeOneRankGroup(), bucket, 1).wait()
        residuals = list(hook._residuals._store.values())
        assert len(residuals) == 1
        first_residual = residuals[0].copy()
        assert np.abs(first_residual).sum() > 0
        # residual + transmitted == what this rank wanted to send
        assert np.allclose(first_residual + bucket.data, original, atol=1e-12)
        # Second iteration on the same buffer: the correction shifts the
        # wire value, so two lossy steps do not lose the error twice.
        bucket.data[...] = original
        hook(_FakeOneRankGroup(), bucket, 1).wait()
        assert np.allclose(
            bucket.data,
            np.asarray(original + first_residual, dtype=np.float16).astype(
                np.float64
            ),
        )

    def test_fp16_error_feedback_reduces_drift(self):
        """Averaged over many iterations of a constant gradient, the EF
        variant's cumulative estimate converges to the truth while the
        plain variant keeps a constant bias."""
        constant = np.array([0.30000077, -0.7000013, 0.123456789])
        plain = comm_hooks.Fp16Hook(use_error_feedback=False)
        with_ef = comm_hooks.Fp16Hook(use_error_feedback=True)
        sums = {"plain": np.zeros(3), "ef": np.zeros(3)}
        plain_bucket = Tensor(constant.copy())
        ef_bucket = Tensor(constant.copy())
        iters = 64
        for _ in range(iters):
            plain_bucket.data[...] = constant
            plain(_FakeOneRankGroup(), plain_bucket, 1).wait()
            sums["plain"] += plain_bucket.data
            ef_bucket.data[...] = constant
            with_ef(_FakeOneRankGroup(), ef_bucket, 1).wait()
            sums["ef"] += ef_bucket.data
        err_plain = np.abs(sums["plain"] / iters - constant).max()
        err_ef = np.abs(sums["ef"] / iters - constant).max()
        assert err_ef < err_plain / 4

    def test_residual_store_survives_id_reuse_with_shape_check(self):
        store = comm_hooks._ResidualStore()
        a = np.zeros(4)
        ra = store.get(a)
        ra[...] = 1.0
        # Same id, different shape (a recycled buffer id) => fresh.
        store._store[id(a)] = np.ones(7)
        again = store.get(a)
        assert again.shape == a.shape
        assert np.all(again == 0.0)


class TestAllreduceHookBitExact:
    def test_bit_exact_vs_native_over_iterations(self):
        """allreduce_hook must be *bit-identical* to the native reducer
        path — same collective, same divide — across several iterations."""
        native = grads_with_hook(None, iters=3)
        hooked = grads_with_hook(lambda: comm_hooks.allreduce_hook, iters=3)
        for name in native[0]:
            assert np.array_equal(native[0][name], hooked[0][name])


class TestHookBucketViewAliasing:
    """Stateful hooks must behave identically whether gradients are
    zero-copy views into the bucket buffers or private copies."""

    @pytest.mark.parametrize(
        "factory", [lambda: comm_hooks.Fp16Hook(use_error_feedback=True)], ids=["fp16_ef"]
    )
    def test_view_and_copy_modes_agree(self, factory):
        def train(as_view):
            def body(rank):
                manual_seed(7)
                model = small_classifier()
                ddp = DistributedDataParallel(
                    model,
                    comm_hook=factory(),
                    gradient_as_bucket_view=as_view,
                )
                opt = SGD(ddp.parameters(), lr=0.05)
                loss_fn = nn.CrossEntropyLoss()
                shard = slice(rank * 4, (rank + 1) * 4)
                for _ in range(5):
                    opt.zero_grad()
                    loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                    opt.step()
                stats = ddp.ddp_stats()
                return (
                    {n: p.grad.data.copy() for n, p in model.named_parameters()},
                    stats["zero_copy_hits"],
                )

            return run_world(2, body, backend="gloo", timeout=30)

        view_runs = train(True)
        copy_runs = train(False)
        # The zero-copy path was actually exercised in view mode only.
        assert view_runs[0][1] > 0
        assert copy_runs[0][1] == 0
        for name in view_runs[0][0]:
            assert np.allclose(
                view_runs[0][0][name], copy_runs[0][0][name], atol=1e-12
            )
            # and both ranks agree within each mode
            assert np.allclose(view_runs[0][0][name], view_runs[1][0][name])


class TestCompressionRatios:
    def test_ratios(self):
        """Each hook prices what it sends: payload plus side AllReduces."""
        n = 1 << 20
        f64, f32 = np.float64, np.float32
        assert comm_hooks.Fp16Hook().wire_ratio(f64, n) == 0.25
        assert comm_hooks.Fp16Hook(use_error_feedback=True).wire_ratio(f32, n) == 0.5
        assert comm_hooks.hook_wire_ratio(comm_hooks.allreduce_hook, f64, n) == 1.0
        assert comm_hooks.hook_wire_ratio(None, f64, n) == 1.0

    @pytest.mark.parametrize("name", sorted(HOOKS))
    def test_wire_ratio_is_what_the_hub_counts(self, name):
        """At world 2 each rank sends one copy of every payload, so the
        bytes the hub counts for one iteration are ``wire_ratio`` times
        the gradient bytes (adaptive's ratio is its widest level's)."""

        def body(rank):
            model = small_classifier()
            hook = HOOKS[name]()
            ddp = DistributedDataParallel(model, comm_hook=hook)
            hub = ddp.process_group.hub
            before = hub.bytes_sent[rank]
            nn.CrossEntropyLoss()(ddp(Tensor(X[:4])), Y[:4]).backward()
            expected = sum(
                comm_hooks.hook_wire_ratio(hook, b.flat.dtype, b.flat.size) * b.flat.nbytes
                for b in ddp.reducer.buckets
            )
            return hub.bytes_sent[rank] - before, expected

        for sent, expected in run_world(2, body, backend="gloo"):
            if name == "adaptive":
                assert 0 < sent <= expected
            else:
                assert sent == pytest.approx(expected, rel=1e-12)


class TestHookedBucketTelemetry:
    def test_hooked_buckets_report_their_collectives(self):
        """The hook's handle exposes its collective's record, so every
        hooked bucket has a latency and the iteration a comm total."""

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(
                model, bucket_cap_mb=0.0001, comm_hook=comm_hooks.Fp16Hook()
            )
            nn.CrossEntropyLoss()(ddp(Tensor(X[:4])), Y[:4]).backward()
            stats = ddp.ddp_stats()
            return stats["per_bucket_allreduce_latency_s"], stats["comm_total_s"]

        for latencies, comm_total in run_world(2, body, backend="gloo"):
            assert len(latencies) > 1
            assert all(latency > 0 for latency in latencies)
            assert comm_total > 0
