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


class TestQuantize8Hook:
    def test_bounded_error(self):
        native = grads_with_hook(None)
        q8 = grads_with_hook(comm_hooks.Quantize8Hook)
        # The quantization grid is shared per *bucket*, so compare
        # against the global gradient scale.
        global_scale = max(np.abs(g).max() for g in native[0].values())
        for name in native[0]:
            err = np.abs(native[0][name] - q8[0][name]).max()
            assert err < global_scale * 1.5 / 127  # about one level


class TestOneBitHook:
    def test_signs_survive_when_ranks_agree(self):
        """With identical batches on both ranks, per-rank signs agree
        and the compressed gradient keeps every direction exactly."""

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model, comm_hook=comm_hooks.OneBitSGDHook())
            nn.CrossEntropyLoss()(ddp(Tensor(X[:4])), Y[:4]).backward()
            return {n: p.grad.data.copy() for n, p in model.named_parameters()}

        native = grads_with_hook(None)

        def native_body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            nn.CrossEntropyLoss()(ddp(Tensor(X[:4])), Y[:4]).backward()
            return {n: p.grad.data.copy() for n, p in model.named_parameters()}

        native = run_world(2, native_body, backend="gloo")
        compressed = run_world(2, body, backend="gloo")
        for name in native[0]:
            g = native[0][name].reshape(-1)
            c = compressed[0][name].reshape(-1)
            nonzero = np.abs(g) > 1e-12
            assert np.all(np.sign(g[nonzero]) == np.sign(c[nonzero]))

    def test_error_feedback_accumulates(self):
        hook = comm_hooks.OneBitSGDHook()

        class OneRankGroup:
            size = 1
            supports_cpu_tensors = True

            def allreduce(self, tensor, op="sum", async_op=False):
                class _W:
                    def wait(self, timeout=None):
                        pass

                return _W() if async_op else None

        bucket = Tensor(np.array([1.0, -0.1, 0.1]))
        work = hook(OneRankGroup(), bucket, 1)
        work.wait()
        # residual memory must be non-zero (compression was lossy)
        (err,) = hook._residuals._store.values()
        assert np.abs(err).sum() > 0

    def test_training_still_converges(self):
        """End-to-end: 1-bit compressed DDP training reduces loss."""

        def body(rank):
            manual_seed(7)
            model = small_classifier()
            ddp = DistributedDataParallel(model, comm_hook=comm_hooks.OneBitSGDHook())
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            losses = []
            for _ in range(80):
                opt.zero_grad()
                loss = loss_fn(ddp(Tensor(X[shard])), Y[shard])
                loss.backward()
                opt.step()
                losses.append(loss.item())
            return losses[0], losses[-1]

        for first, last in run_world(2, body, backend="gloo", timeout=60):
            assert last < first * 0.78


class _FakeOneRankGroup:
    """World-1 group: allreduce is identity, allgather stacks self."""

    size = 1
    supports_cpu_tensors = True

    class _Work:
        def __init__(self, result=None):
            self.result = result

        def wait(self, timeout=None):
            pass

    def allreduce(self, tensor, op="sum", async_op=False):
        return self._Work() if async_op else None

    def allgather(self, tensor, async_op=False):
        data = tensor.data if hasattr(tensor, "data") else tensor
        stacked = np.stack([np.asarray(data).copy()])
        if async_op:
            return self._Work(result=[stacked])
        return stacked


def run_hook(hook, values, world=1):
    """Apply ``hook`` to a fresh bucket holding ``values``; return the
    decompressed bucket contents."""
    bucket = Tensor(np.array(values, dtype=np.float64))
    hook(_FakeOneRankGroup(), bucket, world).wait()
    return bucket.data


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

    def test_topk_residual_holds_unsent_mass(self):
        hook = comm_hooks.TopKHook(density=0.25, use_error_feedback=True)
        values = np.array([10.0, 0.1, 0.2, 0.3, 9.0, 0.4, 0.5, 8.0])
        out = run_hook(hook, values)
        # k = 2 of 8: only the two largest survive on the wire.
        assert np.count_nonzero(out) == 2
        assert out[0] == 10.0 and out[4] == 9.0
        (residual,) = hook._residuals._store.values()
        # Everything unsent is preserved, selected entries zeroed.
        assert residual[0] == 0.0 and residual[4] == 0.0
        assert np.allclose(residual + out, values)

    def test_quantize8_error_feedback_reduces_drift(self):
        """Averaged over many iterations of a constant gradient, the EF
        variant's cumulative estimate converges to the truth while the
        plain variant keeps a constant bias."""
        constant = np.array([0.30000077, -0.7000013, 0.123456789])
        plain = comm_hooks.Quantize8Hook(use_error_feedback=False)
        with_ef = comm_hooks.Quantize8Hook(use_error_feedback=True)
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

    def test_reset_clears_state(self):
        hook = comm_hooks.PowerSGDHook(rank=2)
        run_hook(hook, np.arange(16.0))
        assert hook._q and hook._residuals._store
        hook.reset()
        assert not hook._q and not hook._residuals._store

    def test_residual_store_survives_id_reuse_with_shape_check(self):
        store = comm_hooks._ResidualStore()
        a = np.zeros(4)
        ra = store.get(a)
        ra[...] = 1.0
        # Same id, different shape (simulated relayout reuse) => fresh.
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


class TestPowerSGD:
    def _reconstruction_error(self, rank, matrix, iters=4):
        hook = comm_hooks.PowerSGDHook(rank=rank, use_error_feedback=False)
        flat = matrix.reshape(-1)
        bucket = Tensor(flat.copy())
        for _ in range(iters):  # warm-started Q: power iteration
            bucket.data[...] = flat
            hook(_FakeOneRankGroup(), bucket, 1).wait()
        return float(np.linalg.norm(bucket.data - flat) / np.linalg.norm(flat))

    def test_rank4_tighter_than_rank1(self):
        rng = np.random.default_rng(5)
        # Exactly rank-4 ground truth: rank-4 PowerSGD can nail it,
        # rank-1 can only capture the dominant direction.
        matrix = rng.standard_normal((36, 4)) @ rng.standard_normal((4, 36))
        err1 = self._reconstruction_error(1, matrix)
        err4 = self._reconstruction_error(4, matrix)
        assert err4 < err1
        assert err4 < 1e-6  # power iteration converges on exact low rank
        assert err1 < 1.0  # rank-1 still captures the top component

    def test_identical_seeds_identical_compression(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(64)
        out_a = run_hook(comm_hooks.PowerSGDHook(rank=2, seed=3), values)
        out_b = run_hook(comm_hooks.PowerSGDHook(rank=2, seed=3), values)
        assert np.array_equal(out_a, out_b)


class TestHookBucketViewAliasing:
    """Stateful hooks must behave identically whether gradients are
    zero-copy views into the bucket buffers or private copies."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: comm_hooks.TopKHook(density=0.1),
            lambda: comm_hooks.PowerSGDHook(rank=2),
            lambda: comm_hooks.Fp16Hook(use_error_feedback=True),
        ],
        ids=["topk", "powersgd", "fp16_ef"],
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
        assert comm_hooks.Quantize8Hook().wire_ratio(f64, n) == (4 * n + 8) / (8 * n)
        assert comm_hooks.OneBitSGDHook().wire_ratio(f64, n) == (n + 8) / (8 * n)
        # float64 indices and values: 0.2 of an fp32 bucket at density 0.05
        assert comm_hooks.TopKHook(density=0.05).wire_ratio(f32, n) == pytest.approx(0.2, rel=1e-5)
        assert comm_hooks.PowerSGDHook(rank=2).wire_ratio(f64, n) < 0.01
        assert comm_hooks.hook_wire_ratio(comm_hooks.allreduce_hook, f64, n) == 1.0
        assert comm_hooks.hook_wire_ratio(None, f64, n) == 1.0

    @pytest.mark.parametrize("name", sorted(comm_hooks.HOOK_FACTORIES))
    def test_wire_ratio_is_what_the_hub_counts(self, name):
        """At world 2 each rank sends one copy of every payload, so the
        bytes the hub counts for one iteration are ``wire_ratio`` times
        the gradient bytes (adaptive's ratio is its widest level's)."""

        def body(rank):
            model = small_classifier()
            hook = comm_hooks.make_hook(name)
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

    def test_hook_factories_produce_fresh_instances(self):
        a = comm_hooks.make_hook("topk")
        b = comm_hooks.make_hook("topk")
        assert a is not b
        assert callable(comm_hooks.make_hook("allreduce"))
        with pytest.raises(ValueError):
            comm_hooks.make_hook("bogus")

    def test_register_comm_hook_after_construction(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            ddp.register_comm_hook(comm_hooks.Fp16Hook())
            nn.CrossEntropyLoss()(ddp(Tensor(X[:4])), Y[:4]).backward()
            return all(p.grad is not None for p in model.parameters())

        assert all(run_world(2, body, backend="gloo"))


def _per_bucket_state(hook):
    """Every per-bucket store a hook fills, by name."""
    stores = {"residuals": hook._residuals._store} if hook.use_error_feedback else {}
    for name in ("_q", "chosen_levels"):
        if hasattr(hook, name):
            stores[name] = getattr(hook, name)
    return stores


class TestRelayoutResetsHook:
    """A relayout frees the buffers a hook's per-bucket state is keyed
    to; the reducer resets the hook, so no state outlives its layout."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: comm_hooks.Fp16Hook(use_error_feedback=True),
            lambda: comm_hooks.Quantize8Hook(use_error_feedback=True),
            comm_hooks.OneBitSGDHook,
            comm_hooks.AdaptivePrecisionHook,
            comm_hooks.TopKHook,
            comm_hooks.PowerSGDHook,
        ],
        ids=["fp16_ef", "quantize8_ef", "onebit", "adaptive", "topk", "powersgd"],
    )
    def test_state_is_keyed_only_to_live_buckets(self, factory):
        def body(rank):
            model = small_classifier()
            hook = factory()
            ddp = DistributedDataParallel(model, comm_hook=hook)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
            before = len(ddp.reducer.buckets)
            ddp.set_bucket_cap_mb(0.0001)  # one bucket per parameter
            loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
            live = {id(b.flat) for b in ddp.reducer.buckets}
            keys = {name: set(store) for name, store in _per_bucket_state(hook).items()}
            return before, live, keys

        for before, live, keys in run_world(2, body, backend="gloo"):
            assert len(live) > before  # the layout really changed
            for name, stored in keys.items():
                assert stored == live, name


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
