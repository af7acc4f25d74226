"""ZeRO-1/2/3 sharded data parallelism (``repro.sharded``).

The defining property of every stage is *parity*: sharding is a memory
layout, not an algorithm change, so each stage must track plain DDP
bit-for-bit-close on the same seeds — on an MLP and on the transformer
model (paper §7 positions ZeRO as "data parallelism with minimum model
replication").  On top of parity, the stages have observable structural
properties (ZeRO-2 drops full gradients, ZeRO-3 keeps parameters as
near-zero-byte stubs between materializations), checkpoints round-trip
through both the sharded and the plain loaders, and a crash injected
mid-``all_gather_flat`` either fails with a named culprit or is
survived by the elastic supervisor.
"""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.core import DistributedDataParallel
from repro.models import TinyTransformer
from repro.optim import SGD, Adam
from repro.resilience import ElasticConfig, FaultPlan, crash_rank, run_elastic
from repro.telemetry.recorder import IterationProfile
from repro.sharded import (
    FullyShardedDataParallel,
    ShardedDataParallel,
    ShardedOptimizer,
    measure_ddp_bytes,
    storage_bytes,
)
from repro.utils import manual_seed
from repro.utils import load_training_checkpoint

from conftest import run_world, small_classifier

_rng = np.random.default_rng(0)
X = _rng.standard_normal((24, 6))
Y = _rng.integers(0, 4, 24)
TOKENS = _rng.integers(0, 32, (32, 8))
LABELS = _rng.integers(0, 2, 32)

SMALL_BUCKETS = {"bucket_cap_mb": 0.0001}  # force several buckets


def _mlp_shard(rank, world):
    per = len(X) // world
    return slice(rank * per, (rank + 1) * per)


def _make_transformer():
    manual_seed(5)
    return TinyTransformer(
        vocab_size=32, max_seq_len=8, hidden=16, num_heads=2,
        num_layers=1, ffn_dim=32, num_classes=2,
    )


def _train_mlp(model_wrap, rank, world, iters=5):
    """Shared training loop: ``model_wrap`` builds (callable, step, zero_grad,
    state_fn) from the fresh seeded classifier."""
    model = small_classifier()
    forward, do_step, do_zero, state_fn = model_wrap(model)
    loss_fn = nn.CrossEntropyLoss()
    shard = _mlp_shard(rank, world)
    losses = []
    for _ in range(iters):
        do_zero()
        loss = loss_fn(forward(Tensor(X[shard])), Y[shard])
        loss.backward()
        do_step()
        losses.append(float(loss.data))
    return losses, {k: np.asarray(v).copy() for k, v in state_fn().items()}


def _ddp_wrap(lr=0.05, momentum=0.9):
    def wrap(model):
        ddp = DistributedDataParallel(model, **SMALL_BUCKETS)
        opt = SGD(ddp.parameters(), lr=lr, momentum=momentum)
        return ddp, opt.step, opt.zero_grad, model.state_dict
    return wrap


def _zero1_wrap(lr=0.05, momentum=0.9):
    def wrap(model):
        ddp = DistributedDataParallel(model, **SMALL_BUCKETS)
        opt = ShardedOptimizer(
            list(ddp.parameters()), lambda ps: SGD(ps, lr=lr, momentum=momentum)
        )

        def step():
            opt.set_grads_from_params()
            opt.step()

        return ddp, step, opt.zero_grad, model.state_dict
    return wrap


def _zero2_wrap(lr=0.05, momentum=0.9):
    def wrap(model):
        sdp = ShardedDataParallel(
            model, lambda ps: SGD(ps, lr=lr, momentum=momentum), **SMALL_BUCKETS
        )
        return sdp, sdp.step, sdp.zero_grad, sdp.state_dict
    return wrap


def _zero3_wrap(lr=0.05, momentum=0.9):
    def wrap(model):
        fsdp = FullyShardedDataParallel(
            model, lambda ps: SGD(ps, lr=lr, momentum=momentum)
        )
        return fsdp, fsdp.step, fsdp.zero_grad, fsdp.state_dict
    return wrap


STAGE_WRAPS = {
    "zero1": _zero1_wrap,
    "zero2": _zero2_wrap,
    "zero3": _zero3_wrap,
}


#: Each wrapper: its own report keys beside ``Reducer.stats()``, and its factory.
WRAPPERS = {
    "ddp": ({"backend", "bucket_cap_mb"}, _ddp_wrap),
    "zero2": ({"sharded"}, _zero2_wrap),
    "zero3": ({"sharded", "units"}, _zero3_wrap),
}


def _nested_keys(value):
    """Every key of a report, at any depth (through lists too)."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield key
            yield from _nested_keys(inner)
    elif isinstance(value, list):
        for inner in value:
            yield from _nested_keys(inner)


class TestOneReportShape:
    """Every wrapper's ``ddp_stats()`` is ``Reducer.stats()`` plus the
    wrapper's own facts, and states each number once."""

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_report_is_reducer_stats_plus_own_facts(self, wrapper):
        own, make_wrap = WRAPPERS[wrapper]

        def body(rank):
            wrapped, step, zero_grad, _ = make_wrap()(small_classifier())
            loss_fn = nn.CrossEntropyLoss()
            for _ in range(2):
                zero_grad()
                loss_fn(wrapped(Tensor(X[:4])), Y[:4]).backward()
                step()
            return wrapped.ddp_stats(), wrapped.reducer.stats()

        for report, reducer in run_world(2, body, backend="gloo"):
            assert reducer["iterations_synced"] == 2
            assert set(report) == set(reducer) | own
            assert {key: report[key] for key in reducer} == reducer
            assert not {"debug", "health", "checkpoint", "last_iteration"} & set(report)
            overlap = [k for k in _nested_keys(report) if k.endswith("overlap_ratio")]
            assert overlap == ["comm_compute_overlap_ratio"]


class TestMLPParity:
    """Each stage reproduces DDP's loss curve and final parameters."""

    @pytest.mark.parametrize("world", [2, 4])
    @pytest.mark.parametrize("stage", ["zero1", "zero2", "zero3"])
    def test_stage_matches_ddp(self, stage, world):
        baseline = run_world(
            world, lambda rank: _train_mlp(_ddp_wrap(), rank, world),
            backend="gloo",
        )
        sharded = run_world(
            world, lambda rank: _train_mlp(STAGE_WRAPS[stage](), rank, world),
            backend="gloo",
        )
        for (ddp_losses, ddp_state), (losses, state) in zip(baseline, sharded):
            np.testing.assert_allclose(losses, ddp_losses, rtol=1e-9, atol=1e-10)
            assert state.keys() == ddp_state.keys()
            for name in ddp_state:
                np.testing.assert_allclose(
                    state[name], ddp_state[name], rtol=1e-8, atol=1e-10
                )

    def test_replicas_agree_after_every_stage(self):
        """All ranks end with identical parameters (the gather worked)."""
        for stage in ["zero1", "zero2", "zero3"]:
            results = run_world(
                2, lambda rank: _train_mlp(STAGE_WRAPS[stage](), rank, 2),
                backend="gloo",
            )
            for name, value in results[0][1].items():
                np.testing.assert_array_equal(value, results[1][1][name])


class TestTransformerParity:
    """Same-seed Adam training of the transformer: stages track DDP."""

    def _train(self, wrapped, rank, iters=5):
        loss_fn = nn.CrossEntropyLoss()
        forward, do_step, do_zero, state_fn = wrapped
        shard = slice(rank * 16, (rank + 1) * 16)
        x, y = TOKENS[shard], LABELS[shard]
        losses = []
        for _ in range(iters):
            do_zero()
            loss = loss_fn(forward(x), y)
            loss.backward()
            do_step()
            losses.append(float(loss.data))
        return losses, {k: np.asarray(v).copy() for k, v in state_fn().items()}

    def _ddp_body(self, rank):
        model = _make_transformer()
        ddp = DistributedDataParallel(model, bucket_cap_mb=0.0005)
        opt = Adam(ddp.parameters(), lr=1e-2)
        return self._train(
            (ddp, opt.step, opt.zero_grad, model.state_dict), rank
        )

    @pytest.mark.parametrize("stage", ["zero1", "zero2", "zero3"])
    def test_stage_matches_ddp(self, stage):
        def sharded_body(rank):
            model = _make_transformer()
            if stage == "zero1":
                ddp = DistributedDataParallel(model, bucket_cap_mb=0.0005)
                opt = ShardedOptimizer(
                    list(ddp.parameters()), lambda ps: Adam(ps, lr=1e-2)
                )

                def step():
                    opt.set_grads_from_params()
                    opt.step()

                wrapped = (ddp, step, opt.zero_grad, model.state_dict)
            elif stage == "zero2":
                sdp = ShardedDataParallel(
                    model, lambda ps: Adam(ps, lr=1e-2), bucket_cap_mb=0.0005
                )
                wrapped = (sdp, sdp.step, sdp.zero_grad, sdp.state_dict)
            else:
                fsdp = FullyShardedDataParallel(model, lambda ps: Adam(ps, lr=1e-2))
                wrapped = (fsdp, fsdp.step, fsdp.zero_grad, fsdp.state_dict)
            return self._train(wrapped, rank)

        baseline = run_world(2, self._ddp_body, backend="gloo", timeout=60)
        sharded = run_world(2, sharded_body, backend="gloo", timeout=60)
        for (ddp_losses, ddp_state), (losses, state) in zip(baseline, sharded):
            assert losses[-1] < losses[0]  # actually training
            np.testing.assert_allclose(losses, ddp_losses, rtol=1e-7, atol=1e-9)
            for name in ddp_state:
                np.testing.assert_allclose(
                    state[name], ddp_state[name], rtol=1e-6, atol=1e-9
                )


class _SkipsParameters(nn.Module):
    """``unused`` never runs (globally unused); ``rank0_only`` runs on
    rank 0 alone (unused on rank 1)."""

    def __init__(self, rank):
        super().__init__()
        self.first = nn.Linear(6, 8)
        self.unused = nn.Linear(8, 8)
        self.rank0_only = nn.Linear(8, 8)
        self.last = nn.Linear(8, 4)
        self.rank = rank

    def forward(self, x):
        x = self.first(x).relu()
        if self.rank == 0:
            x = self.rank0_only(x)
        return self.last(x)


class TestUnusedParameters:
    """``find_unused_parameters=True`` through the one reducer: ZeRO-2
    and ZeRO-3 train a model that skips parameters, bitwise equal to
    ZeRO-1 (DDP + ``ShardedOptimizer``, whose ``set_grads_from_params``
    gives an absent gradient the zeros a reduce-scattered unused slot
    carries)."""

    def _train(self, stage, rank, iters=4):
        manual_seed(7)
        model = _SkipsParameters(rank)

        def factory(params):
            return Adam(params, lr=1e-2)

        if stage == "zero1":
            wrapper = DistributedDataParallel(model, find_unused_parameters=True)
            opt = ShardedOptimizer(list(wrapper.parameters()), factory)
            zero_grad = opt.zero_grad

            def step():
                opt.set_grads_from_params()
                opt.step()
        else:
            if stage == "zero2":  # one bucket per parameter
                wrapper = ShardedDataParallel(
                    model, factory, find_unused_parameters=True, **SMALL_BUCKETS
                )
            else:  # one unit per layer
                wrapper = FullyShardedDataParallel(
                    model, factory, find_unused_parameters=True
                )
            step, zero_grad = wrapper.step, wrapper.zero_grad
        loss_fn = nn.CrossEntropyLoss()
        shard = _mlp_shard(rank, 2)
        for _ in range(iters):
            zero_grad()
            loss_fn(wrapper(Tensor(X[shard])), Y[shard]).backward()
            step()
        state = {k: np.array(v) for k, v in wrapper.state_dict().items()}  # ZeRO-3 gathers
        return state, wrapper.ddp_stats()["unused_parameter_count"]

    @pytest.mark.parametrize("stage", ["zero2", "zero3"])
    def test_trains_bitwise_equal_to_zero1(self, stage):
        reference = run_world(2, lambda rank: self._train("zero1", rank), backend="gloo")
        sharded = run_world(2, lambda rank: self._train(stage, rank), backend="gloo")
        manual_seed(7)
        initial = {k: np.array(v) for k, v in _SkipsParameters(0).state_dict().items()}
        for rank, ((expected, _), (state, unused)) in enumerate(zip(reference, sharded)):
            assert unused == (2 if rank == 0 else 4)
            assert state.keys() == expected.keys()
            for name, value in expected.items():
                assert np.array_equal(state[name], value), (stage, rank, name)
            # Globally unused: no gradient anywhere, so Adam never moved it.
            assert np.array_equal(state["unused.weight"], initial["unused.weight"])
            assert not np.array_equal(state["rank0_only.weight"], initial["rank0_only.weight"])


class TestZero2Properties:
    def test_full_gradients_are_dropped_after_step(self):
        """ZeRO-2's defining property: no rank keeps the full gradient
        set — ``param.grad`` is freed once the shard grads are in."""

        def body(rank):
            model = small_classifier()
            sdp = ShardedDataParallel(
                model, lambda ps: SGD(ps, lr=0.05), **SMALL_BUCKETS
            )
            loss_fn = nn.CrossEntropyLoss()
            loss = loss_fn(sdp(Tensor(X[:4])), Y[:4])
            loss.backward()
            had_grads = all(p.grad is not None for p in model.parameters())
            sdp.step()
            return had_grads, [p.grad for p in model.parameters()]

        for had_grads, grads in run_world(2, body, backend="gloo"):
            assert had_grads
            assert all(g is None for g in grads)

    def test_stats_surface_in_ddp_stats(self):
        def body(rank):
            model = small_classifier()
            sdp = ShardedDataParallel(
                model, lambda ps: SGD(ps, lr=0.05), **SMALL_BUCKETS
            )
            loss_fn = nn.CrossEntropyLoss()
            for _ in range(3):
                sdp.zero_grad()
                loss_fn(sdp(Tensor(X[:4])), Y[:4]).backward()
                sdp.step()
            return sdp.ddp_stats()["sharded"], sdp.optimizer.layout.num_buckets

        for stats, num_buckets in run_world(2, body, backend="gloo"):
            assert stats["stage"] == "zero2"
            assert stats["world_size"] == 2
            assert stats["iterations"] == 3
            assert stats["reduce_scatter_count"] == 3 * num_buckets
            assert stats["reduce_scatter_bytes"] > 0
            assert stats["peak_bytes_per_rank"] > 0

    def test_step_before_backward_names_unready_params(self):
        def body(rank):
            model = small_classifier()
            sdp = ShardedDataParallel(model, lambda ps: SGD(ps, lr=0.05))
            sdp(Tensor(X[:4]))  # forward only, no backward
            try:
                sdp.step()
            except RuntimeError as exc:
                return str(exc)
            return None

        for message in run_world(2, body, backend="gloo"):
            assert message is not None
            assert "0.weight" in message  # names the culprit parameters


class TestZero3Properties:
    def test_parameters_are_stubs_between_iterations(self):
        """Outside a materialization window each parameter is a
        zero-stride broadcast stub: full storage is ~one element."""

        def body(rank):
            model = small_classifier()
            fsdp = FullyShardedDataParallel(model, lambda ps: SGD(ps, lr=0.05))
            idle = storage_bytes(p.data for p in model.parameters())
            loss_fn = nn.CrossEntropyLoss()
            loss = loss_fn(fsdp(Tensor(X[:4])), Y[:4])
            during = storage_bytes(p.data for p in model.parameters())
            loss.backward()
            fsdp.step()
            after = storage_bytes(p.data for p in model.parameters())
            full = sum(p.data.size * p.data.itemsize for p in model.parameters())
            return idle, during, after, full

        for idle, during, after, full in run_world(2, body, backend="gloo"):
            num_params = 4
            assert idle <= 8 * num_params          # stubs only
            assert during == full                   # materialized for forward
            assert after <= 8 * num_params          # freed again after step
            assert full >= 40 * idle                # the saving is real

    def test_gather_and_free_counters(self):
        def body(rank):
            model = small_classifier()
            fsdp = FullyShardedDataParallel(model, lambda ps: SGD(ps, lr=0.05))
            loss_fn = nn.CrossEntropyLoss()
            for _ in range(2):
                fsdp.zero_grad()
                loss_fn(fsdp(Tensor(X[:4])), Y[:4]).backward()
                fsdp.step()
            return fsdp.ddp_stats()["sharded"], fsdp.num_units

        for stats, units in run_world(2, body, backend="gloo"):
            assert stats["stage"] == "zero3"
            # One gather per unit per forward; one free per unit per
            # backward (the constructor's initial free is not counted).
            assert stats["gather_count"] == 2 * units
            assert stats["free_count"] == 2 * units
            assert stats["all_gather_bytes"] > 0
            assert stats["peak_bytes_per_rank"] > 0

    def test_profile_has_one_bucket_per_unit_reduce_scatter(self):
        """The reducer's record and report, as for DDP."""

        def body(rank):
            fsdp = FullyShardedDataParallel(small_classifier(), lambda ps: SGD(ps, lr=0.05))
            assert fsdp.ddp_stats()["profile"] is None  # before the first iteration
            loss_fn = nn.CrossEntropyLoss()
            for _ in range(2):
                fsdp.zero_grad()
                loss_fn(fsdp(Tensor(X[:4])), Y[:4]).backward()
                fsdp.step()
            return fsdp.ddp_stats(), fsdp.reducer.recorder.last, fsdp.num_units

        for stats, profile, units in run_world(2, body, backend="gloo"):
            assert isinstance(profile, IterationProfile)
            assert sorted(b.bucket for b in profile.buckets) == list(range(units))
            assert [b.bytes for b in sorted(profile.buckets, key=lambda b: b.bucket)] == (
                stats["bucket_sizes_bytes"])
            assert stats["profile"] == profile.summary(top=3)
            assert stats["iterations_synced"] == 2
            assert stats["num_buckets"] == units
            assert 0.0 <= stats["comm_compute_overlap_ratio"] <= 1.0

    def test_peak_memory_beats_ddp_at_world_4(self):
        """The acceptance crossover: measured per-rank peak bytes of
        ZeRO-3 (params + grads + shards + optimizer state) undercut an
        identical DDP replica's at world 4."""
        world = 4

        def ddp_body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model, **SMALL_BUCKETS)
            opt = SGD(ddp.parameters(), lr=0.05, momentum=0.9)
            loss_fn = nn.CrossEntropyLoss()
            for _ in range(2):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[:4])), Y[:4]).backward()
                opt.step()
            return measure_ddp_bytes(ddp, opt)

        def fsdp_body(rank):
            model = small_classifier()
            fsdp = FullyShardedDataParallel(
                model, lambda ps: SGD(ps, lr=0.05, momentum=0.9)
            )
            loss_fn = nn.CrossEntropyLoss()
            for _ in range(2):
                fsdp.zero_grad()
                loss_fn(fsdp(Tensor(X[:4])), Y[:4]).backward()
                fsdp.step()
            return fsdp.ddp_stats()["sharded"]["peak_bytes_per_rank"]

        ddp_bytes = run_world(world, ddp_body, backend="gloo")
        fsdp_peaks = run_world(world, fsdp_body, backend="gloo")
        for peak, ddp in zip(fsdp_peaks, ddp_bytes):
            assert peak < ddp

    def test_ddp_meter_counts_bucket_flats_in_copy_mode(self):
        """With ``gradient_as_bucket_view=False`` the reducer's flats are
        storage of their own: no ``param.grad`` aliases them, so the
        meter must add them itself."""

        def body(rank):
            sizes = []
            for as_view in (True, False):
                model = small_classifier()
                ddp = DistributedDataParallel(
                    model, gradient_as_bucket_view=as_view, **SMALL_BUCKETS
                )
                nn.CrossEntropyLoss()(ddp(Tensor(X[:4])), Y[:4]).backward()
                flats = sum(bucket.flat.nbytes for bucket in ddp.reducer.buckets)
                sizes.append((measure_ddp_bytes(ddp), flats))
            return sizes

        for (view_bytes, flats), (copy_bytes, _) in run_world(2, body, backend="gloo"):
            grads = sum(p.numel() * 8 for p in small_classifier().parameters())
            assert flats == grads  # params + grads-in-flats, then + grads again
            assert view_bytes == 2 * grads
            assert copy_bytes == 3 * grads

    def test_summon_full_params_round_trip(self):
        def body(rank):
            model = small_classifier()
            fsdp = FullyShardedDataParallel(model, lambda ps: SGD(ps, lr=0.05))
            with fsdp.summon_full_params():
                inside = {
                    k: np.asarray(v).copy() for k, v in model.state_dict().items()
                }
            stubby = storage_bytes(p.data for p in model.parameters())
            return inside, stubby

        results = run_world(2, body, backend="gloo")
        manual_seed(7)
        reference = nn.Sequential(
            nn.Linear(6, 16), nn.ReLU(), nn.Linear(16, 4)
        ).state_dict()
        for inside, stubby in results:
            assert stubby <= 8 * 4  # freed again on exit
            for name, value in reference.items():
                np.testing.assert_array_equal(inside[name], value)


class TestShardedCheckpoint:
    def test_zero2_resume_matches_uninterrupted(self, tmp_path):
        path = str(tmp_path / "z2.npz")

        def uninterrupted(rank):
            _, state = _train_mlp(_zero2_wrap(), rank, 2, iters=4)
            return state

        def resumed(rank):
            model = small_classifier()
            sdp = ShardedDataParallel(
                model, lambda ps: SGD(ps, lr=0.05, momentum=0.9), **SMALL_BUCKETS
            )
            loss_fn = nn.CrossEntropyLoss()
            shard = _mlp_shard(rank, 2)
            for _ in range(2):
                sdp.zero_grad()
                loss_fn(sdp(Tensor(X[shard])), Y[shard]).backward()
                sdp.step()
            sdp.save_training_state(path, iteration=2, extra={"note": 1})
            # A *fresh* replica restores and continues the trajectory.
            fresh = small_classifier(seed=99)  # deliberately different init
            sdp2 = ShardedDataParallel(
                fresh, lambda ps: SGD(ps, lr=0.05, momentum=0.9), **SMALL_BUCKETS
            )
            info = sdp2.load_training_state(path)
            for _ in range(info["iteration"], 4):
                sdp2.zero_grad()
                loss_fn(sdp2(Tensor(X[shard])), Y[shard]).backward()
                sdp2.step()
            return info, {
                k: np.asarray(v).copy() for k, v in sdp2.state_dict().items()
            }

        straight = run_world(2, uninterrupted, backend="gloo")
        results = run_world(2, resumed, backend="gloo")
        for (info, state), reference in zip(results, straight):
            assert info["iteration"] == 2
            assert int(info["extra"]["note"]) == 1
            for name in reference:
                np.testing.assert_allclose(
                    state[name], reference[name], rtol=1e-9, atol=1e-12
                )

    def test_sharded_checkpoint_loads_with_plain_loader(self, tmp_path):
        """The consolidated file is byte-compatible with the plain
        ``load_training_checkpoint``: a single process restores model
        and (positional) optimizer state from an FSDP-written file."""
        path = str(tmp_path / "fsdp.npz")

        def body(rank):
            model = small_classifier()
            fsdp = FullyShardedDataParallel(
                model, lambda ps: SGD(ps, lr=0.05, momentum=0.9)
            )
            loss_fn = nn.CrossEntropyLoss()
            shard = _mlp_shard(rank, 2)
            for _ in range(3):
                fsdp.zero_grad()
                loss_fn(fsdp(Tensor(X[shard])), Y[shard]).backward()
                fsdp.step()
            fsdp.save_training_state(path, iteration=3)
            return {k: np.asarray(v).copy() for k, v in fsdp.state_dict().items()}

        sharded_state = run_world(2, body, backend="gloo")[0]

        plain = small_classifier(seed=123)
        opt = SGD(plain.parameters(), lr=0.05, momentum=0.9)
        info = load_training_checkpoint(path, plain, opt)
        assert info["iteration"] == 3
        for name, value in plain.state_dict().items():
            np.testing.assert_allclose(value, sharded_state[name], atol=1e-12)
        # Momentum buffers were consolidated for every parameter.
        for param in plain.parameters():
            buf = opt.state[id(param)]["momentum_buffer"]
            assert buf.shape == param.data.shape
            assert np.any(buf != 0)

    def test_plain_loader_rejects_wrong_parameter_count(self, tmp_path):
        path = str(tmp_path / "z2.npz")

        def body(rank):
            model = small_classifier()
            sdp = ShardedDataParallel(model, lambda ps: SGD(ps, lr=0.05, momentum=0.9))
            loss_fn = nn.CrossEntropyLoss()
            sdp.zero_grad()
            loss_fn(sdp(Tensor(X[:4])), Y[:4]).backward()
            sdp.step()
            sdp.save_training_state(path)
            return True

        assert all(run_world(2, body, backend="gloo"))
        other = small_classifier(seed=11)
        # Same architecture, but the optimizer only covers half the
        # parameters: positional restore must refuse, not misalign.
        opt = SGD(list(other.parameters())[:2], lr=0.05, momentum=0.9)
        with pytest.raises(ValueError, match="differing parameter lists"):
            load_training_checkpoint(path, other, opt)


class TestOptimizerStateRoundTrip:
    """Satellite: positional optimizer state fails loudly, not silently."""

    def _trained_sgd(self):
        model = small_classifier()
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        loss = nn.CrossEntropyLoss()(model(Tensor(X[:4])), Y[:4])
        loss.backward()
        opt.step()
        return model, opt

    def test_round_trip_restores_momentum(self):
        _, opt = self._trained_sgd()
        saved = opt.state_dict()
        target_model = small_classifier()
        target = SGD(target_model.parameters(), lr=0.05, momentum=0.9)
        target.load_state_dict(saved)
        for p_src, p_dst in zip(opt._ordered_params(), target._ordered_params()):
            np.testing.assert_array_equal(
                opt.state[id(p_src)]["momentum_buffer"],
                target.state[id(p_dst)]["momentum_buffer"],
            )

    def test_differing_param_count_raises(self):
        _, opt = self._trained_sgd()
        saved = opt.state_dict()
        assert saved["num_params"] == 4
        smaller = SGD(nn.Linear(6, 4).parameters(), lr=0.05)
        with pytest.raises(ValueError, match="differing parameter lists"):
            smaller.load_state_dict(saved)

    def test_shape_mismatch_raises(self):
        _, opt = self._trained_sgd()
        saved = opt.state_dict()
        manual_seed(3)
        other = nn.Sequential(nn.Linear(6, 8), nn.ReLU(), nn.Linear(8, 4))
        target = SGD(other.parameters(), lr=0.05, momentum=0.9)
        with pytest.raises(ValueError, match="does not match"):
            target.load_state_dict(saved)


class TestChaosMidAllGather:
    """Satellite: a rank dying mid-``all_gather_flat`` must either fail
    with a named culprit or be survived by the elastic supervisor."""

    def test_crash_names_the_culprit(self):
        plan = FaultPlan([
            crash_rank(1, scope="collective", op="all_gather_flat",
                       after=2, times=1),
        ])

        def body(rank):
            model = small_classifier()
            fsdp = FullyShardedDataParallel(model, lambda ps: SGD(ps, lr=0.05))
            loss_fn = nn.CrossEntropyLoss()
            for _ in range(3):
                fsdp.zero_grad()
                loss_fn(fsdp(Tensor(X[:4])), Y[:4]).backward()
                fsdp.step()
            return True

        from repro.comm import run_distributed

        with pytest.raises(RuntimeError, match="rank 1") as excinfo:
            run_distributed(2, body, backend="gloo", timeout=3, fault_plan=plan)
        assert "all_gather_flat" in str(excinfo.value.__cause__)

    def test_elastic_shrink_survives_the_crash(self, tmp_path):
        # Two unit gathers per iteration and none at a save (each rank
        # checkpoints its own shard): the 5th is iteration 2's first.
        plan = FaultPlan([
            crash_rank(2, scope="collective", op="all_gather_flat",
                       after=4, times=1),
        ])

        def setup(ctx):
            return small_classifier(), None

        loss_fn = nn.CrossEntropyLoss()

        def step(ctx, model, optimizer, iteration):
            per = len(X) // ctx.world_size
            shard = slice(ctx.rank * per, (ctx.rank + 1) * per)
            model.zero_grad()
            loss = loss_fn(model(Tensor(X[shard])), Y[shard])
            loss.backward()
            model.step()
            return float(loss.data)

        config = ElasticConfig(
            policy="shrink",
            checkpoint_dir=str(tmp_path),
            checkpoint_every=1,
            timeout=8.0,
            wrapper=lambda module, group: FullyShardedDataParallel(
                module, lambda ps: SGD(ps, lr=0.05), process_group=group
            ),
        )
        res = run_elastic(3, setup, step, total_iterations=4,
                          config=config, fault_plan=plan)
        assert res.completed
        assert res.deaths == [2]
        assert res.final_world_size == 2
        assert res.iterations == 4
        assert len(res.generations) == 2
        assert res.losses[-1] < res.losses[0]
