"""Extended property-based coverage: DDP equivalence over random
architectures, compression error bounds, ZeRO partitions, simulator
invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.autograd import Tensor
from repro.simulation import SimulationConfig, TrainingSimulator
from repro.simulation.models import resnet50_profile
from repro.utils import manual_seed


class TestDdpEquivalenceProperty:
    @settings(max_examples=5, deadline=None)
    @given(
        hidden=st.lists(st.integers(2, 12), min_size=1, max_size=3),
        world=st.sampled_from([2, 4]),
        lr=st.floats(0.001, 0.2),
        seed=st.integers(0, 1000),
    )
    def test_random_mlp_ddp_matches_local(self, hidden, world, lr, seed):
        """For arbitrary MLP shapes, worlds, and learning rates, DDP
        training equals local full-batch training."""
        from repro.comm import run_distributed
        from repro.core import DistributedDataParallel
        from repro.optim import SGD

        rng = np.random.default_rng(seed)
        batch = world * 2
        X = rng.standard_normal((batch, 5))
        Y = rng.integers(0, 3, batch)
        loss_fn = nn.CrossEntropyLoss()

        def make_model():
            manual_seed(seed)
            layers = []
            previous = 5
            for width in hidden:
                layers += [nn.Linear(previous, width), nn.Tanh()]
                previous = width
            layers.append(nn.Linear(previous, 3))
            return nn.Sequential(*layers)

        reference = make_model()
        opt = SGD(reference.parameters(), lr=lr)
        for _ in range(2):
            opt.zero_grad()
            loss_fn(reference(Tensor(X)), Y).backward()
            opt.step()
        expected = reference.state_dict()

        def body(rank):
            model = make_model()
            ddp = DistributedDataParallel(model, bucket_cap_mb=0.00005)
            opt = SGD(ddp.parameters(), lr=lr)
            per = batch // world
            shard = slice(rank * per, (rank + 1) * per)
            for _ in range(2):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            return ddp.state_dict()

        states = run_distributed(world, body, backend="gloo", timeout=20)
        for state in states:
            for name in expected:
                assert np.allclose(state[name], expected[name], atol=1e-8)


class TestCompressionErrorBounds:
    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(1e-6, 1e4), size=st.integers(1, 64), seed=st.integers(0, 999))
    def test_fp16_roundtrip_error_bounded(self, scale, size, seed):
        """fp16 wire encoding loses at most ~2^-10 relative precision."""
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(size) * scale
        roundtrip = values.astype(np.float16).astype(np.float64)
        finite = np.isfinite(roundtrip)
        assert finite.all() or scale > 1e4 / 2  # fp16 overflow only at huge scales
        err = np.abs(values[finite] - roundtrip[finite])
        # relative precision 2^-10, plus the fp16 subnormal floor for
        # magnitudes below ~6e-5
        subnormal_floor = float(np.finfo(np.float16).smallest_subnormal)
        assert np.all(err <= np.abs(values[finite]) * 2**-10 + subnormal_floor)


class TestZeroPartitionProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 100), min_size=1, max_size=20),
        world=st.integers(1, 6),
    )
    def test_partition_covers_and_balances(self, sizes, world):
        from repro.nn.module import Parameter
        from repro.sharded import ShardedOptimizer

        class _PG:
            def __init__(self, size, rank):
                self.size = size
                self.group_rank = rank

        params = [Parameter(np.zeros(s)) for s in sizes]
        optimizers = [
            ShardedOptimizer(params, lambda shard: None, _PG(world, rank))
            for rank in range(world)
        ]
        # identical on every rank
        assert all(opt.layout.spans == optimizers[0].layout.spans for opt in optimizers)
        # the spans tile every element, balanced to one element per bucket
        loads = [opt.shard_numel() for opt in optimizers]
        assert sum(loads) == sum(sizes)
        assert max(loads) - min(loads) <= len(optimizers[0].layout.buckets)


class TestSimulatorProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        world=st.sampled_from([2, 8, 16, 32, 64]),
        cap=st.sampled_from([1, 5, 25, 100]),
        backend=st.sampled_from(["nccl", "gloo"]),
        streams=st.sampled_from([1, 3]),
    )
    def test_overlap_never_hurts(self, world, cap, backend, streams):
        base = SimulationConfig(
            model=resnet50_profile(), world_size=world, backend=backend,
            bucket_cap_mb=cap, num_comm_streams=streams,
        )
        overlapped = TrainingSimulator(base).simulate_iteration(0).total
        boundary = TrainingSimulator(base.with_(overlap=False)).simulate_iteration(0).total
        assert overlapped <= boundary + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        world=st.sampled_from([2, 8, 32]),
        cap=st.sampled_from([1, 25]),
        backend=st.sampled_from(["nccl", "gloo"]),
    )
    def test_exposed_comm_never_exceeds_total(self, world, cap, backend):
        sim = TrainingSimulator(
            SimulationConfig(
                model=resnet50_profile(), world_size=world, backend=backend,
                bucket_cap_mb=cap,
            )
        )
        result = sim.simulate_iteration(0)
        assert 0 <= result.backward_comm_exposed <= result.backward_comm_total + 1e-12
