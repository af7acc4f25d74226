"""ZeRO-1's sharded optimizer and the §7 memory model."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.core import DistributedDataParallel
from repro.optim import SGD, Adam
from repro.sharded import ShardedOptimizer
from repro.simulation.memory import memory_breakdown, memory_report
from repro.simulation.models import bert_profile, resnet50_profile

from conftest import run_world, small_classifier

RNG = np.random.default_rng(51)
X = RNG.standard_normal((8, 6))
Y = RNG.integers(0, 4, 8)


def _train(rank, make_optimizer, iters=5):
    model = small_classifier()
    ddp = DistributedDataParallel(model)
    optimizer = make_optimizer(ddp)
    loss_fn = nn.CrossEntropyLoss()
    shard = slice(rank * 4, (rank + 1) * 4)
    for _ in range(iters):
        optimizer.zero_grad()
        loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
        if isinstance(optimizer, ShardedOptimizer):
            optimizer.set_grads_from_params()  # DDP averaged the full gradients
        optimizer.step()
    return ddp.state_dict(), optimizer


class TestZeroRedundancyOptimizer:
    """ZeRO-1 (the Zero Redundancy Optimizer's first stage) is DDP plus a
    :class:`ShardedOptimizer` over flat spans."""

    def test_equivalent_to_replicated_momentum_sgd(self):
        """Sharded optimizer states + owner broadcasts == replicated
        optimizers, exactly (the ZeRO stage-1 guarantee)."""

        def replicated(rank):
            state, _ = _train(rank, lambda ddp: SGD(ddp.parameters(), lr=0.05, momentum=0.9))
            return state

        def sharded(rank):
            def make(ddp):
                return ShardedOptimizer(
                    list(ddp.parameters()),
                    lambda shard: SGD(shard, lr=0.05, momentum=0.9),
                    ddp.process_group,
                )

            state, _ = _train(rank, make)
            return state

        reference = run_world(2, replicated, backend="gloo")
        zero = run_world(2, sharded, backend="gloo")
        for name in reference[0]:
            assert np.allclose(zero[0][name], reference[0][name], atol=1e-12)
            assert np.allclose(zero[1][name], reference[1][name], atol=1e-12)

    def test_equivalent_with_adam(self):
        def replicated(rank):
            state, _ = _train(rank, lambda ddp: Adam(ddp.parameters(), lr=0.01))
            return state

        def sharded(rank):
            def make(ddp):
                return ShardedOptimizer(
                    list(ddp.parameters()),
                    lambda shard: Adam(shard, lr=0.01),
                    ddp.process_group,
                )

            state, _ = _train(rank, make)
            return state

        reference = run_world(2, replicated, backend="gloo")
        zero = run_world(2, sharded, backend="gloo")
        for name in reference[0]:
            assert np.allclose(zero[0][name], reference[0][name], atol=1e-12)

    def test_state_is_actually_sharded(self):
        def body(rank):
            def make(ddp):
                return ShardedOptimizer(
                    list(ddp.parameters()),
                    lambda shard: SGD(shard, lr=0.05, momentum=0.9),
                    ddp.process_group,
                )

            _, optimizer = _train(rank, make, iters=2)
            total = sum(p.numel() for p in optimizer.params)
            return optimizer.shard_numel(), total

        results = run_world(2, body, backend="gloo")
        shard_sizes = [s for s, _ in results]
        total = results[0][1]
        assert sum(shard_sizes) == total  # partition covers everything
        assert all(0 < s < total for s in shard_sizes)  # genuinely split

    def test_partition_is_deterministic_and_balanced(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            zro = ShardedOptimizer(
                list(ddp.parameters()), lambda s: SGD(s, lr=0.1), ddp.process_group
            )
            return zro.layout.spans

        spans = run_world(2, body, backend="gloo")
        assert spans[0] == spans[1]

    def test_owner_map_balances_sizes(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            zro = ShardedOptimizer(
                list(ddp.parameters()), lambda s: SGD(s, lr=0.1), ddp.process_group
            )
            return zro.shard_numel()

        loads = run_world(2, body, backend="gloo")
        assert max(loads) - min(loads) <= 1  # flat spans split to ±1 element

    def test_empty_params_rejected(self):
        class _PG:
            size = 2
            group_rank = 0

        with pytest.raises(ValueError):
            ShardedOptimizer([], lambda s: None, _PG())


class TestMemoryModel:
    def test_ddp_replicates_everything(self):
        breakdown = memory_breakdown(resnet50_profile(), 16, "ddp", "adam")
        n = resnet50_profile().num_params
        assert breakdown.parameters == n * 4
        assert breakdown.gradients == n * 4
        assert breakdown.optimizer_state == n * 4 * 2

    def test_zero_stages_strictly_shrink(self):
        totals = [
            memory_breakdown(bert_profile(), 64, s, "adam").total
            for s in ("ddp", "zero1", "zero2", "zero3")
        ]
        assert totals[0] > totals[1] > totals[2] > totals[3]

    def test_zero1_shards_only_optimizer(self):
        ddp = memory_breakdown(resnet50_profile(), 8, "ddp", "adam")
        z1 = memory_breakdown(resnet50_profile(), 8, "zero1", "adam")
        assert z1.parameters == ddp.parameters
        assert z1.gradients == ddp.gradients
        assert z1.optimizer_state == pytest.approx(ddp.optimizer_state / 8)

    def test_plain_sgd_has_no_state(self):
        breakdown = memory_breakdown(resnet50_profile(), 8, "ddp", "sgd")
        assert breakdown.optimizer_state == 0.0

    def test_report_rows(self):
        rows = memory_report(bert_profile(), 256)
        assert [r[0] for r in rows] == ["ddp", "zero1", "zero2", "zero3"]
        assert rows[0][-1] > rows[-1][-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            memory_breakdown(resnet50_profile(), 8, "zero9")
        with pytest.raises(ValueError):
            memory_breakdown(resnet50_profile(), 8, "ddp", "rmsprop")
