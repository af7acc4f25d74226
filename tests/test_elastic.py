"""Elastic recovery: kill ranks mid-iteration, shrink, and keep training.

The crash is placed with collective-scoped fault rules: with four
single-parameter buckets, ``after=iteration*4 + b`` kills the victim
exactly as it issues bucket ``b``'s AllReduce of that iteration — every
bucket boundary is a tested death site.
"""

import os

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.optim import SGD
from repro.resilience import (
    ElasticConfig,
    FaultPlan,
    InjectedRankFailure,
    RankFailedError,
    corrupt_file,
    crash_rank,
    run_elastic,
)
from repro.sharded import ShardedDataParallel

from conftest import small_classifier

#: small_classifier has 4 parameter tensors; this cap gives one bucket
#: per parameter, so each iteration issues exactly 4 bucket AllReduces.
BUCKETS = 4
DDP_KWARGS = {"bucket_cap_mb": 0.0001}

_rng = np.random.default_rng(0)
X = _rng.standard_normal((24, 6))
Y = _rng.integers(0, 4, 24)
_loss_fn = nn.CrossEntropyLoss()


def setup(ctx):
    model = small_classifier()  # seeded: identical on every rank
    return model, SGD(model.parameters(), lr=0.05)


def step(ctx, model, opt, iteration):
    shard = slice(ctx.rank * 4, (ctx.rank + 1) * 4)
    opt.zero_grad()
    loss = _loss_fn(model(Tensor(X[shard])), Y[shard])
    loss.backward()
    opt.step()
    return float(loss.data)


def zero2(module, group):
    return ShardedDataParallel(module, lambda ps: SGD(ps, lr=0.05),
                               process_group=group, bucket_cap_mb=0.0001)


def sharded_step(ctx, model, optimizer, iteration):
    shard = slice(ctx.rank * 4, (ctx.rank + 1) * 4)
    model.zero_grad()
    loss = _loss_fn(model(Tensor(X[shard])), Y[shard])
    loss.backward()
    model.step()
    return float(loss.data)


def config(tmp_path, **overrides):
    defaults = dict(
        policy="shrink",
        checkpoint_dir=str(tmp_path),
        checkpoint_every=1,
        timeout=8.0,
        ddp_kwargs=dict(DDP_KWARGS),
    )
    defaults.update(overrides)
    return ElasticConfig(**defaults)


class TestBucketBoundaryKills:
    @pytest.mark.parametrize("bucket", range(BUCKETS))
    def test_kill_at_every_bucket_boundary(self, tmp_path, bucket):
        """Rank 2 dies issuing bucket ``bucket``'s AllReduce of
        iteration 1; survivors resume from the iteration-0 checkpoint."""
        plan = FaultPlan([
            crash_rank(2, scope="collective", op="allreduce",
                       after=1 * BUCKETS + bucket, times=1),
        ])
        res = run_elastic(3, setup, step, total_iterations=4,
                          config=config(tmp_path), fault_plan=plan)
        assert res.completed
        assert res.deaths == [2]
        assert res.final_world_size == 2
        assert res.iterations == 4
        assert len(res.generations) == 2
        # The generation that died never reported completion.
        assert res.generations[0]["completed"] is False
        assert res.generations[1]["completed"] is True


class TestShrinkConvergence:
    def test_prestate_kill_matches_fresh_small_world_exactly(self, tmp_path):
        """A death before the first checkpoint restarts from scratch at
        the smaller world — numerically identical to never having had
        the extra rank."""
        plan = FaultPlan([
            crash_rank(2, scope="collective", op="allreduce",
                       after=1, times=1),  # iteration 0, bucket 1
        ])
        res = run_elastic(3, setup, step, total_iterations=6,
                          config=config(tmp_path), fault_plan=plan)
        baseline = run_elastic(
            2, setup, step, total_iterations=6,
            config=config(tmp_path / "baseline"),
        )
        assert res.completed and baseline.completed
        assert res.generations[0]["losses"] == []  # no iteration finished
        assert np.allclose(res.losses, baseline.losses)

    def test_mid_run_shrink_converges_to_small_world_loss(self, tmp_path):
        """Killing a rank mid-run still converges to the no-fault
        shrunken-world loss within tolerance."""
        plan = FaultPlan([
            crash_rank(2, scope="collective", op="allreduce",
                       after=3 * BUCKETS + 2, times=1),
        ], seed=0)
        res = run_elastic(3, setup, step, total_iterations=10,
                          config=config(tmp_path), fault_plan=plan)
        baseline = run_elastic(
            2, setup, step, total_iterations=10,
            config=config(tmp_path / "baseline"),
        )
        assert res.completed
        assert res.deaths == [2]
        assert res.losses[-1] < res.losses[0]  # still training
        assert abs(res.final_loss - baseline.final_loss) < 0.05


class TestPolicies:
    def test_fail_policy_raises_rank_failed(self, tmp_path):
        plan = FaultPlan([
            crash_rank(1, scope="collective", op="allreduce",
                       after=2, times=1),
        ])
        with pytest.raises(RankFailedError) as excinfo:
            run_elastic(2, setup, step, total_iterations=4,
                        config=config(tmp_path, policy="fail"),
                        fault_plan=plan)
        assert excinfo.value.spots == [1]

    def test_pause_and_wait_restarts_at_full_world(self, tmp_path):
        plan = FaultPlan([
            crash_rank(1, scope="collective", op="allreduce",
                       after=BUCKETS, times=1),
        ])
        res = run_elastic(
            3, setup, step, total_iterations=4,
            config=config(tmp_path, policy="pause_and_wait"),
            fault_plan=plan,
        )
        assert res.completed
        assert res.final_world_size == 3  # dead spot was "replaced"
        assert len(res.generations) == 2

    def test_shrink_below_min_world_size_raises(self, tmp_path):
        plan = FaultPlan([
            crash_rank(1, scope="collective", op="allreduce",
                       after=2, times=1),
        ])
        with pytest.raises(RankFailedError, match="min_world_size"):
            run_elastic(2, setup, step, total_iterations=4,
                        config=config(tmp_path, min_world_size=2),
                        fault_plan=plan)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ElasticConfig(policy="retry-forever")

    def test_checkpoint_every_below_one_rejected(self):
        """Was: constructs, trains one iteration, dies inside a rank
        thread with ``integer modulo by zero``."""
        with pytest.raises(ValueError, match="checkpoint_every"):
            ElasticConfig(checkpoint_every=0)


class TestTornCheckpoint:
    """The default carrier is attacked by the plan's checkpoint rules:
    rank 0's newest file is torn, then a rank dies.  The torn generation
    is skipped, the one before restores, the run finishes shrunken."""

    @staticmethod
    def _check(res, plan):
        assert res.completed
        assert res.deaths == [2]
        assert res.final_world_size == 2
        assert res.iterations == 6
        gen0, gen1 = res.generations
        assert gen0["end_iteration"] == 3  # generation 3 was committed...
        assert len(gen1["losses"]) == 4  # ...torn, so 2 restored: 2, 3, 4, 5
        assert plan.stats()[1]["triggered"] == 1
        assert all(s["verify_failures"] >= 1 for s in gen1["checkpoint"].values())
        # The result names the engine root the run restored from.
        assert os.path.isdir(os.path.join(res.checkpoint_path, "rank0"))

    def test_ddp_falls_back_one_generation(self, tmp_path):
        plan = FaultPlan([
            crash_rank(2, scope="collective", op="allreduce",
                       after=3 * BUCKETS, times=1),  # iteration 3, bucket 0
            corrupt_file(rank=0, tag_contains="ckpt-00000003", times=1),
        ])
        res = run_elastic(3, setup, step, total_iterations=6,
                          config=config(tmp_path), fault_plan=plan)
        self._check(res, plan)

    def test_zero2_falls_back_one_generation(self, tmp_path):
        plan = FaultPlan([
            crash_rank(2, scope="collective", op="reduce_scatter_flat",
                       after=3 * BUCKETS, times=1),
            corrupt_file(rank=0, tag_contains="ckpt-00000003", times=1),
        ])
        res = run_elastic(
            3, lambda ctx: (small_classifier(), None), sharded_step,
            total_iterations=6,
            config=config(tmp_path, ddp_kwargs={}, wrapper=zero2),
            fault_plan=plan,
        )
        self._check(res, plan)


class TestElasticBookkeeping:
    def test_no_fault_run_is_single_generation(self, tmp_path):
        res = run_elastic(2, setup, step, total_iterations=3,
                          config=config(tmp_path))
        assert res.completed
        assert len(res.generations) == 1
        assert res.deaths == []
        assert len(res.losses) == 3

    def test_iterations_run_twice_report_one_loss(self, tmp_path):
        """A peer that dies after rank 0 saved iteration k but before it
        did itself makes the next generation run k again; the history
        keeps one loss per iteration."""
        def dying_step(ctx, model, optimizer, iteration):
            loss = sharded_step(ctx, model, optimizer, iteration)
            if ctx.generation == 0 and ctx.rank == 1 and iteration == 2:
                raise InjectedRankFailure(1, "died before saving iteration 2")
            return loss

        def run(directory, step):
            return run_elastic(
                2, lambda ctx: (small_classifier(), None), step, total_iterations=6,
                config=config(directory, ddp_kwargs={}, wrapper=zero2,
                              policy="pause_and_wait"),
            )

        res = run(tmp_path / "killed", dying_step)
        gen0, gen1 = res.generations
        assert (gen0["start_iteration"], gen0["end_iteration"]) == (0, 3)
        assert gen1["start_iteration"] == 2  # iteration 2 runs again
        reference = run(tmp_path / "whole", sharded_step)
        assert len(reference.generations) == 1
        assert len(reference.losses) == 6
        assert res.losses == reference.losses  # bitwise

    def test_checkpoint_carries_cursor_across_generations(self, tmp_path):
        """Iterations completed before the death are not re-run."""
        plan = FaultPlan([
            crash_rank(2, scope="collective", op="allreduce",
                       after=2 * BUCKETS, times=1),  # iteration 2, bucket 0
        ])
        res = run_elastic(3, setup, step, total_iterations=5,
                          config=config(tmp_path), fault_plan=plan)
        assert res.completed
        gen0, gen1 = res.generations
        assert gen0["end_iteration"] == 2
        assert gen1["end_iteration"] == 5
        assert len(res.losses) == 5  # 2 from gen 0 + 3 from gen 1
