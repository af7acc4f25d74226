"""Elastic scale-up: rejoin requests, flapping ranks, and boundaries.

Grows mirror the shrink tests' geometry: ``rejoin_rank(spot,
generation=g)`` matures *during* generation ``g``, the supervisor
aborts that generation exactly as it would for a death, and the
boundary admission re-rendezvouses the enlarged membership.  Loss
continuity is asserted **bitwise** against a *composed baseline* — a
sequence of plain elastic runs sharing one checkpoint directory with
the identical world schedule — because only identical world schedules
make float averaging exactly comparable.
"""

import time

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.optim import SGD
from repro.resilience import (
    ElasticConfig,
    FaultPlan,
    crash_rank,
    rejoin_rank,
    run_elastic,
)
from repro.sharded import ShardedDataParallel

from conftest import small_classifier

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
    # Shard by spot-independent rank with a *fixed* per-rank batch, so
    # the same (iteration, rank) pair sees the same data at any world
    # size — the composed-baseline comparisons need that.
    shard = slice(ctx.rank * 4, (ctx.rank + 1) * 4)
    opt.zero_grad()
    loss = _loss_fn(model(Tensor(X[shard])), Y[shard])
    loss.backward()
    opt.step()
    # Keep each iteration longer than the supervisor's poll tick so a
    # generation cannot finish before pending rejoins are noticed
    # (numerics untouched — composed baselines run the same step).
    time.sleep(0.01)
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


class TestGrow:
    def test_grow_admits_returning_spots(self, tmp_path):
        """2 -> 4: two rejoins mature in generation 0, both admitted."""
        plan = FaultPlan([rejoin_rank(2, generation=0),
                          rejoin_rank(3, generation=0)])
        res = run_elastic(
            2, setup, step, total_iterations=8,
            config=config(tmp_path, allow_grow=True, max_world_size=4),
            fault_plan=plan,
        )
        assert res.completed
        assert res.final_world_size == 4
        assert res.admissions == [2, 3]
        assert res.deaths == []
        assert res.generations[0]["grow_ready"] == [2, 3]
        assert res.generations[0]["admitted"] == [2, 3]
        assert res.iterations == 8

    def test_grow_loss_continuation_bitwise(self, tmp_path):
        """Grown-run losses equal a composed same-schedule baseline."""
        plan = FaultPlan([rejoin_rank(2, generation=0),
                          rejoin_rank(3, generation=0)])
        res = run_elastic(
            2, setup, step, total_iterations=8,
            config=config(tmp_path / "grown", allow_grow=True,
                          max_world_size=4),
            fault_plan=plan,
        )
        assert res.completed and res.final_world_size == 4
        boundary = res.generations[0]["end_iteration"]

        # Composed baseline: world 2 up to the observed boundary, then
        # world 4 to the end, through the same checkpoint protocol.
        base_cfg = config(tmp_path / "base")
        base_losses = []
        if boundary:
            first = run_elastic(2, setup, step, total_iterations=boundary,
                                config=base_cfg)
            base_losses += first.losses
        second = run_elastic(4, setup, step, total_iterations=8,
                             config=base_cfg)
        base_losses += second.losses
        assert base_losses == res.losses  # bitwise

    def test_kill_then_rejoin_two_generations_later(self, tmp_path):
        """Kill a rank in generation 0; it rejoins after generation 1."""
        plan = FaultPlan([
            crash_rank(3, scope="collective", op="allreduce",
                       after=1 * BUCKETS, times=1),
            rejoin_rank(3, generation=1),
        ])
        res = run_elastic(
            4, setup, step, total_iterations=10,
            config=config(tmp_path, allow_grow=True, max_world_size=4,
                          replication_factor=2),
            fault_plan=plan,
        )
        assert res.completed
        assert res.deaths == [3]
        assert res.admissions == [3]
        assert res.final_world_size == 4
        assert res.iterations == 10
        assert [g["world_size"] for g in res.generations] == [4, 3, 4]
        # The engine ran: every generation reports per-rank counters.
        stats = res.generations[-1]["checkpoint"]
        assert stats is not None
        assert all(s["saves"] > 0 for s in stats.values())
        assert all(s["replication_factor"] == 2 for s in stats.values())

    def test_grow_immediately_after_shrink(self, tmp_path):
        """A matured rejoin is admitted at the same boundary the death
        shrank the membership — net world size is unchanged."""
        plan = FaultPlan([
            crash_rank(2, scope="collective", op="allreduce",
                       after=1 * BUCKETS, times=1),
            rejoin_rank(2, generation=0),
        ])
        res = run_elastic(
            3, setup, step, total_iterations=6,
            config=config(tmp_path, allow_grow=True, max_world_size=3),
            fault_plan=plan,
        )
        assert res.completed
        assert res.deaths == [2]
        assert res.admissions == [2]
        assert [g["world_size"] for g in res.generations] == [3, 3]
        assert res.final_world_size == 3

    def test_grow_with_sharded_wrapper_resharding(self, tmp_path):
        """2 -> 4 under ZeRO-2: the consolidated checkpoint written at
        world 2 reshards into the world-4 layout bitwise."""
        plan = FaultPlan([rejoin_rank(2, generation=0),
                          rejoin_rank(3, generation=0)])
        wrapper = lambda module, group: ShardedDataParallel(  # noqa: E731
            module, lambda ps: SGD(ps, lr=0.05), process_group=group,
            bucket_cap_mb=0.0001,
        )

        def sharded_setup(ctx):
            return small_classifier(), None

        def sharded_step(ctx, model, optimizer, iteration):
            shard = slice(ctx.rank * 4, (ctx.rank + 1) * 4)
            model.zero_grad()
            loss = _loss_fn(model(Tensor(X[shard])), Y[shard])
            loss.backward()
            model.step()
            time.sleep(0.01)  # outlive the supervisor poll tick
            return float(loss.data)

        res = run_elastic(
            2, sharded_setup, sharded_step, total_iterations=8,
            config=config(tmp_path / "grown", allow_grow=True,
                          max_world_size=4, ddp_kwargs={}, wrapper=wrapper),
            fault_plan=plan,
        )
        assert res.completed
        assert res.final_world_size == 4
        assert res.admissions == [2, 3]
        boundary = res.generations[0]["end_iteration"]

        base_cfg = config(tmp_path / "base", ddp_kwargs={}, wrapper=wrapper)
        base_losses = []
        if boundary:
            first = run_elastic(2, sharded_setup, sharded_step,
                                total_iterations=boundary, config=base_cfg)
            base_losses += first.losses
        second = run_elastic(4, sharded_setup, sharded_step,
                             total_iterations=8, config=base_cfg)
        base_losses += second.losses
        assert base_losses == res.losses  # bitwise


class TestFlap:
    def test_flapped_rank_keeps_its_spot(self, tmp_path):
        """A heartbeat that goes stale then recovers within the
        generation aborts it, but the membership restarts unchanged."""
        flapped_once = [False]

        def flappy_step(ctx, model, opt, iteration):
            if (ctx.generation == 0 and ctx.rank == 1 and iteration == 2
                    and not flapped_once[0]):
                flapped_once[0] = True
                ctx.heartbeat.suspend(0.8)
                time.sleep(0.6)  # outlive MISS_THRESHOLD while suspended
            return step(ctx, model, opt, iteration)

        res = run_elastic(
            2, setup, flappy_step, total_iterations=6,
            config=config(tmp_path, allow_grow=True),
            fault_plan=FaultPlan([]),
        )
        assert res.completed
        assert res.final_world_size == 2
        assert res.deaths == []
        assert res.flaps == [1]
        assert res.generations[0]["flapped"] == [1]
        assert res.iterations == 6


class TestBoundaries:
    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError, match="max_world_size"):
            ElasticConfig(min_world_size=2, max_world_size=1)

    def test_bad_replication_factor_rejected(self):
        with pytest.raises(ValueError, match="replication_factor"):
            ElasticConfig(replication_factor=0)

    def test_initial_world_above_max_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_world_size"):
            run_elastic(
                4, setup, step, total_iterations=2,
                config=config(tmp_path, max_world_size=3),
            )

    def test_grow_clamped_at_max_world_size(self, tmp_path):
        """Two rejoins, one slot: the lowest spot is admitted, the other
        stays pending and never aborts a full-capacity generation."""
        plan = FaultPlan([rejoin_rank(2, generation=0),
                          rejoin_rank(3, generation=0)])
        res = run_elastic(
            2, setup, step, total_iterations=8,
            config=config(tmp_path, allow_grow=True, max_world_size=3),
            fault_plan=plan,
        )
        assert res.completed
        assert res.final_world_size == 3
        assert res.admissions == [2]
