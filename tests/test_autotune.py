"""The online autotuner: knob registry, cost prior, search policy, live runs."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.autotune import (
    CONVERGED,
    KNOBS,
    SearchPolicy,
    TunedConfig,
    clamp_config,
    default_config,
    knob_table,
    validate_config,
)
from repro.autotune.cost_prior import estimate_iteration_time, prune_candidates
from repro.autotune.knobs import candidate_grid, neighbors
from repro.core import DistributedDataParallel
from repro.optim import SGD
from repro.simnet.cost_model import cost_model_for
from repro.utils import manual_seed

from conftest import run_world, small_classifier

RNG = np.random.default_rng(11)
X = RNG.standard_normal((8, 6))
Y = RNG.integers(0, 4, 8)


def config_in_safe_ranges(config_dict) -> bool:
    try:
        validate_config(TunedConfig(**config_dict))
        return True
    except ValueError:
        return False


class TestKnobRegistry:
    def test_default_config_is_valid(self):
        validate_config(default_config())

    def test_clamp_pulls_into_range(self):
        wild = TunedConfig(
            bucket_cap_mb=1000.0, chunk_bytes=1, algorithm="naive", comm_hook="gzip"
        )
        clamped = clamp_config(wild)
        validate_config(clamped)
        assert clamped.bucket_cap_mb == 200.0
        assert clamped.chunk_bytes == 64 * 1024
        assert clamped.algorithm == "ring"  # categorical falls back to default
        assert clamped.comm_hook is None

    def test_validate_names_every_offender(self):
        bad = TunedConfig(bucket_cap_mb=0.1, chunk_bytes=16 * 1024 * 1024)
        with pytest.raises(ValueError) as err:
            validate_config(bad)
        assert "bucket_cap_mb" in str(err.value)
        assert "chunk_bytes" in str(err.value)

    def test_naive_not_a_choice(self):
        assert "naive" not in KNOBS["algorithm"].choices

    def test_grid_is_bounded_and_unique(self):
        grid = candidate_grid(default_config(), tune_comm_hook=True)
        assert len(grid) == len(set(grid))
        assert len(grid) <= 1200
        for config in grid:
            validate_config(config)

    def test_neighbors_stay_in_safe_ranges(self):
        # Even from a corner of the space, every move is clamped legal.
        corner = TunedConfig(
            bucket_cap_mb=200.0, chunk_bytes=8 * 1024 * 1024, algorithm="tree",
        )
        moves = neighbors(corner, tune_comm_hook=True)
        assert moves
        for move in moves:
            validate_config(move)

    def test_hook_dimension_gated(self):
        assert all(
            c.comm_hook is None for c in candidate_grid(default_config())
        )
        assert all(
            c.comm_hook == default_config().comm_hook
            for c in neighbors(default_config())
        )

    def test_knob_table_covers_registry(self):
        rows = {row["knob"] for row in knob_table()}
        assert rows == set(KNOBS)


class TestCostPrior:
    def test_more_ranks_cost_more(self):
        config = default_config()
        t2 = estimate_iteration_time(config, 100e6, 2)
        t8 = estimate_iteration_time(config, 100e6, 8)
        assert t8 > t2

    def test_compression_cheaper_on_big_models(self):
        base = default_config()
        dense = estimate_iteration_time(base, 400e6, 8)
        fp16 = estimate_iteration_time(base.replace(comm_hook="fp16"), 400e6, 8)
        assert fp16 < dense

    def test_tiny_buckets_predicted_slow(self):
        # The acceptance scenario: 1 MB buckets at world 8 must score
        # worse than the 25 MB default on a 100 MB model.
        base = default_config()
        tiny = estimate_iteration_time(base.replace(bucket_cap_mb=1.0), 100e6, 8)
        default = estimate_iteration_time(base, 100e6, 8)
        assert tiny > default

    def test_prune_is_deterministic_and_bounded(self):
        grid = candidate_grid(default_config())
        once = prune_candidates(grid, 100e6, 8, keep=6)
        twice = prune_candidates(grid, 100e6, 8, keep=6)
        assert once == twice
        assert len(once) == 6


def simulate(policy, measure, start, max_windows=60, signals=None):
    """Drive a policy with a deterministic measurement function."""
    config = start
    for _ in range(max_windows):
        config = policy.observe(measure(config), signals or {})
        if policy.state == CONVERGED and policy.windows > 5:
            break
    return config


class TestPolicyConvergence:
    """The ISSUE acceptance scenario, at policy level: deterministic
    cost-model 'measurements' so the test is immune to CI timing noise
    (live mechanics are covered separately below)."""

    WORLD = 8
    MODEL_BYTES = 100e6
    BACKWARD_S = 0.02

    def measure(self, config):
        return estimate_iteration_time(
            config,
            self.MODEL_BYTES,
            self.WORLD,
            self.BACKWARD_S,
            cost_model=cost_model_for("gloo"),
        )

    def test_converges_near_optimum_within_30_windows(self):
        start = default_config().replace(bucket_cap_mb=1.0)  # provably suboptimal
        policy = SearchPolicy(
            start, model_bytes=self.MODEL_BYTES, world_size=self.WORLD, seed=0
        )
        simulate(policy, self.measure, start)
        assert policy.state == CONVERGED
        assert policy.windows <= 30
        optimum = min(self.measure(c) for c in candidate_grid(start))
        assert policy.best_time <= optimum * 1.10
        # ...and it actually moved off the bad default.
        assert policy.best_config.bucket_cap_mb > 1.0

    def test_every_visited_config_in_safe_ranges(self):
        start = default_config().replace(bucket_cap_mb=1.0)
        policy = SearchPolicy(
            start, model_bytes=self.MODEL_BYTES, world_size=self.WORLD, seed=3,
            tune_comm_hook=True,
        )
        simulate(policy, self.measure, start)
        assert policy.history
        for entry in policy.history:
            assert config_in_safe_ranges(entry["config"])

    def test_identical_inputs_identical_walk(self):
        """The cross-rank determinism contract: same seed + same
        measurements => the exact same config sequence."""
        start = default_config()
        walks = []
        for _ in range(2):
            policy = SearchPolicy(
                start, model_bytes=self.MODEL_BYTES, world_size=self.WORLD, seed=7
            )
            config = start
            walk = []
            for _ in range(25):
                config = policy.observe(self.measure(config), {})
                walk.append(config)
            walks.append(walk)
        assert walks[0] == walks[1]

    def test_rollback_guard_reverts_regressions(self):
        """A config the prior loves but that measures terribly must be
        rolled back, never adopted."""
        start = default_config()
        poison = start.replace(bucket_cap_mb=100.0)

        def measure(config):
            if config.bucket_cap_mb == 100.0:
                return 10.0  # catastrophic in reality
            return self.measure(config)

        policy = SearchPolicy(
            start, model_bytes=self.MODEL_BYTES, world_size=self.WORLD, seed=0
        )
        simulate(policy, measure, start)
        assert policy.best_config.bucket_cap_mb != 100.0
        # The poison config was tried (the prior can't know) but rolled back.
        if any(e["config"]["bucket_cap_mb"] == 100.0 for e in policy.history):
            assert policy.rollbacks >= 1
        assert policy.best_time <= measure(start)

    def test_drift_triggers_retune(self):
        """A frozen config whose measured time degrades (topology
        changed, link went slow) re-enters the sweep."""
        start = default_config()
        policy = SearchPolicy(
            start, model_bytes=self.MODEL_BYTES, world_size=self.WORLD, seed=0,
            drift_patience=2,
        )
        simulate(policy, self.measure, start)
        assert policy.state == CONVERGED
        config = policy.active_config
        for _ in range(6):
            config = policy.observe(self.measure(config) * 3.0, {})
            if policy.retunes:
                break
        assert policy.retunes >= 1
        assert policy.state != CONVERGED


class TestLiveRetune:
    """Integration: the knobs actually move on a live group."""

    def test_set_algorithm_validates(self):
        def body(rank):
            from repro.comm.distributed import get_context

            group = get_context().default_group
            group.set_algorithm("tree")
            data = np.full(16, float(rank + 1))
            group.allreduce(data)
            with pytest.raises(ValueError):
                group.set_algorithm("bogus")
            return float(data[0])

        assert run_world(2, body, backend="gloo") == [3.0, 3.0]

    def test_set_bucket_cap_relayouts_and_training_continues(self):
        def body(rank):
            manual_seed(7)
            model = small_classifier()
            ddp = DistributedDataParallel(model, bucket_cap_mb=25.0)
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            counts = []
            for step in range(6):
                if step == 3:
                    ddp.set_bucket_cap_mb(1e-4)  # force many tiny buckets
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
                counts.append(len(ddp.reducer.buckets))
            return counts, {
                n: p.data.copy() for n, p in model.named_parameters()
            }

        results = run_world(2, body, backend="gloo", timeout=30)
        counts0, params0 = results[0]
        counts1, params1 = results[1]
        assert counts0 == counts1
        assert counts0[-1] > counts0[0]  # the relayout actually happened
        for name in params0:  # replicas stayed in lockstep through it
            assert np.allclose(params0[name], params1[name])

    def test_live_autotuned_training(self):
        """End-to-end: tuner runs, applies changes, every rank lands on
        the identical config, every applied config is in safe ranges,
        and training still converges."""

        def body(rank):
            manual_seed(7)
            model = small_classifier()
            ddp = DistributedDataParallel(
                model,
                bucket_cap_mb=1.0,
                autotune=True,
                autotune_options={
                    "window_iters": 2,
                    "warmup_windows": 1,
                    "sweep_keep": 3,
                    "seed": 1,
                },
            )
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            losses = []
            for _ in range(40):
                opt.zero_grad()
                loss = loss_fn(ddp(Tensor(X[shard])), Y[shard])
                loss.backward()
                opt.step()
                losses.append(loss.item())
            stats = ddp.ddp_stats()["autotune"]
            ddp.autotuner.close()
            return losses, stats

        results = run_world(2, body, backend="gloo", timeout=60)
        stats0, stats1 = results[0][1], results[1][1]
        assert stats0["windows_closed"] > 3
        assert stats0["applied_changes"] >= 1
        # Decision determinism across ranks:
        assert stats0["active_config"] == stats1["active_config"]
        assert stats0["best_config"] == stats1["best_config"]
        assert stats0["applied_log"] == stats1["applied_log"]
        # Safe-range guarantee on everything that was ever applied:
        for entry in stats0["applied_log"]:
            assert config_in_safe_ranges(entry["config"])
        # The knob taxonomy rides along in the report.
        assert {row["knob"] for row in stats0["knobs"]} == set(KNOBS)
        # Training still learns through live retunes.
        losses = results[0][0]
        assert losses[-1] < losses[0]

    def test_stats_section_absent_without_autotune(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            nn.CrossEntropyLoss()(ddp(Tensor(X[:4])), Y[:4]).backward()
            return ddp.ddp_stats()["autotune"]

        assert run_world(2, body, backend="gloo") == [None, None]
