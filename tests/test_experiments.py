"""The experiments package: the figure and ablation row generators."""

import numpy as np
import pytest

from repro.core.bucket import validate_assignment
from repro.experiments import ablations, figures
from repro.nn.module import Parameter


def _params_of_sizes(*sizes):
    return [Parameter(np.zeros(s)) for s in sizes]


class TestFigureGenerators:
    def test_fig02_sweep_shapes(self):
        rows = figures.fig02_allreduce_sweep("nccl")
        assert len(rows) == len(figures.FIG2_SWEEP)
        assert all(t > 0 for _, t in rows)

    def test_fig02_backward_rows(self):
        rows = figures.fig02_backward_curve("gpu", runs=5)
        assert len(rows) == 5
        medians = [r[1] for r in rows]
        assert medians == sorted(medians)  # cumulative curve
        for _, median, low, high in rows:
            assert low <= median <= high

    def test_fig06_has_four_combos(self):
        rows = figures.fig06_breakdown()
        assert len(rows) == 4
        assert {r[0] for r in rows} == {"resnet50", "bert"}

    def test_bucket_sweep_returns_best(self):
        rows, best = figures.bucket_size_sweep(16, iterations=4)
        assert set(best) == {
            ("resnet50", "nccl"), ("resnet50", "gloo"),
            ("bert", "nccl"), ("bert", "gloo"),
        }

    def test_fig09_all_worlds(self):
        results = figures.fig09_scalability(iterations=2)
        for latencies in results.values():
            assert len(latencies) == len(figures.SCALABILITY_WORLDS)
            assert latencies[-1] > latencies[0]

    def test_fig10_cadences(self):
        results = figures.fig10_skip_sync(cadences=(1, 8), iterations=8)
        assert results[("nccl", 8)][-1] < results[("nccl", 1)][-1]

    def test_fig12_streams(self):
        results = figures.fig12_round_robin(streams=(1, 3), iterations=2)
        assert len(results) == 8


class TestAblationGenerators:
    def test_design_progression_monotone(self):
        rows = ablations.design_progression(backends=("nccl",), worlds=(16,))
        latency = {r[2]: r[3] for r in rows}
        assert latency["overlapped"] < latency["bucketed"] < latency["naive"]

    def test_compression_projection(self):
        rows = ablations.compression_projection()
        hooks = {r[1] for r in rows}
        assert hooks == {"fp32_allreduce", "fp16"}

    def test_order_prediction_triple(self):
        matched, mismatched, traced = ablations.order_prediction()
        assert matched < mismatched
        assert traced < mismatched

    def test_assignment_covers_all_params(self):
        params = _params_of_sizes(4, 4, 4, 4)
        specs = ablations.assignment_from_order(params, (1, 3, 0, 2), bucket_cap_mb=1.0)
        validate_assignment(specs, 4)

    def test_first_bucket_holds_first_ready_params(self):
        """Bucket 0 contains the gradients that become ready first."""
        params = _params_of_sizes(4, 4, 4, 4)
        two_params_mb = 2 * 4 * 8 / (1024 * 1024)
        specs = ablations.assignment_from_order(
            params, (1, 3, 0, 2), bucket_cap_mb=two_params_mb
        )
        assert specs[0].param_indices == (1, 3)
        assert specs[1].param_indices == (0, 2)

    @pytest.mark.parametrize("order", [(2, 0), (0, 1, 1), (0, 1, 3)])
    def test_order_must_be_a_permutation(self, order):
        with pytest.raises(ValueError, match="permutation"):
            ablations.assignment_from_order(_params_of_sizes(4, 4, 4), order)

    def test_param_averaging_timeline(self):
        rows = ablations.param_averaging_timeline(backends=("gloo",), worlds=(32,))
        ((_, _, ddp_latency, avg_latency, _),) = rows
        assert ddp_latency < avg_latency


class TestProfileFromModule:
    def test_roundtrip(self):
        from repro.models import MLP
        from repro.simulation import profile_from_module

        model = MLP(8, [16, 16], 4)
        profile = profile_from_module(model, "mlp", 0.01, 0.02)
        assert profile.num_params == model.num_parameters()
        assert profile.num_tensors == len(list(model.parameters()))
        assert profile.v100_backward_seconds == 0.02

    def test_simulatable(self):
        from repro.models import MLP
        from repro.simulation import (
            SimulationConfig,
            TrainingSimulator,
            profile_from_module,
        )

        profile = profile_from_module(MLP(8, [16], 4), "tiny", 0.001, 0.002)
        sim = TrainingSimulator(
            SimulationConfig(model=profile, world_size=4, backend="nccl")
        )
        assert sim.median_latency(4) > 0

    def test_empty_module_rejected(self):
        from repro import nn
        from repro.simulation import profile_from_module

        with pytest.raises(ValueError):
            profile_from_module(nn.ReLU(), "empty", 0.1, 0.1)


class TestMeasureComputeAnchors:
    def test_returns_positive_times(self):
        from repro.autograd import randn
        from repro.models import MLP
        from repro.simulation import measure_compute_anchors
        from repro.utils import manual_seed

        manual_seed(0)
        model = MLP(8, [32], 4)
        fwd, bwd = measure_compute_anchors(model, randn(16, 8), iterations=3)
        assert fwd > 0 and bwd > 0

    def test_feeds_profile_from_module(self):
        from repro.autograd import randn
        from repro.models import MLP
        from repro.simulation import (
            SimulationConfig,
            TrainingSimulator,
            measure_compute_anchors,
            profile_from_module,
        )
        from repro.utils import manual_seed

        manual_seed(0)
        model = MLP(8, [32], 4)
        fwd, bwd = measure_compute_anchors(model, randn(16, 8))
        profile = profile_from_module(model, "measured-mlp", fwd, bwd)
        sim = TrainingSimulator(
            SimulationConfig(model=profile, world_size=4, backend="gloo")
        )
        assert sim.median_latency(2) > 0
