"""Weight initializers and remaining simulator options."""

import numpy as np
import pytest

from repro.autograd import zeros
from repro.nn import init
from repro.simulation import SimulationConfig, TrainingSimulator
from repro.simulation.models import resnet50_profile
from repro.utils import manual_seed


@pytest.fixture(autouse=True)
def seed():
    manual_seed(17)


class TestInitializers:
    def test_uniform_range(self):
        t = zeros(1000)
        init.uniform_(t, -0.5, 0.5)
        assert t.data.min() >= -0.5 and t.data.max() <= 0.5
        assert t.data.std() > 0.1

    def test_normal_moments(self):
        t = zeros(10_000)
        init.normal_(t, mean=1.0, std=2.0)
        assert abs(t.data.mean() - 1.0) < 0.1
        assert abs(t.data.std() - 2.0) < 0.1

    def test_constant_family(self):
        t = zeros(5)
        init.ones_(t)
        assert np.all(t.data == 1)
        init.zeros_(t)
        assert np.all(t.data == 0)
        init.constant_(t, 3.5)
        assert np.all(t.data == 3.5)

    def test_kaiming_bound_scales_with_fan_in(self):
        wide = zeros(10, 1000)
        narrow = zeros(10, 10)
        init.kaiming_uniform_(wide)
        init.kaiming_uniform_(narrow)
        assert np.abs(wide.data).max() < np.abs(narrow.data).max()

    def test_xavier_uniform_bound(self):
        t = zeros(64, 64)
        init.xavier_uniform_(t)
        bound = np.sqrt(6.0 / 128)
        assert np.abs(t.data).max() <= bound + 1e-12

    def test_xavier_normal_std(self):
        t = zeros(200, 200)
        init.xavier_normal_(t)
        assert abs(t.data.std() - np.sqrt(2.0 / 400)) < 0.005

    def test_fan_requires_2d(self):
        with pytest.raises(ValueError):
            init.kaiming_uniform_(zeros(5))

    def test_conv_fan_in_uses_receptive_field(self):
        conv_w = zeros(8, 4, 3, 3)
        init.kaiming_uniform_(conv_w)
        # fan_in = 4*9 = 36; bound = sqrt(2/(1+5)) * sqrt(3/36)
        bound = np.sqrt(2.0 / 6.0) * np.sqrt(3.0 / 36.0)
        assert np.abs(conv_w.data).max() <= bound + 1e-12

    def test_initializers_draw_from_seeded_rng(self):
        a, b = zeros(20), zeros(20)
        manual_seed(3)
        init.normal_(a)
        manual_seed(3)
        init.normal_(b)
        assert np.array_equal(a.data, b.data)


class TestSimulatorOptions:
    def _sim(self, **overrides):
        settings = dict(model=resnet50_profile(), world_size=16, backend="nccl")
        settings.update(overrides)
        return TrainingSimulator(SimulationConfig(**settings))

    def test_gloo_pays_pcie_staging(self):
        from repro.simnet import cost_model_for
        from repro.simulation.trainer_sim import PCIE_BANDWIDTH

        sim = self._sim(backend="gloo")
        bucket = sim.buckets[0]
        nbytes = bucket.total_elements * 4
        modeled = sim._bucket_allreduce_time(bucket, 1.0)
        raw = cost_model_for("gloo").allreduce_time(nbytes, 16)
        assert modeled == pytest.approx(raw + 2 * nbytes / PCIE_BANDWIDTH)

    def test_execution_order_identity_matches_default(self):
        model = resnet50_profile()
        default = self._sim().simulate_iteration(0).total
        explicit = self._sim(
            execution_order=tuple(range(model.num_tensors - 1, -1, -1))
        ).simulate_iteration(0).total
        assert default == pytest.approx(explicit)

    def test_find_unused_appends_bitmap_event(self):
        result = self._sim(find_unused_parameters=True).simulate_iteration(0)
        assert any(label == "allreduce:bitmap" for label, *_ in result.events)
