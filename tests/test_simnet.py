"""Topology, cost models, device profiles, entitlement."""

import numpy as np
import pytest

from repro.simnet import (
    CPU_SERVER,
    GPU_V100,
    ClusterSpec,
    LinkType,
    SharedEntitlement,
    cost_model_for,
    dgx1_topology,
)
from repro.simulation.models import resnet152_profile, resnet50_profile


class TestTopology:
    def test_matrix_is_symmetric(self):
        topo = dgx1_topology()
        for i in range(8):
            for j in range(8):
                assert topo.link(i, j) == topo.link(j, i)

    def test_diagonal_is_self(self):
        topo = dgx1_topology()
        assert all(topo.link(i, i) == LinkType.SELF for i in range(8))

    def test_every_gpu_has_nvlink_peers(self):
        topo = dgx1_topology()
        for i in range(8):
            kinds = {topo.link(i, j) for j in range(8) if j != i}
            assert LinkType.NV1 in kinds or LinkType.NV2 in kinds
            assert LinkType.NODE in kinds  # and some host-routed peers

    def test_bandwidth_ordering(self):
        topo = dgx1_topology()
        nv2_pairs = [(1, 2)]
        node_pairs = [(0, 5)]
        assert topo.bandwidth(*nv2_pairs[0]) > topo.bandwidth(*node_pairs[0])

    def test_ring_bandwidth_is_bottleneck(self):
        topo = dgx1_topology()
        quad_ring = topo.ring_bandwidth([0, 1, 2, 3])
        cross_ring = topo.ring_bandwidth([0, 5, 1, 6])
        assert quad_ring > cross_ring

    def test_render_matches_fig5_format(self):
        text = dgx1_topology().render()
        assert "GPU0" in text and "NV2" in text and "NODE" in text

    def test_cluster_placement(self):
        cluster = ClusterSpec()
        placement = cluster.placement(12)
        assert placement[0] == (0, 0)
        assert placement[8] == (1, 0)
        assert not cluster.spans_servers(8)
        assert cluster.spans_servers(9)

    def test_cluster_capacity_enforced(self):
        with pytest.raises(ValueError):
            ClusterSpec().placement(100)


class TestCostModels:
    def test_nccl_sweep_monotone_decreasing(self):
        """Fig. 2(a): total time falls as per-op size grows."""
        model = cost_model_for("nccl")
        sizes = [1_000, 10_000, 100_000, 1_000_000, 10_000_000]
        times = [model.sweep_total_time(60_000_000, s) for s in sizes]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_gloo_sweep_saturates_near_500k(self):
        """Fig. 2(b): beyond ~500K params/op Gloo stops improving."""
        model = cost_model_for("gloo")
        t_small = model.sweep_total_time(60_000_000, 10_000)
        t_500k = model.sweep_total_time(60_000_000, 500_000)
        t_10m = model.sweep_total_time(60_000_000, 10_000_000)
        assert t_small > 3 * t_500k  # strong gains up to the knee
        assert abs(t_10m - t_500k) < t_500k  # flat-ish after the knee

    def test_nccl_much_faster_than_gloo(self):
        nccl, gloo = cost_model_for("nccl"), cost_model_for("gloo")
        assert nccl.allreduce_time(1e6, 16) < gloo.allreduce_time(1e6, 16) / 2
        for nbytes in (25e6, 100e6):
            assert nccl.allreduce_time(nbytes, 16) < gloo.allreduce_time(nbytes, 16) / 3

    def test_allreduce_time_grows_with_world(self):
        model = cost_model_for("nccl")
        times = [model.allreduce_time(25e6, w) for w in (2, 4, 8)]
        assert times[0] < times[1] < times[2]

    def test_intra_vs_inter_cliff(self):
        """Crossing the server boundary costs bandwidth (§6.1 lesson)."""
        model = cost_model_for("nccl")
        assert model.allreduce_time(25e6, 16) > 3 * model.allreduce_time(25e6, 8)

    def test_bandwidth_factor_scales(self):
        model = cost_model_for("nccl")
        healthy = model.allreduce_time(25e6, 32, bandwidth_factor=1.0)
        degraded = model.allreduce_time(25e6, 32, bandwidth_factor=0.5)
        assert degraded > healthy * 1.5

    def test_world_one_is_free_ish(self):
        model = cost_model_for("nccl")
        assert model.allreduce_time(25e6, 1) <= model.launch_overhead
        assert model.allreduce_time(0, 4) == 0.0

    def test_stream_penalty(self):
        model = cost_model_for("nccl")
        assert model.stream_penalty(1, 32) == 1.0
        # 3 streams fit under the inter-server link capacity
        assert model.stream_penalty(3, 32) == pytest.approx(1.0)
        # 5 streams oversubscribe it
        assert model.stream_penalty(5, 32) > 1.0

    def test_gloo_stream_penalty_kicks_in_early(self):
        model = cost_model_for("gloo")
        assert model.stream_penalty(3, 32) > 1.0

    def test_cost_model_for(self):
        assert cost_model_for("nccl").name == "nccl"
        assert cost_model_for("GLOO").name == "gloo"
        with pytest.raises(ValueError):
            cost_model_for("mpi")


class TestDeviceProfiles:
    def test_fig2c_gpu_anchor(self):
        backward = GPU_V100.backward_time(resnet152_profile())
        assert 0.2 < backward < 0.3  # ~250 ms

    def test_fig2d_cpu_anchor(self):
        backward = CPU_SERVER.backward_time(resnet152_profile())
        assert 5.0 < backward < 7.0  # ~6 s

    def test_forward_cheaper_than_backward(self):
        model = resnet50_profile()
        assert GPU_V100.forward_time(model) < GPU_V100.backward_time(model)

    def test_optimizer_time_small(self):
        model = resnet50_profile()
        assert GPU_V100.optimizer_time(model) < 0.2 * GPU_V100.backward_time(model)


class TestEntitlement:
    def test_ideal_applies_nothing(self):
        ent = SharedEntitlement.ideal()
        assert ent.bandwidth_factor(256) == 1.0
        assert ent.straggler_factor(256) == 1.0

    def test_bandwidth_degrades_with_scale(self):
        ent = SharedEntitlement()
        factors = [ent.bandwidth_factor(w) for w in (8, 32, 64, 128, 256)]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_interpolation_between_calibration_points(self):
        ent = SharedEntitlement()
        mid = ent.bandwidth_factor(96)
        assert ent.bandwidth_factor(128) < mid < ent.bandwidth_factor(64)

    def test_anomaly_multiplies(self):
        plain = SharedEntitlement()
        bumpy = SharedEntitlement(anomalies={16: 0.5})
        assert bumpy.bandwidth_factor(16) == pytest.approx(
            plain.bandwidth_factor(16) * 0.5
        )

    def test_straggler_grows_with_world(self):
        ent = SharedEntitlement()
        assert ent.straggler_factor(256) > ent.straggler_factor(8) > 1.0

    def test_noise_deterministic(self):
        ent = SharedEntitlement()
        assert ent.iteration_noise(32, 5) == ent.iteration_noise(32, 5)
        assert ent.iteration_noise(32, 5) != ent.iteration_noise(32, 6)

    def test_noise_spread_grows_with_scale(self):
        ent = SharedEntitlement()
        small = np.std([ent.iteration_noise(4, i) for i in range(200)])
        large = np.std([ent.iteration_noise(256, i) for i in range(200)])
        assert large > small
