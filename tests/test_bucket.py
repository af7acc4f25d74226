"""Bucket assignment rules (paper §3.2.2-3.2.3)."""

import numpy as np
import pytest

from repro import nn
from repro.core.bucket import (
    compute_bucket_assignment,
    describe_assignment,
    validate_assignment,
)
from repro.nn.module import Parameter
from repro.utils import manual_seed
from repro.utils.units import MB


def params_of_sizes(*sizes, device="cpu"):
    return [Parameter(np.zeros(s), device=device) for s in sizes]


class TestReverseOrder:
    def test_first_bucket_holds_last_parameters(self):
        params = params_of_sizes(10, 10, 10, 10)
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=2 * 10 * 8)
        assert buckets[0].param_indices == (3, 2)
        assert buckets[1].param_indices == (1, 0)

    def test_single_bucket_when_cap_large(self):
        params = params_of_sizes(5, 5, 5)
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=MB)
        assert len(buckets) == 1
        assert buckets[0].param_indices == (2, 1, 0)

    def test_model_parameter_order_respected(self):
        manual_seed(0)
        model = nn.Sequential(nn.Linear(4, 4), nn.Linear(4, 4), nn.Linear(4, 4))
        params = list(model.parameters())
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=10**9)
        # reverse order: last layer's bias first
        assert buckets[0].param_indices[0] == len(params) - 1
        assert buckets[0].param_indices[-1] == 0


class TestCap:
    def test_zero_cap_gives_per_parameter_buckets(self):
        params = params_of_sizes(3, 7, 1)
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=0)
        assert len(buckets) == 3
        assert all(len(b.param_indices) == 1 for b in buckets)

    def test_oversized_parameter_gets_own_bucket(self):
        params = params_of_sizes(1000, 2, 2)
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=10 * 8)
        sizes = [b.total_elements for b in buckets]
        assert 1000 in sizes

    def test_cap_not_exceeded_except_single_param(self):
        rng = np.random.default_rng(0)
        params = params_of_sizes(*rng.integers(1, 50, 30).tolist())
        cap = 40 * 8
        for bucket in compute_bucket_assignment(params, bucket_cap_bytes=cap):
            if len(bucket.param_indices) > 1:
                assert bucket.total_elements * 8 <= cap


class TestAffinity:
    def test_device_change_closes_bucket(self):
        params = params_of_sizes(4, 4) + params_of_sizes(4, 4, device="gpu:0")
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=MB)
        assert len(buckets) == 2
        assert buckets[0].device == "gpu:0"
        assert buckets[1].device == "cpu"

    def test_dtype_change_closes_bucket(self):
        a = Parameter(np.zeros(4))
        b = Parameter(np.zeros(4, dtype=np.float64))
        c = Parameter(np.zeros(4).astype(np.float32), requires_grad=False)
        c.requires_grad = True
        params = [a, b, c]
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=MB)
        assert len(buckets) == 2

    def test_interleaved_devices(self):
        params = (
            params_of_sizes(2)
            + params_of_sizes(2, device="gpu:0")
            + params_of_sizes(2)
        )
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=MB)
        assert len(buckets) == 3


class TestLayout:
    def test_offsets_are_contiguous(self):
        params = params_of_sizes(3, 5, 7)
        (bucket,) = compute_bucket_assignment(params, bucket_cap_bytes=MB)
        assert bucket.offsets == (0, 7, 12)  # reverse order: sizes 7,5,3
        assert bucket.sizes == (7, 5, 3)
        assert bucket.total_elements == 15

    def test_deterministic_across_calls(self):
        params = params_of_sizes(*range(1, 20))
        a = compute_bucket_assignment(params, bucket_cap_bytes=100 * 8)
        b = compute_bucket_assignment(params, bucket_cap_bytes=100 * 8)
        assert [x.param_indices for x in a] == [y.param_indices for y in b]


class TestValidation:
    def test_valid_assignment_passes(self):
        params = params_of_sizes(2, 4, 6)
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=MB)
        validate_assignment(buckets, 3)

    def test_missing_parameter_detected(self):
        params = params_of_sizes(2, 4, 6)
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=MB)
        with pytest.raises(ValueError, match="never bucketed"):
            validate_assignment(buckets, 4)

    def test_duplicate_parameter_detected(self):
        params = params_of_sizes(2, 2)
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=MB)
        with pytest.raises(ValueError, match="assigned to buckets"):
            validate_assignment(list(buckets) * 2, 2)

    def test_describe_renders_table(self):
        params = params_of_sizes(2, 4)
        buckets = compute_bucket_assignment(params, bucket_cap_bytes=MB)
        text = describe_assignment(buckets)
        assert "bucket" in text and "cpu" in text
