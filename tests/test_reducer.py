"""Reducer internals: pending counts, launch order, error paths."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.core import DistributedDataParallel
from repro.core.bucket import compute_bucket_assignment
from repro.core.reducer import Reducer, ReducerError
from repro.nn.module import Parameter
from repro.utils import manual_seed

from conftest import run_world, small_classifier


class RecordingGroup:
    """A fake process group that records collective launches."""

    def __init__(self, size=2):
        self.size = size
        self.calls = []
        self.supports_cpu_tensors = True

    def allreduce(self, tensor, op="sum", async_op=False):
        data = tensor.data if hasattr(tensor, "data") else tensor
        self.calls.append(("allreduce", data, op))
        # emulate a world where the peer contributes the same values:
        # their sum is size × ours, their average is ours unchanged
        if op != "avg":
            data *= self.size

        class _W:
            def wait(self, timeout=None):
                pass

        return _W() if async_op else None


def make_reducer(sizes=(4, 4, 4), cap_bytes=10**9, **kwargs):
    params = [Parameter(np.zeros(s)) for s in sizes]
    specs = compute_bucket_assignment(params, bucket_cap_bytes=cap_bytes)
    group = RecordingGroup()
    reducer = Reducer(params, specs, group, **kwargs)
    return params, reducer, group


class TestLifecycle:
    def test_hooks_drive_reduction(self):
        params, reducer, group = make_reducer()
        reducer.prepare_for_backward([])
        loss = sum(((p * 1.0) ** 2).sum() for p in params) + (params[0] * 1.0).sum()
        loss.backward()
        assert reducer.finalized
        assert len([c for c in group.calls if c[0] == "allreduce"]) == 1

    def test_gradients_averaged(self):
        params, reducer, group = make_reducer()
        reducer.prepare_for_backward([])
        (sum((p * 2.0).sum() for p in params)).backward()
        # local grad = 2; the fake group averages two identical ranks
        for p in params:
            assert np.allclose(p.grad.data, 2.0)

    def test_double_prepare_without_finish_raises(self):
        params, reducer, group = make_reducer()
        reducer.prepare_for_backward([])
        with pytest.raises(ReducerError, match="finished gradient reduction"):
            reducer.prepare_for_backward([])

    def test_iterations_counted(self):
        params, reducer, group = make_reducer()
        for _ in range(3):
            reducer.prepare_for_backward([])
            sum((p * 1.0).sum() for p in params).backward()
        assert reducer.iterations_synced == 3

    def test_hooks_idle_when_not_prepared(self):
        params, reducer, group = make_reducer()
        sum((p * 1.0).sum() for p in params).backward()
        assert group.calls == []  # no communication outside an iteration

    def test_detach_hooks(self):
        params, reducer, group = make_reducer()
        reducer.detach_hooks()
        reducer.prepare_for_backward([])
        sum((p * 1.0).sum() for p in params).backward()
        assert group.calls == []


class TestLaunchOrder:
    def test_buckets_launch_in_index_order(self):
        """Even though bucket 1 (early layers) could be ready late,
        launches always follow bucket index order (Fig. 3(a))."""

        def body(rank):
            manual_seed(0)
            model = small_classifier()
            ddp = DistributedDataParallel(model, bucket_cap_mb=0.0001)
            pg = ddp.process_group
            x = Tensor(np.random.default_rng(rank).standard_normal((4, 6)))
            nn.CrossEntropyLoss()(ddp(x), np.zeros(4, dtype=np.int64)).backward()
            launched = [b.launched for b in ddp.reducer.buckets]
            return launched

        results = run_world(2, body, backend="gloo")
        assert all(all(flags) for flags in results)

    def test_out_of_order_readiness_is_held_back(self):
        """Mark a later bucket ready first; it must not launch before
        earlier buckets."""
        params, reducer, group = make_reducer(sizes=(4, 4), cap_bytes=4 * 8)
        reducer.prepare_for_backward([])
        # bucket 0 holds param 1 (reverse order); bucket 1 holds param 0.
        # Fire param 0 (bucket 1) first:
        (params[0] * 1.0).sum().backward()
        assert len(group.calls) == 0  # held back
        (params[1] * 1.0).sum().backward()
        assert len(group.calls) == 2  # both launched, in order


class TestUnusedHandling:
    def test_unused_params_contribute_zeros(self):
        params, reducer, group = make_reducer(find_unused_parameters=True)
        # only param 0 participates
        out = (params[0] * 3.0).sum()
        reducer.prepare_for_backward([out])
        out.backward()
        assert reducer.finalized
        # grads of unused params stay None (globally unused with fake pg
        # summing the local bitmap only)
        assert params[1].grad is None
        assert params[2].grad is None
        assert params[0].grad is not None

    def test_bitmap_reset_after_sync(self):
        params, reducer, group = make_reducer(find_unused_parameters=True)
        out = (params[0] * 3.0).sum()
        reducer.prepare_for_backward([out])
        out.backward()
        assert np.all(reducer._local_used == 0)

    def test_over_ready_detected(self):
        params, reducer, group = make_reducer(find_unused_parameters=True)
        out = (params[0] * 3.0).sum()
        reducer.prepare_for_backward([out])
        out.backward()
        # firing again in the same "iteration" is an over-count
        reducer.prepare_for_backward([out])
        reducer._mark_ready(0, unused=False)
        with pytest.raises(ReducerError, match="over-counted|marked ready twice"):
            reducer._mark_ready(0, unused=False)


class TestRebuild:
    def test_invalid_assignment_rejected(self):
        params, reducer, group = make_reducer()
        with pytest.raises(ValueError):
            Reducer(params, [], RecordingGroup())


class TestNoOverlapMode:
    def test_no_overlap_defers_launches(self):
        params, reducer, group = make_reducer(cap_bytes=4 * 8, overlap=False)
        reducer.prepare_for_backward([])
        (params[2] * 1.0).sum().backward()
        assert group.calls == []  # bucket 0 ready but deferred
        (params[1] * 1.0).sum().backward()
        (params[0] * 1.0).sum().backward()
        assert len(group.calls) == 3  # all launched at the end, then waited
        assert reducer.finalized
