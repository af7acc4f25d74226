"""DistributedDataParallel: the paper's correctness guarantees."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.core import DistributedDataParallel
from repro.models import BranchedModel
from repro.optim import SGD, Adam
from repro.utils import manual_seed

from conftest import buffered_classifier, run_world, small_classifier

RNG = np.random.default_rng(5)
X8 = RNG.standard_normal((8, 6))
Y8 = RNG.integers(0, 4, 8)


def train_local(make_model, make_opt, iters=5):
    model = make_model()
    opt = make_opt(model)
    loss_fn = nn.CrossEntropyLoss()
    for _ in range(iters):
        opt.zero_grad()
        loss_fn(model(Tensor(X8)), Y8).backward()
        opt.step()
    return model.state_dict()


def train_ddp(world, make_model, make_opt, iters=5, backend="gloo", **ddp_kwargs):
    def body(rank):
        model = make_model()
        ddp = DistributedDataParallel(model, **ddp_kwargs)
        opt = make_opt(ddp)
        loss_fn = nn.CrossEntropyLoss()
        shard = slice(rank * 8 // world, (rank + 1) * 8 // world)
        for _ in range(iters):
            opt.zero_grad()
            loss_fn(ddp(Tensor(X8[shard])), Y8[shard]).backward()
            opt.step()
        return ddp.state_dict()

    return run_world(world, body, backend=backend)


def assert_states_equal(a, b, tol=1e-9):
    assert a.keys() == b.keys()
    for name in a:
        err = np.abs(a[name] - b[name]).max()
        assert err <= tol, (name, err)


class TestMathematicalEquivalence:
    """Paper §3: DDP over W ranks == local training on the full batch."""

    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_sgd_equivalence(self, world):
        make_opt = lambda m: SGD(m.parameters(), lr=0.05)
        local = train_local(small_classifier, make_opt)
        for state in train_ddp(world, small_classifier, make_opt):
            assert_states_equal(local, state)

    def test_momentum_equivalence(self):
        make_opt = lambda m: SGD(m.parameters(), lr=0.05, momentum=0.9)
        local = train_local(small_classifier, make_opt)
        for state in train_ddp(2, small_classifier, make_opt):
            assert_states_equal(local, state)

    def test_adam_equivalence(self):
        make_opt = lambda m: Adam(m.parameters(), lr=0.01)
        local = train_local(small_classifier, make_opt)
        for state in train_ddp(2, small_classifier, make_opt):
            assert_states_equal(local, state)

    @pytest.mark.parametrize("bucket_cap_mb", [0.0, 0.0001, 25.0])
    def test_equivalence_across_bucket_sizes(self, bucket_cap_mb):
        make_opt = lambda m: SGD(m.parameters(), lr=0.05)
        local = train_local(small_classifier, make_opt)
        states = train_ddp(
            2, small_classifier, make_opt, bucket_cap_mb=bucket_cap_mb
        )
        for state in states:
            assert_states_equal(local, state)

    def test_equivalence_without_overlap(self):
        make_opt = lambda m: SGD(m.parameters(), lr=0.05)
        local = train_local(small_classifier, make_opt)
        for state in train_ddp(2, small_classifier, make_opt, overlap=False):
            assert_states_equal(local, state)

    def test_equivalence_on_nccl_backend(self):
        make_opt = lambda m: SGD(m.parameters(), lr=0.05)
        local = train_local(small_classifier, make_opt)

        def make_gpu_model():
            model = small_classifier()
            return model.to("gpu:0")

        for state in train_ddp(2, make_gpu_model, make_opt, backend="nccl"):
            assert_states_equal(local, state)

    def test_replicas_stay_identical(self):
        make_opt = lambda m: SGD(m.parameters(), lr=0.1, momentum=0.8)
        states = train_ddp(4, small_classifier, make_opt, iters=3)
        for state in states[1:]:
            assert_states_equal(states[0], state, tol=0.0)


class TestConstructorBroadcast:
    def test_divergent_initial_states_are_aligned_to_rank0(self):
        def body(rank):
            manual_seed(100 + rank)  # deliberately different weights
            model = nn.Linear(3, 3)
            ddp = DistributedDataParallel(model)
            return ddp.state_dict()

        states = run_world(3, body, backend="gloo")
        for state in states[1:]:
            assert_states_equal(states[0], state, tol=0.0)

    def test_buffers_broadcast_at_construction(self):
        def body(rank):
            model = buffered_classifier()
            # perturb rank!=0 buffers before wrapping
            if rank != 0:
                for buf in model.buffers():
                    buf.data += 7.0
            ddp = DistributedDataParallel(model)
            return {n: b.data.copy() for n, b in model.named_buffers()}

        states = run_world(2, body, backend="gloo")
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name])

    def test_requires_parameters(self):
        def body(rank):
            DistributedDataParallel(nn.ReLU())

        with pytest.raises(RuntimeError, match="parameters"):
            run_world(2, body, backend="gloo", timeout=3)

    def test_requires_process_group(self):
        with pytest.raises(RuntimeError, match="process group|distributed context"):
            DistributedDataParallel(nn.Linear(2, 2))


class TestBufferSynchronization:
    def test_batchnorm_buffers_follow_rank0(self):
        """Rank 0's running stats win before every synced forward (§4.1)."""

        def body(rank):
            model = buffered_classifier()
            ddp = DistributedDataParallel(model)
            x = Tensor(X8[rank * 4 : (rank + 1) * 4])  # different data per rank
            out = ddp(x)
            out.sum().backward()
            # buffers were updated by forward from rank-0-aligned state;
            # next forward re-broadcasts, so compare AFTER another forward
            ddp(x)
            return {n: b.data.copy() for n, b in model.named_buffers()}

        states = run_world(2, body, backend="gloo")
        # after the second forward's broadcast, running stats cannot be
        # compared mid-flight; but num_batches_tracked must match rank 0
        for name in states[0]:
            if "num_batches" in name:
                assert np.array_equal(states[0][name], states[1][name])

    def test_broadcast_buffers_disabled(self):
        def body(rank):
            model = buffered_classifier()
            ddp = DistributedDataParallel(model, broadcast_buffers=False)
            for buf in model.buffers():
                buf.data[...] = float(rank)
            ddp(Tensor(X8[:4]))
            return float(next(iter(model.buffers())).data.reshape(-1)[0])

        # without broadcast, rank-local buffer values survive the forward
        results = run_world(2, body, backend="gloo")
        assert results[1] != results[0] or results[1] != 0.0


class TestNoSync:
    def test_no_sync_accumulates_locally(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            loss_fn = nn.CrossEntropyLoss()
            with ddp.no_sync():
                loss_fn(ddp(Tensor(X8[:4] + rank)), Y8[:4]).backward()
            grads = {n: p.grad.data.copy() for n, p in model.named_parameters()}
            return grads

        grads = run_world(2, body, backend="gloo")
        # ranks saw different inputs and did NOT communicate
        assert any(
            not np.allclose(grads[0][n], grads[1][n]) for n in grads[0]
        )

    def test_sync_after_no_sync_reduces_accumulated(self):
        rng = np.random.default_rng(0)
        xa, xb = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        ya, yb = rng.integers(0, 4, 4), rng.integers(0, 4, 4)

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            loss_fn = nn.CrossEntropyLoss(reduction="sum")
            with ddp.no_sync():
                (loss_fn(ddp(Tensor(xa if rank == 0 else xb)), ya if rank == 0 else yb)).backward()
            (loss_fn(ddp(Tensor(xb if rank == 0 else xa)), yb if rank == 0 else ya)).backward()
            return {n: p.grad.data.copy() for n, p in model.named_parameters()}

        grads = run_world(2, body, backend="gloo")
        # both ranks processed {xa,xb} in different order; averaged
        # accumulated gradients must be identical
        for name in grads[0]:
            assert np.allclose(grads[0][name], grads[1][name], atol=1e-9)

    def test_will_sync_flag(self):
        def body(rank):
            ddp = DistributedDataParallel(small_classifier())
            flags = [ddp.will_sync]
            with ddp.no_sync():
                flags.append(ddp.will_sync)
            flags.append(ddp.will_sync)
            return flags

        assert run_world(2, body, backend="gloo")[0] == [True, False, True]


class TestUnusedParameters:
    def test_same_branch_on_all_ranks(self):
        def body(rank):
            manual_seed(4)
            model = BranchedModel()
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            loss_fn = nn.CrossEntropyLoss()
            x = Tensor(RNG.standard_normal((4, 8)))
            y = np.zeros(4, dtype=np.int64)
            loss_fn(ddp(x, branch=0), y).backward()
            used = all(p.grad is not None for p in model.branches[0].parameters())
            unused = all(p.grad is None for p in model.branches[1].parameters())
            return used, unused

        assert run_world(2, body, backend="gloo") == [(True, True)] * 2

    def test_divergent_branches_across_ranks(self):
        def body(rank):
            manual_seed(4)
            model = BranchedModel()
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            x = Tensor(np.ones((2, 8)))
            nn.CrossEntropyLoss()(ddp(x, branch=rank), np.zeros(2, dtype=np.int64)).backward()
            return [
                all(p.grad is not None for p in branch.parameters())
                for branch in model.branches
            ]

        results = run_world(2, body, backend="gloo")
        # branches 0 and 1 each used on one rank => globally used on both
        assert results[0][:2] == [True, True]
        assert results[1][:2] == [True, True]
        # branch 2 used nowhere => grads stay None everywhere
        assert results[0][2] is False and results[1][2] is False

    def test_half_used_gradient_is_halved_average(self):
        """A parameter used on 1 of 2 ranks averages grad with zero."""

        def body(rank):
            manual_seed(4)
            model = BranchedModel(num_branches=2)
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            x = Tensor(np.ones((2, 8)))
            nn.CrossEntropyLoss()(ddp(x, branch=rank), np.zeros(2, dtype=np.int64)).backward()
            return {n: p.grad.data.copy() if p.grad is not None else None
                    for n, p in model.named_parameters()}

        grads = run_world(2, body, backend="gloo")
        # both ranks agree on every gradient (averaged)
        for name in grads[0]:
            a, b = grads[0][name], grads[1][name]
            assert (a is None) == (b is None)
            if a is not None:
                assert np.allclose(a, b)

    def test_hang_detected_without_find_unused(self):
        def body(rank):
            manual_seed(4)
            model = BranchedModel()
            ddp = DistributedDataParallel(model, find_unused_parameters=False)
            x = Tensor(np.ones((2, 8)))
            nn.CrossEntropyLoss()(ddp(x, branch=0), np.zeros(2, dtype=np.int64)).backward()
            ddp(x, branch=0)  # next forward detects unfinished reduction

        with pytest.raises(RuntimeError, match="finished gradient reduction|timed out"):
            run_world(2, body, backend="gloo", timeout=3)

    def test_no_sync_accumulates_usage_bitmap(self):
        """A branch used only inside no_sync still counts as used at the
        next synchronization (paper §3.2.4)."""

        def body(rank):
            manual_seed(4)
            model = BranchedModel(num_branches=2)
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            x = Tensor(np.ones((2, 8)))
            y = np.zeros(2, dtype=np.int64)
            loss_fn = nn.CrossEntropyLoss()
            with ddp.no_sync():
                loss_fn(ddp(x, branch=1), y).backward()  # branch 1 used here only
            loss_fn(ddp(x, branch=0), y).backward()
            return all(p.grad is not None for p in model.branches[1].parameters())

        assert run_world(2, body, backend="gloo") == [True, True]


class _TiedLinears(nn.Module):
    """Two layers sharing one weight: registered under both names,
    listed once by ``named_parameters()``."""

    def __init__(self):
        super().__init__()
        manual_seed(3)
        self.a = nn.Linear(6, 6)
        self.b = nn.Linear(6, 6)
        self.b.weight = self.a.weight

    def forward(self, x):
        return self.b(self.a(x).tanh())


class TestTiedParameters:
    @pytest.mark.parametrize("as_view", [True, False])
    def test_shared_weight_gets_the_averaged_gradient(self, as_view):
        local = _TiedLinears()
        (local(Tensor(X8)).sum() / 2).backward()
        expected = {name: p.grad.data.copy() for name, p in local.named_parameters()}

        def body(rank):
            model = _TiedLinears()
            ddp = DistributedDataParallel(model, gradient_as_bucket_view=as_view)
            ddp(Tensor(X8[rank * 4 : rank * 4 + 4])).sum().backward()
            grads = {name: p.grad.data.copy() for name, p in model.named_parameters()}
            return len(ddp.reducer.params), grads

        for count, grads in run_world(2, body, backend="gloo"):
            assert count == 3  # a.weight, a.bias, b.bias
            for name, value in expected.items():
                np.testing.assert_allclose(grads[name], value, atol=1e-12, err_msg=name)

    def test_module_lists_a_tied_weight_once(self):
        model = nn.Sequential(nn.Linear(3, 3), nn.Linear(3, 3))
        model[1].weight = model[0].weight
        assert model.num_parameters() == 15
        assert [name for name, _ in model.named_parameters()] == [
            "0.weight", "0.bias", "1.bias"
        ]
        SGD(model.parameters(), lr=0.1)  # one group: no duplicate
        state = model.state_dict()
        assert list(state) == ["0.weight", "0.bias", "1.weight", "1.bias"]
        model.load_state_dict(state)

    def test_ddp_world2_is_bitwise_local_sgd(self):
        """Both ranks train on the local batch, so the average of the two
        gradients is the local gradient bit for bit: any double count or
        lost contribution of the tied weight shows as a difference."""
        make_opt = lambda m: SGD(m.parameters(), lr=0.05, momentum=0.9)
        local = _TiedLinears()
        opt = make_opt(local)
        for _ in range(3):
            opt.zero_grad()
            local(Tensor(X8)).tanh().sum().backward()
            opt.step()

        def body(rank):
            ddp = DistributedDataParallel(_TiedLinears())
            opt = make_opt(ddp)
            for _ in range(3):
                opt.zero_grad()
                ddp(Tensor(X8)).tanh().sum().backward()
                opt.step()
            return ddp.state_dict()

        for state in run_world(2, body, backend="gloo"):
            assert state.keys() == local.state_dict().keys()
            for name, value in local.state_dict().items():
                np.testing.assert_array_equal(state[name], value, err_msg=name)

    def test_zero3_keeps_its_error_for_a_tie(self):
        from repro.sharded import FullyShardedDataParallel

        def body(rank):
            with pytest.raises(NotImplementedError, match="b.weight"):
                FullyShardedDataParallel(_TiedLinears(), lambda ps: SGD(ps, lr=0.1))
            return True

        assert run_world(2, body, backend="gloo") == [True, True]


class TestTransparency:
    def test_state_dict_passthrough(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            return set(ddp.state_dict()) == set(model.state_dict())

        assert all(run_world(2, body, backend="gloo"))

    def test_parameters_are_the_module_parameters(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            return all(
                a is b for a, b in zip(ddp.parameters(), model.parameters())
            )

        assert all(run_world(2, body, backend="gloo"))

    def test_repr(self):
        def body(rank):
            ddp = DistributedDataParallel(small_classifier())
            return repr(ddp)

        text = run_world(2, body, backend="gloo")[0]
        assert "world=2" in text and "buckets=" in text

    def test_forward_kwargs_passthrough(self):
        def body(rank):
            manual_seed(4)
            ddp = DistributedDataParallel(
                BranchedModel(), find_unused_parameters=True
            )
            out = ddp(Tensor(np.ones((2, 8))), branch=1)
            return out.shape

        assert run_world(2, body, backend="gloo") == [(2, 4)] * 2
