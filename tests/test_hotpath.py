"""Hot-path overhaul: zero-copy buckets, layout cache, chunked collectives.

Covers the acceptance criteria of the flat-bucket data path:

* after backward, each parameter's ``.grad`` aliases its bucket's flat
  buffer (no gather copy on launch, no write-back copy on finalize);
* steady-state iterations perform zero layout allocations, and a
  graph change invalidates the cache, rebuilds, and stays numerically
  identical;
* chunked ring/halving-doubling match ``allreduce_naive`` on odd
  sizes, non-divisible chunk counts, and world sizes 1–5;
* ``REPRO_CHUNK_BYTES`` sets the default chunk size, and a value that is
  not a positive integer fails the import by name.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.comm import algorithms as alg
from repro.comm.transport import TransportHub
from repro.core import DistributedDataParallel
from repro.core.bucket import (
    BucketLayoutCache,
    cached_bucket_assignment,
    compute_bucket_assignment,
)
from repro.core.reducer import Reducer
from repro.nn.module import Parameter
from repro.optim import SGD
from repro.utils import manual_seed

from conftest import run_world, small_classifier
from test_reducer import RecordingGroup, make_reducer


def _run_ranks(world, fn, timeout=15.0):
    """Run ``fn(hub, ranks, me)`` on plain threads (no process group)."""
    import threading

    hub = TransportHub(world, default_timeout=timeout)
    ranks = list(range(world))
    results = [None] * world
    errors = []

    def body(rank):
        try:
            results[rank] = fn(hub, ranks, rank)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
            hub.close()

    threads = [threading.Thread(target=body, args=(r,), daemon=True) for r in ranks]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout * 2)
    if errors:
        raise errors[0]
    return results


class TestZeroCopyViews:
    def test_grad_aliases_bucket_after_backward(self):
        params, reducer, group = make_reducer()
        reducer.prepare_for_backward([])
        sum((p * 2.0).sum() for p in params).backward()
        assert reducer.finalized
        for index, param in enumerate(params):
            position, slot = reducer._locator[index]
            bucket = reducer.buckets[position]
            assert param.grad is not None
            assert np.shares_memory(param.grad.data, bucket.flat)

    def test_no_copies_on_hot_path(self):
        params, reducer, group = make_reducer()
        for _ in range(3):
            reducer.prepare_for_backward([])
            sum((p * 2.0).sum() for p in params).backward()
        assert reducer.grad_copy_count == 0
        assert reducer.zero_copy_hits == 3 * len(params)

    def test_copy_mode_matches_view_mode_numerically(self):
        grads = {}
        for view in (False, True):
            params, reducer, group = make_reducer(gradient_as_bucket_view=view)
            reducer.prepare_for_backward([])
            sum(((p + 1.0) ** 2).sum() for p in params).backward()
            grads[view] = [p.grad.data.copy() for p in params]
            if not view:
                for p in params:
                    position, slot = reducer._locator[0]
                    assert not np.shares_memory(
                        p.grad.data, reducer.buckets[position].flat
                    )
        for a, b in zip(grads[False], grads[True]):
            np.testing.assert_allclose(a, b)

    def test_zero_grad_then_next_iteration_realiases(self):
        params, reducer, group = make_reducer()
        reducer.prepare_for_backward([])
        sum((p * 2.0).sum() for p in params).backward()
        for p in params:
            p.grad = None  # optimizer.zero_grad()
        reducer.prepare_for_backward([])
        sum((p * 3.0).sum() for p in params).backward()
        for index, param in enumerate(params):
            position, _ = reducer._locator[index]
            assert np.shares_memory(param.grad.data, reducer.buckets[position].flat)
            assert np.allclose(param.grad.data, 3.0)

    def test_detach_hooks_privatizes_gradients(self):
        params, reducer, group = make_reducer()
        reducer.prepare_for_backward([])
        sum((p * 2.0).sum() for p in params).backward()
        reducer.detach_hooks()
        for index, param in enumerate(params):
            position, _ = reducer._locator[index]
            assert not np.shares_memory(param.grad.data, reducer.buckets[position].flat)
            assert np.allclose(param.grad.data, 2.0)

    def test_ddp_end_to_end_zero_copy(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 6))
        Y = rng.integers(0, 4, 8)

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model, bucket_cap_mb=0.001)
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(2):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            stats = ddp.ddp_stats()
            aliasing = all(
                np.shares_memory(p.grad.data, b.flat)
                for p in ddp.reducer.params
                for b in [ddp.reducer.buckets[ddp.reducer._locator[
                    ddp.reducer.params.index(p)][0]]]
            )
            return stats["grad_copy_count"], stats["zero_copy_hits"], aliasing

        results = run_world(2, body, backend="gloo")
        for copies, hits, aliasing in results:
            assert copies == 0
            assert hits > 0
            assert aliasing

    def test_view_and_copy_mode_training_identical(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((8, 6))
        Y = rng.integers(0, 4, 8)

        def train(view):
            def body(rank):
                model = small_classifier()
                ddp = DistributedDataParallel(
                    model, bucket_cap_mb=0.001, gradient_as_bucket_view=view
                )
                opt = SGD(ddp.parameters(), lr=0.05)
                loss_fn = nn.CrossEntropyLoss()
                shard = slice(rank * 4, (rank + 1) * 4)
                for _ in range(3):
                    opt.zero_grad()
                    loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                    opt.step()
                return ddp.state_dict()

            return run_world(2, body, backend="gloo")

        with_view = train(True)
        without = train(False)
        for name in with_view[0]:
            np.testing.assert_allclose(with_view[0][name], without[0][name])

    def test_globally_unused_gradient_survives_zero_fill(self):
        """§3.2.3: a parameter unused on *every* rank keeps its gradient,
        even though its (aliased) bucket slot was zeroed and reduced."""
        params, reducer, group = make_reducer(
            sizes=(4, 4), find_unused_parameters=True
        )
        # Iteration 1: both params used; grads alias bucket slots, and
        # the finalize's bitmap AllReduce consumes the usage record.
        out1 = sum((p * 2.0).sum() for p in params)
        reducer.prepare_for_backward([out1])
        out1.backward()
        kept = params[1].grad.data.copy()
        # Iteration 2: param 1 unused everywhere (fake group's bitmap
        # allreduce just scales the local bitmap, so unused stays 0).
        out = (params[0] * 2.0).sum()
        reducer.prepare_for_backward([out])
        out.backward()
        assert reducer.finalized
        np.testing.assert_allclose(params[1].grad.data, kept)


class TestLayoutCache:
    def test_same_signature_hits_cache(self):
        cache = BucketLayoutCache()
        params_a = [Parameter(np.zeros(4)), Parameter(np.zeros((2, 3)))]
        params_b = [Parameter(np.ones(4)), Parameter(np.ones((2, 3)))]
        first = cache.get(params_a, 1024)
        second = cache.get(params_b, 1024)  # same shapes → same layout
        assert first is second
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_graph_change_misses_cache(self):
        cache = BucketLayoutCache()
        cache.get([Parameter(np.zeros(4))], 1024)
        cache.get([Parameter(np.zeros(5))], 1024)
        cache.get([Parameter(np.zeros(4))], 2048)
        assert cache.stats()["misses"] == 3
        cache.invalidate()
        assert len(cache) == 0

    def test_cached_assignment_matches_computed(self):
        params = [Parameter(np.zeros(7)), Parameter(np.zeros((3, 2)))]
        assert cached_bucket_assignment(params, 64) == compute_bucket_assignment(
            params, 64
        )

    def test_steady_state_zero_layout_allocations(self):
        params, reducer, group = make_reducer()
        baseline = reducer.layout_allocations
        for _ in range(4):
            reducer.prepare_for_backward([])
            sum((p * 1.0).sum() for p in params).backward()
        assert reducer.layout_allocations == baseline

    def test_identical_rebuild_is_noop(self):
        params, reducer, group = make_reducer(sizes=(4, 4, 4))
        specs = compute_bucket_assignment(params, bucket_cap_bytes=10**9)
        buckets_before = reducer.buckets
        allocs_before = reducer.layout_allocations
        reducer.rebuild_buckets(specs)
        assert reducer.buckets is buckets_before
        assert reducer.layout_allocations == allocs_before
        assert reducer.noop_rebuild_count == 1
        assert reducer.rebuilt_bucket_count == 1

    def test_rebuild_after_graph_change_identical_results(self):
        """Graph change → rebuild → results identical to a fresh layout."""
        params, reducer, group = make_reducer(sizes=(4, 4, 4), cap_bytes=40)
        reducer.prepare_for_backward([])
        sum((p * 2.0).sum() for p in params).backward()
        new_specs = compute_bucket_assignment(params, bucket_cap_bytes=10**9)
        reducer.rebuild_buckets(new_specs)
        assert reducer.rebuilt_bucket_count == 1
        assert reducer.noop_rebuild_count == 0
        for p in params:
            p.grad = None  # optimizer.zero_grad() between iterations
        reducer.prepare_for_backward([])
        sum((p * 3.0).sum() for p in params).backward()
        for index, param in enumerate(params):
            assert np.allclose(param.grad.data, 3.0)
            position, _ = reducer._locator[index]
            assert np.shares_memory(param.grad.data, reducer.buckets[position].flat)

    def test_rebuild_migrates_live_gradients(self):
        params, reducer, group = make_reducer(sizes=(4, 4), cap_bytes=40)
        reducer.prepare_for_backward([])
        sum((p * 2.0).sum() for p in params).backward()
        values = [p.grad.data.copy() for p in params]
        reducer.rebuild_buckets(compute_bucket_assignment(params, 10**9))
        for param, value in zip(params, values):
            np.testing.assert_allclose(param.grad.data, value)


WORLDS_1_TO_5 = [1, 2, 3, 4, 5]
ODD_SIZES = [1, 3, 17, 97]
CHUNKED_ALGOS = [alg.allreduce_ring, alg.allreduce_halving_doubling, alg.allreduce_tree]


class TestChunkedCollectives:
    @pytest.mark.parametrize("world", WORLDS_1_TO_5)
    @pytest.mark.parametrize("size", ODD_SIZES)
    @pytest.mark.parametrize("fn", CHUNKED_ALGOS, ids=lambda f: f.__name__)
    def test_matches_naive_on_odd_sizes(self, world, size, fn):
        rng = np.random.default_rng(world * 100 + size)
        inputs = [rng.standard_normal(size) for _ in range(world)]

        def chunked(hub, ranks, me):
            buf = inputs[me].copy()
            # 40-byte chunks: 5 fp64 elements → non-divisible chunk
            # counts for every odd size here.
            fn(hub, ranks, me, buf, "sum", "t", 15.0, 40)
            return buf

        def naive(hub, ranks, me):
            buf = inputs[me].copy()
            alg.allreduce_naive(hub, ranks, me, buf, "sum", "n", 15.0)
            return buf

        chunked_out = _run_ranks(world, chunked)
        naive_out = _run_ranks(world, naive)
        for mine, reference in zip(chunked_out, naive_out):
            np.testing.assert_allclose(mine, reference, rtol=1e-9)

    @pytest.mark.parametrize("chunk_bytes", [8, 24, 100, 10**9])
    def test_chunk_size_never_changes_result(self, chunk_bytes):
        world, size = 4, 53
        rng = np.random.default_rng(chunk_bytes % 1000)
        inputs = [rng.standard_normal(size) for _ in range(world)]
        expected = np.sum(inputs, axis=0)

        def body(hub, ranks, me):
            buf = inputs[me].copy()
            alg.allreduce_ring(hub, ranks, me, buf, "sum", "t", 15.0, chunk_bytes)
            return buf

        for out in _run_ranks(world, body):
            np.testing.assert_allclose(out, expected, rtol=1e-9)

    def test_chunking_multiplies_message_count(self):
        """25 fp64 elements, world 5 → 5-element segments; 2-element
        chunks (16 bytes) → 3 chunks per segment → 3·2(p−1) messages."""
        world = 5
        hub_counts = {}

        def body(hub, ranks, me):
            buf = np.ones(25)
            alg.allreduce_ring(hub, ranks, me, buf, "sum", "t", 15.0, 16)
            hub_counts[me] = hub.messages_sent[me]
            return buf

        _run_ranks(world, body)
        assert all(count == 3 * 2 * (world - 1) for count in hub_counts.values())

    def test_default_chunking_keeps_small_buffers_single_message(self):
        world = 5

        def body(hub, ranks, me):
            buf = np.ones(25)
            alg.allreduce_ring(hub, ranks, me, buf, "sum", "t", 15.0)
            return hub.messages_sent[me]

        counts = _run_ranks(world, body)
        assert counts == [2 * (world - 1)] * world

    def test_partition_spans_matches_array_split(self):
        for total, parts in [(12, 4), (13, 4), (3, 5), (0, 3), (25, 5)]:
            spans = alg.partition_spans(total, parts)
            reference = np.array_split(np.arange(total), parts)
            assert len(spans) == parts
            for (lo, hi), ref in zip(spans, reference):
                np.testing.assert_array_equal(np.arange(lo, hi), ref)

    @pytest.mark.parametrize("value", ["4096", "1", "0", "-5", "1MiB", ""])
    def test_chunk_bytes_env_is_parsed_or_refused(self, value):
        """Read once at import: an integer ≥ 1 becomes the default; anything
        else raises a ValueError naming the variable and the value instead
        of quietly becoming 1 MiB (garbage) or 1-byte chunks (0)."""
        env = {**os.environ, "REPRO_CHUNK_BYTES": value,
               "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
        code = "from repro.comm import algorithms; print(algorithms.DEFAULT_CHUNK_BYTES)"
        probe = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=60)
        if value in ("4096", "1"):
            assert (probe.returncode, probe.stdout.split()) == (0, [value]), probe.stderr
        else:
            assert f"ValueError: REPRO_CHUNK_BYTES={value!r}" in probe.stderr


# ----------------------------------------------------------------------
# One parameter flat per bucket, stepped as one array.
#
# ``Shadow`` (tests/test_optim.py) steps copies of the parameters with
# the per-parameter reference loops inside every ``optimizer.step()``
# and asserts bitwise agreement, so each test below only has to drive a
# training loop through the situation it names.
# ----------------------------------------------------------------------
from repro.models import BranchedModel  # noqa: E402
from repro.optim import Adam, AdamW  # noqa: E402
from repro.sharded import (  # noqa: E402
    FullyShardedDataParallel,
    ShardedDataParallel,
    ShardedOptimizer,
    measure_ddp_bytes,
)
from test_optim import Shadow, runs_of  # noqa: E402

_frng = np.random.default_rng(11)
FX = _frng.standard_normal((16, 6))
FY = _frng.integers(0, 4, 16)

FLAT_OPTIMIZERS = {
    "sgd_nesterov_wd": lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01,
                                      nesterov=True),
    "sgd_momentum": lambda ps: SGD(ps, lr=0.05, momentum=0.9),
    "adam_wd": lambda ps: Adam(ps, lr=0.01, weight_decay=0.01),
    "adamw_wd": lambda ps: AdamW(ps, lr=0.01, weight_decay=0.01),
    # Two groups with different learning rates inside one bucket.
    "adam_two_groups": lambda ps: (lambda ps: Adam(
        [{"params": ps[:2], "lr": 0.02}, {"params": ps[2:], "lr": 0.001}]
    ))(list(ps)),
}


def _iterate(forward, optimizer, rank, steps, before=None):
    loss_fn = nn.CrossEntropyLoss()
    shard = slice(rank * 8, (rank + 1) * 8)
    for step in range(steps):
        if before is not None:
            before(step)
        optimizer.zero_grad()
        loss_fn(forward(Tensor(FX[shard])), FY[shard]).backward()
        optimizer.step()


class TestParameterFlats:
    def test_parameters_are_views_of_a_flat_laid_out_like_the_gradients(self):
        def body(rank):
            model = small_classifier()
            before = [p.data.copy() for p in model.parameters()]
            ddp = DistributedDataParallel(model, bucket_cap_mb=0.0005)
            assert len(ddp.reducer.buckets) > 1
            for bucket in ddp.reducer.buckets:
                assert bucket.param_flat.shape == bucket.flat.shape
                spec = bucket.spec
                for index, offset, size in zip(spec.param_indices, spec.offsets, spec.sizes):
                    param = ddp.reducer.params[index]
                    window = bucket.param_flat[offset : offset + size]
                    assert np.shares_memory(param.data, window)
                    assert param.data.tobytes() == window.tobytes()
            for param, value in zip(model.parameters(), before):
                assert param.data.tobytes() == value.tobytes()
            return True

        assert all(run_world(2, body, backend="gloo"))

    def test_copy_mode_leaves_parameters_alone(self):
        def body(rank):
            model = small_classifier()
            arrays = [p.data for p in model.parameters()]
            ddp = DistributedDataParallel(model, gradient_as_bucket_view=False)
            assert all(b.param_flat is None for b in ddp.reducer.buckets)
            return all(p.data is a for p, a in zip(model.parameters(), arrays))

        assert all(run_world(2, body, backend="gloo"))

    @pytest.mark.parametrize("as_view", [True, False])
    def test_measure_ddp_bytes_is_what_it_was(self, as_view):
        """Flats hold the same elements the scattered arrays held: view
        mode params + gradient flats + two Adam moments, copy mode one
        more set of gradients — to the byte."""

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model, gradient_as_bucket_view=as_view)
            optimizer = Adam(ddp.parameters(), lr=0.01)
            _iterate(ddp, optimizer, rank, 2)
            return measure_ddp_bytes(ddp, optimizer)

        param_bytes = sum(p.data.nbytes for p in small_classifier().parameters())
        expected = (4 if as_view else 5) * param_bytes
        assert run_world(2, body, backend="gloo") == [expected] * 2


class TestFlatStepUnderDDP:
    @pytest.mark.parametrize("name", sorted(FLAT_OPTIMIZERS))
    @pytest.mark.parametrize("as_view", [True, False])
    def test_ddp_step_is_the_reference_loop_bitwise(self, name, as_view):
        def body(rank):
            ddp = DistributedDataParallel(
                small_classifier(), gradient_as_bucket_view=as_view
            )
            optimizer = FLAT_OPTIMIZERS[name](ddp.parameters())
            shadow = Shadow.attach(optimizer)
            _iterate(ddp, optimizer, rank, 5)
            assert shadow.steps == 5
            return runs_of(optimizer), ddp.state_dict()

        results = run_world(2, body, backend="gloo")
        runs = results[0][0]
        if not as_view:
            assert all(group == [] for group in runs)
        elif name == "adam_two_groups":
            assert runs == [[2], [2]]
        else:
            assert runs == [[4]]  # the whole bucket is one array
        for key, value in results[0][1].items():
            assert value.tobytes() == results[1][1][key].tobytes()

    @pytest.mark.parametrize("name", ["sgd_nesterov_wd", "adam_wd", "adamw_wd"])
    @pytest.mark.parametrize("stage", ["zero1", "zero2", "zero3"])
    def test_sharded_inner_step_is_the_reference_loop_bitwise(self, stage, name):
        """ZeRO's inner optimizer sees 1-D shards: same kernel, and the
        result tracks DDP's as closely as it did."""
        factory = FLAT_OPTIMIZERS[name]

        def sharded(rank):
            model = small_classifier()
            if stage == "zero1":
                forward = DistributedDataParallel(model, bucket_cap_mb=0.0005)
                sharded_opt = ShardedOptimizer(list(forward.parameters()), factory)

                def step():
                    sharded_opt.set_grads_from_params()
                    sharded_opt.step()

                zero_grad, state = sharded_opt.zero_grad, model.state_dict
            else:
                wrapper = {"zero2": ShardedDataParallel, "zero3": FullyShardedDataParallel}
                kwargs = {"bucket_cap_mb": 0.0005} if stage == "zero2" else {}
                forward = wrapper[stage](model, factory, **kwargs)
                sharded_opt = forward.optimizer
                step, zero_grad, state = forward.step, forward.zero_grad, forward.state_dict
            shadow = Shadow.attach(sharded_opt.inner)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 8, (rank + 1) * 8)
            for _ in range(5):
                zero_grad()
                loss_fn(forward(Tensor(FX[shard])), FY[shard]).backward()
                step()
            assert shadow.steps == 5
            return {k: np.asarray(v).copy() for k, v in state().items()}

        def replicated(rank):
            ddp = DistributedDataParallel(small_classifier())
            optimizer = factory(ddp.parameters())
            _iterate(ddp, optimizer, rank, 5)
            return ddp.state_dict()

        for ours, theirs in zip(run_world(2, sharded, backend="gloo"),
                                run_world(2, replicated, backend="gloo")):
            for key in theirs:
                np.testing.assert_allclose(ours[key], theirs[key], rtol=1e-9, atol=1e-12)

    def test_unused_parameter_splits_the_run_for_that_step(self):
        def body(rank):
            manual_seed(4)
            model = BranchedModel(num_branches=2)
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            optimizer = Adam(ddp.parameters(), lr=0.01)
            shadow = Shadow.attach(optimizer)
            loss_fn = nn.CrossEntropyLoss()
            x, y = Tensor(np.ones((2, 8)) * (rank + 1)), np.zeros(2, dtype=np.int64)
            seen = []
            for branch in (0, 0, 1, 1):  # the other branch is unused on every rank
                optimizer.zero_grad()
                loss_fn(ddp(x, branch=branch), y).backward()
                optimizer.step()
                seen.append(runs_of(optimizer))
                unused = model.branches[1 - branch]
                assert all(p.grad is None for p in unused.parameters())
            assert shadow.steps == 4
            return seen

        seen = run_world(2, body, backend="gloo")[0]
        assert all(sum(group) == 4 for (group,) in seen)  # 6 parameters, 2 unused

    def test_data_rebound_mid_training(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            optimizer = Adam(ddp.parameters(), lr=0.01)
            shadow = Shadow.attach(optimizer)
            victim = list(model.parameters())[1]

            def before(step):
                if step == 2:
                    victim.data = victim.data.copy()

            _iterate(ddp, optimizer, rank, 5, before)
            assert shadow.steps == 5
            assert optimizer.state_for(victim)["step"] == 5
            return runs_of(optimizer)

        # b2 W2 | b1 (rebound) | W1: one run of two is left.
        assert run_world(2, body, backend="gloo")[0] == [[2]]

    @pytest.mark.parametrize("relayout", ["rebuild_buckets", "set_bucket_cap_mb"])
    @pytest.mark.parametrize("name", ["sgd_momentum", "adam_wd"])
    def test_relayout_mid_training_keeps_the_moments(self, name, relayout):
        """A re-bucket (order prediction, or the autotuner applying a
        new cap) re-homes every parameter; the optimizer's state follows
        it into the new flats."""

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            optimizer = FLAT_OPTIMIZERS[name](ddp.parameters())
            shadow = Shadow.attach(optimizer)
            snapshots = []

            def before(step):
                if step != 3:
                    return
                snapshots.append(optimizer.state_dict())
                if relayout == "rebuild_buckets":
                    ddp.reducer.rebuild_buckets(compute_bucket_assignment(
                        list(ddp.parameters()), bucket_cap_bytes=600
                    ))
                else:
                    ddp.set_bucket_cap_mb(600 / (1024 * 1024))
                assert len(ddp.reducer.buckets) > 1
                snapshots.append(optimizer.state_dict())

            _iterate(ddp, optimizer, rank, 6, before)
            assert shadow.steps == 6
            held, kept = snapshots
            for index in held["state"]:
                for key, value in held["state"][index].items():
                    assert np.asarray(kept["state"][index][key]).tobytes() == \
                        np.asarray(value).tobytes()
            return runs_of(optimizer), ddp.state_dict()

        results = run_world(2, body, backend="gloo")
        assert sum(results[0][0][0]) >= 2  # still stepping runs, now per bucket
        for key, value in results[0][1].items():
            assert value.tobytes() == results[1][1][key].tobytes()

    def test_no_sync_accumulation(self):
        def body(rank):
            ddp = DistributedDataParallel(small_classifier())
            optimizer = Adam(ddp.parameters(), lr=0.01)
            shadow = Shadow.attach(optimizer)
            loss_fn = nn.CrossEntropyLoss()
            for step in range(3):
                optimizer.zero_grad()
                with ddp.no_sync():
                    micro = slice(rank * 4, rank * 4 + 4)
                    loss_fn(ddp(Tensor(FX[micro])), FY[micro]).backward()
                micro = slice(8 + rank * 4, 12 + rank * 4)
                loss_fn(ddp(Tensor(FX[micro])), FY[micro]).backward()
                optimizer.step()
            assert shadow.steps == 3
            return runs_of(optimizer), ddp.state_dict()

        results = run_world(2, body, backend="gloo")
        assert results[0][0] == [[4]]
        for key, value in results[0][1].items():
            assert value.tobytes() == results[1][1][key].tobytes()

    def test_detach_hooks_leaves_a_usable_module(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            optimizer = Adam(ddp.parameters(), lr=0.01)
            shadow = Shadow.attach(optimizer)
            _iterate(ddp, optimizer, rank, 2)
            flats = [bucket.param_flat for bucket in ddp.reducer.buckets]
            values = [p.data.copy() for p in model.parameters()]
            ddp.reducer.detach_hooks()
            for param, value in zip(model.parameters(), values):
                assert param.data.tobytes() == value.tobytes()
                assert not any(np.shares_memory(param.data, flat) for flat in flats)
            _iterate(model, optimizer, rank, 2)  # plain local training now
            assert shadow.steps == 4
            assert optimizer.state_for(next(iter(model.parameters())))["step"] == 4
            return runs_of(optimizer)

        assert run_world(2, body, backend="gloo") == [[[]]] * 2

    def test_optimizer_built_before_the_wrap_finds_the_flats(self):
        def body(rank):
            model = small_classifier()
            optimizer = Adam(model.parameters(), lr=0.01)
            shadow = Shadow.attach(optimizer)
            _iterate(model, optimizer, 0, 2)  # same data on every rank
            assert runs_of(optimizer) == [[]]
            ddp = DistributedDataParallel(model)
            _iterate(ddp, optimizer, rank, 3)
            assert shadow.steps == 5
            return runs_of(optimizer)

        assert run_world(2, body, backend="gloo") == [[[4]]] * 2
