"""The ZeRO-3 runtime schedule: block units, pipelined gathers, one
gradient copy per unit (``repro.sharded.fsdp`` on the launch frontier
of ``repro.core.reducer``).

What is pinned here, beyond the parity suites of ``test_sharded.py``:

* which modules become units, and that flat models keep the per-leaf
  layout older checkpoints and ``bench_sharded`` were written under;
* the collective schedule itself, read from the flight recorder —
  ``2 × num_units`` per iteration, gathers in unit order, reduce-scatters
  in reverse, on every rank — and the constructor's coalesced broadcasts;
* that the rescheduling changed no arithmetic: bitwise against DDP at
  world 2, and at world 4 (uneven spans; there a ring's summation order
  depends on where the chunk boundaries fall, so DDP's one bucket agrees
  only to rounding, at the parent commit too) bitwise against the
  schedule written naively — synchronous, per-parameter gradients copied
  into the unit flat;
* the memory meter: its per-unit tally equals a full storage walk at
  every sample, and the backward high-water it does not sample stays
  under ``forward peak + largest unit``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, ops
from repro.autograd.engine import AccumulateGrad
from repro.comm import get_context
from repro.comm.process_group import Work
from repro.core import DistributedDataParallel
from repro.models import MLP, ConvNet, TinyTransformer
from repro.optim import SGD, Adam
from repro.sharded import (
    FlatShardLayout,
    FullyShardedDataParallel,
    ShardedDataParallel,
    ShardedOptimizer,
    load_shard_payloads,
    optimizer_state_arrays,
    select_units,
    shard_payload,
    storage_bytes,
    unit_bucket_specs,
)
from repro.utils import manual_seed

from conftest import buffered_classifier, run_world, small_classifier

_rng = np.random.default_rng(0)
TOKENS = _rng.integers(0, 32, (32, 8))
LABELS = _rng.integers(0, 2, 32)
X = _rng.standard_normal((16, 6))
Y = _rng.integers(0, 4, 16)
LOSS = nn.CrossEntropyLoss()


def _transformer(layers=2, seed=5):
    """Odd sizes everywhere: no unit divides evenly over 4 ranks."""
    manual_seed(seed)
    return TinyTransformer(
        vocab_size=32, max_seq_len=8, hidden=16, num_heads=2,
        num_layers=layers, ffn_dim=35, num_classes=2,
    )


def _adam(params):
    return Adam(params, lr=1e-2)


def _batch(rank, world):
    per = len(TOKENS) // world
    return TOKENS[rank * per:(rank + 1) * per], LABELS[rank * per:(rank + 1) * per]


def _iterate(wrapper, batch, iters=1):
    for _ in range(iters):
        wrapper.zero_grad()
        LOSS(wrapper(batch[0]), batch[1]).backward()
        wrapper.step()


def _full_state(wrapper):
    return {k: np.array(v) for k, v in wrapper.state_dict().items()}


def _unit_indices(model):
    index_of = {id(p): i for i, p in enumerate(model.parameters())}
    return [
        (name, [index_of[id(p)] for p in params]) for name, params in select_units(model)
    ]


def _per_leaf_indices(model):
    """The rule ``select_units`` replaced: every parameter-owning module
    is a unit of its own direct parameters."""
    index_of = {id(p): i for i, p in enumerate(model.parameters())}
    return [
        [index_of[id(p)] for p in sub._parameters.values()]
        for sub in model.modules() if sub._parameters
    ]


def _named_modules(module, prefix=""):
    """``(dotted path, module)`` of ``module`` and every descendant."""
    yield prefix, module
    for name, child in module._modules.items():
        yield from _named_modules(child, f"{prefix}.{name}" if prefix else name)


def _ops_since(group, mark):
    """``(op, nbytes)`` of every collective recorded after ``mark``."""
    return [(r.op, r.nbytes) for r in group.flight_recorder.records()[mark:]]


# -- unit selection ----------------------------------------------------

class _Block(nn.Module):
    def __init__(self, width, hidden):
        super().__init__()
        self.up = nn.Linear(width, hidden)
        self.down = nn.Linear(hidden, width)

    def forward(self, x):
        return self.down(self.up(x).relu())


class _Blocks(nn.Module):
    """Three blocks of different sizes, so every unit's flat is told
    apart by its byte count in the flight recorder."""

    def __init__(self):
        super().__init__()
        self.blocks = nn.ModuleList([_Block(6, h) for h in (5, 7, 9)])
        self.head = nn.Linear(6, 4)

    def forward(self, x):
        for block in self.blocks:
            x = block(x)
        return self.head(x)


class _OwnParameters(nn.Module):
    """A root that owns parameters next to a child block."""

    def __init__(self):
        super().__init__()
        self.scale = nn.Parameter(np.ones(6))
        self.block = _Block(6, 5)
        self.shift = nn.Parameter(np.zeros(6))

    def forward(self, x):
        return self.block(x * self.scale + self.shift)


class _Wrapper(nn.Module):
    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def forward(self, x):
        return self.inner(x)


class TestUnitSelection:
    def test_transformer_is_seven_blocks(self):
        units = _unit_indices(_transformer(layers=4))
        assert [name for name, _ in units] == [
            "token_embedding", "position_embedding",
            "blocks.0", "blocks.1", "blocks.2", "blocks.3", "head",
        ]
        ranges = [(indices[0], indices[-1]) for _, indices in units]
        assert ranges == [(0, 0), (1, 1), (2, 17), (18, 33), (34, 49), (50, 65), (66, 67)]
        for _, indices in units:  # each unit is one run of parameters()
            assert indices == list(range(indices[0], indices[-1] + 1))

    @pytest.mark.parametrize("build, expected", [
        (small_classifier, [("0", [0, 1]), ("2", [2, 3])]),
        (lambda: MLP(6, [8, 8], 4),
         [("body.0", [0, 1]), ("body.2", [2, 3]), ("body.4", [4, 5])]),
    ], ids=["small_classifier", "MLP"])
    def test_flat_models_keep_the_per_leaf_layout(self, build, expected):
        model = build()
        assert _unit_indices(model) == expected
        assert [indices for _, indices in expected] == _per_leaf_indices(model)

    def test_convnet_is_one_unit_per_stage(self):
        """A stage reads its conv's and batch norm's parameters in one
        node, inside its own ``forward``: the two leaves are one unit."""
        model = ConvNet(channels=2)
        assert _unit_indices(model) == [
            ("features.0", [0, 1, 2, 3]), ("features.1", [4, 5, 6, 7]),
            ("head.1", [8, 9]), ("head.3", [10, 11]),
        ]
        assert _per_leaf_indices(model)[:4] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_root_parameters_form_their_own_unit(self):
        assert _unit_indices(_OwnParameters()) == [("", [0, 5]), ("block", [1, 2, 3, 4])]
        assert _unit_indices(nn.Linear(3, 2)) == [("", [0, 1])]

    def test_single_child_wrappers_are_walked_through(self):
        wrapped = _Wrapper(_Wrapper(MLP(6, [8], 4)))  # MLP is one itself
        assert _unit_indices(wrapped) == [
            ("inner.inner.body.0", [0, 1]), ("inner.inner.body.2", [2, 3]),
        ]

    def test_a_wrapper_around_a_branching_model_makes_it_one_unit(self):
        """Only the root may branch without becoming a unit — why
        docs/sharding.md says to wrap the model itself."""
        units = _unit_indices(_Wrapper(_transformer(layers=1)))
        assert units == [("inner", list(range(20)))]

    def test_wrapper_reports_its_units(self):
        def body(rank):
            fsdp = FullyShardedDataParallel(_transformer(), _adam)
            stats = fsdp.ddp_stats()
            return stats["units"], stats["num_buckets"], fsdp.num_units

        for units, buckets, num_units in run_world(2, body, backend="gloo"):
            assert units == ["token_embedding", "position_embedding",
                             "blocks.0", "blocks.1", "head"]
            assert buckets == num_units == 5


# -- the collective schedule -------------------------------------------

class TestCollectiveSchedule:
    def test_counts_and_order_per_iteration(self, flight):
        def body(rank):
            group = get_context().default_group
            fsdp = FullyShardedDataParallel(_Blocks(), lambda ps: SGD(ps, lr=0.05))
            sizes = fsdp.ddp_stats()["bucket_sizes_bytes"]
            mark = group.flight_recorder.depth()
            per_iteration = []
            for _ in range(3):
                _iterate(fsdp, (Tensor(X[:4]), Y[:4]))
                per_iteration.append(_ops_since(group, mark))
                mark = group.flight_recorder.depth()
            return sizes, per_iteration

        for sizes, per_iteration in run_world(2, body, backend="gloo"):
            assert len(set(sizes)) == len(sizes) == 4
            expected = [("all_gather_flat", size) for size in sizes]
            expected += [("reduce_scatter_flat", size) for size in reversed(sizes)]
            assert per_iteration == [expected] * 3  # 2 × num_units, every rank

    @pytest.mark.parametrize("wrap, buffers", [
        (lambda m: FullyShardedDataParallel(m, _adam), False),
        (lambda m: FullyShardedDataParallel(m, _adam), True),
        (lambda m: ShardedDataParallel(m, _adam, bucket_cap_mb=0.0001), True),
        (lambda m: ShardedDataParallel(m, _adam), False),
    ], ids=["zero3", "zero3-buffers", "zero2-buffers", "zero2-one-bucket"])
    def test_constructor_broadcasts_one_flat_per_bucket(self, flight, wrap, buffers):
        def body(rank):
            group = get_context().default_group
            # Different weights (and running statistics) on every rank.
            model = buffered_classifier(seed=rank) if buffers else _transformer(seed=rank)
            for buffer in model.buffers():
                buffer.data += rank
            wrapper = wrap(model)
            ops = [op for op, _ in _ops_since(group, 0)]
            return ops, wrapper.layout.num_buckets, _full_state(wrapper)

        results = run_world(2, body, backend="gloo")
        reference = (buffered_classifier(seed=0) if buffers else _transformer(seed=0)).state_dict()
        for ops, num_buckets, state in results:
            assert ops == ["broadcast"] * (num_buckets + buffers)
            assert state.keys() == reference.keys()
            for name, value in reference.items():  # rank 0's, bitwise
                assert np.array_equal(state[name], value), name

    def test_one_forward_wrapper_per_unit(self):
        def body(rank):
            model = _transformer()
            fsdp = FullyShardedDataParallel(model, _adam)
            wrapped = [name for name, sub in _named_modules(model) if "forward" in vars(sub)]
            return wrapped, fsdp.ddp_stats()["units"]

        for wrapped, units in run_world(2, body, backend="gloo"):
            assert wrapped == units  # the blocks, not their 16 leaves each

    def test_unit_reading_its_childrens_parameters_directly(self):
        """A unit's forward may use its children's parameters without
        calling them (as a fused op does): the unit is gathered when its
        own forward is entered, so this trains bitwise like DDP."""

        class Direct(_Block):
            def forward(self, x):
                hidden = ops.linear(x, self.up.weight, self.up.bias).relu()
                return ops.linear(hidden, self.down.weight, self.down.bias)

        class Model(nn.Module):
            def __init__(self):
                super().__init__()
                self.block = Direct(6, 5)
                self.head = nn.Linear(6, 4)

            def forward(self, x):
                return self.head(self.block(x))

        def body(rank, sharded):
            manual_seed(3)
            model = Model()
            batch = Tensor(X[rank * 8:(rank + 1) * 8]), Y[rank * 8:(rank + 1) * 8]
            if not sharded:
                ddp = DistributedDataParallel(model)
                opt = Adam(ddp.parameters(), lr=1e-2)
                for _ in range(3):
                    opt.zero_grad()
                    LOSS(ddp(batch[0]), batch[1]).backward()
                    opt.step()
                return model.state_dict(), None
            fsdp = FullyShardedDataParallel(model, _adam)
            _iterate(fsdp, batch, iters=3)
            return _full_state(fsdp), fsdp.ddp_stats()

        baseline = run_world(2, lambda rank: body(rank, False), backend="gloo")
        sharded = run_world(2, lambda rank: body(rank, True), backend="gloo")
        for (ddp_state, _), (state, stats) in zip(baseline, sharded):
            assert stats["units"] == ["block", "head"]
            assert stats["sharded"]["gather_count"] == 3 * 2 + 2  # + state_dict()
            for name, value in ddp_state.items():
                assert np.array_equal(state[name], value), name

    def test_refuses_a_leaf_called_outside_its_block(self, flight):
        """The block's ``forward`` never runs, so its unit is never
        gathered: the forward that read its freed parameters is refused
        before backward, and leaves nothing pending."""

        class Outside(nn.Module):
            def __init__(self):
                super().__init__()
                self.block = _Block(6, 5)
                self.head = nn.Linear(6, 4)

            def forward(self, x):
                return self.head(self.block.down(self.block.up(x).relu()))

        def body(rank):
            group = get_context().default_group
            manual_seed(3)
            model = Outside()
            fsdp = FullyShardedDataParallel(model, _adam)
            with pytest.raises(RuntimeError) as raised:
                fsdp(Tensor(X[:4]))
            records = group.flight_recorder.records()
            assert [r.state for r in records] == ["completed"] * len(records)
            assert fsdp.live_bytes() == _walk_bytes(fsdp)
            return str(raised.value), fsdp._unit_flats

        for message, flats in run_world(2, body, backend="gloo"):
            assert "'block'" in message and "forward" in message
            assert flats == [None, None]  # both units freed again

    def test_skipped_unit_is_named_and_leaks_nothing(self, flight, monkeypatch):
        class Skipping(nn.Module):
            def __init__(self):
                super().__init__()
                self.first = nn.Linear(6, 6)
                self.optional = nn.Linear(6, 6)
                self.last = nn.Linear(6, 4)
                self.skip = False

            def forward(self, x):
                x = self.first(x)
                return self.last(x if self.skip else self.optional(x))

        waited = set()
        original_wait = Work.wait

        def recording_wait(self, timeout=None):
            waited.add(id(self.record))
            return original_wait(self, timeout)

        monkeypatch.setattr(Work, "wait", recording_wait)

        def body(rank, fail_first):
            group = get_context().default_group
            manual_seed(3)
            model = Skipping()
            fsdp = FullyShardedDataParallel(model, lambda ps: SGD(ps, lr=0.05))
            batch = Tensor(X[:4]), Y[:4]
            message = None
            if fail_first:
                model.skip = True
                fsdp.zero_grad()
                LOSS(fsdp(batch[0]), batch[1]).backward()
                with pytest.raises(RuntimeError) as raised:
                    fsdp.step()
                message = str(raised.value)
                records = group.flight_recorder.records()
                assert [r.state for r in records] == ["completed"] * len(records)
                assert {id(r) for r in records} <= waited  # no Work left un-waited
                assert fsdp.live_bytes() == _walk_bytes(fsdp)
                assert all(p.grad is None for p in model.parameters())
                model.skip = False
            _iterate(fsdp, batch)  # the next iteration runs
            return message, _full_state(fsdp)

        failed = run_world(2, lambda rank: body(rank, True), backend="gloo")
        clean = run_world(2, lambda rank: body(rank, False), backend="gloo")
        for (message, state), (_, clean_state) in zip(failed, clean):
            assert "FullyShardedDataParallel" in message
            assert "optional.weight" in message and "optional.bias" in message
            assert "first" not in message and "last" not in message
            # The discarded iteration left no trace in the one after it.
            for name, value in clean_state.items():
                assert np.array_equal(state[name], value), name


# -- arithmetic is unchanged -------------------------------------------

def _ddp_run(rank, world, iters=5):
    model = _transformer()
    ddp = DistributedDataParallel(model)
    opt = _adam(ddp.parameters())
    batch = _batch(rank, world)
    for _ in range(iters):
        opt.zero_grad()
        LOSS(ddp(batch[0]), batch[1]).backward()
        opt.step()
    return {k: np.array(v) for k, v in model.state_dict().items()}


def _naive_schedule_run(rank, world, iters=5):
    """The schedule this PR replaced, written out: synchronous, and with
    per-parameter gradients copied into each unit's flat at launch."""
    group = get_context().default_group
    model = _transformer()
    params = list(model.parameters())
    layout = FlatShardLayout(
        params, world,
        specs=unit_bucket_specs([indices for _, indices in _unit_indices(model)], params),
    )
    opt = ShardedOptimizer(params, _adam, layout=layout)
    batch = _batch(rank, world)
    for _ in range(iters):
        opt.zero_grad()
        LOSS(model(batch[0]), batch[1]).backward()
        for unit in reversed(range(layout.num_buckets)):
            flat = layout.empty_flat(unit)
            for index, offset, size in layout.bucket_entries(unit):
                flat[offset:offset + size] = params[index].grad.data.reshape(-1)
            opt.set_shard_grad(unit, group.reduce_scatter_flat(flat) / world)
        opt.step()
    return {k: np.array(v) for k, v in model.state_dict().items()}


def _zero3_run(rank, world, iters=5, detour=None):
    fsdp = FullyShardedDataParallel(_transformer(), _adam)
    batch = _batch(rank, world)
    for iteration in range(iters):
        _iterate(fsdp, batch)
        if detour is not None and iteration == 1:
            detour(fsdp, rank)
    return _full_state(fsdp)


def _assert_same(results, reference):
    for state, expected in zip(results, reference):
        assert state.keys() == expected.keys()
        for name, value in expected.items():
            assert np.array_equal(state[name], value), name


class TestArithmeticUnchanged:
    def test_bitwise_vs_ddp_at_world_2(self):
        ddp = run_world(2, lambda rank: _ddp_run(rank, 2), backend="gloo", timeout=30)
        zero3 = run_world(2, lambda rank: _zero3_run(rank, 2), backend="gloo", timeout=30)
        _assert_same(zero3, ddp)

    @pytest.mark.parametrize("world", [2, 4])
    def test_bitwise_vs_the_naive_schedule(self, world):
        naive = run_world(
            world, lambda rank: _naive_schedule_run(rank, world), backend="gloo", timeout=30
        )
        zero3 = run_world(
            world, lambda rank: _zero3_run(rank, world), backend="gloo", timeout=30
        )
        _assert_same(zero3, naive)

    def test_convnet_stages_train_as_under_ddp(self):
        """One unit per stage, gathered when the stage's ``forward`` is
        entered: the parameters after three Adam steps are DDP's, bit for
        bit (buffers are each rank's own under ZeRO-3)."""
        images = np.random.default_rng(4).standard_normal((8, 1, 8, 8))

        def run(rank, zero3):
            manual_seed(6)
            model = ConvNet(num_classes=2, channels=2, image_size=8)
            batch = Tensor(images[rank * 4:(rank + 1) * 4]), LABELS[rank * 4:(rank + 1) * 4]
            names = [name for name, _ in model.named_parameters()]
            if zero3:
                fsdp = FullyShardedDataParallel(model, _adam)
                _iterate(fsdp, batch, iters=3)
                state = _full_state(fsdp)
                return fsdp.ddp_stats()["units"], {name: state[name] for name in names}
            ddp = DistributedDataParallel(model)
            opt = _adam(ddp.parameters())
            for _ in range(3):
                opt.zero_grad()
                LOSS(ddp(batch[0]), batch[1]).backward()
                opt.step()
            return None, {name: model.state_dict()[name].copy() for name in names}

        ddp = run_world(2, lambda rank: run(rank, False), backend="gloo", timeout=30)
        zero3 = run_world(2, lambda rank: run(rank, True), backend="gloo", timeout=30)
        for units, _ in zero3:
            assert units == ["features.0", "features.1", "head.1", "head.3"]
        _assert_same([params for _, params in zero3], [params for _, params in ddp])

    def test_world_4_tracks_ddp_to_rounding(self):
        ddp = run_world(4, lambda rank: _ddp_run(rank, 4), backend="gloo", timeout=30)
        zero3 = run_world(4, lambda rank: _zero3_run(rank, 4), backend="gloo", timeout=30)
        for state, expected in zip(zero3, ddp):
            for name, value in expected.items():
                np.testing.assert_allclose(state[name], value, rtol=0, atol=1e-10)
        _assert_same(zero3[1:], zero3[:-1])  # replicas agree bitwise

    def test_bitwise_through_summon_state_dict_and_checkpoint(self, tmp_path):
        path = str(tmp_path / "mid.npz")

        def detour(fsdp, rank):
            with fsdp.summon_full_params(writeback=True):
                pass
            fsdp.load_state_dict(fsdp.state_dict())
            fsdp.save_training_state(path, iteration=2)
            get_context().default_group.barrier()  # rank 0 wrote it
            with fsdp.summon_full_params(writeback=True):
                for param in fsdp.module.parameters():
                    param.data[...] = 0.0  # the restore must undo this
            fsdp.optimizer.inner.state.clear()
            assert fsdp.load_training_state(path)["iteration"] == 2

        ddp = run_world(2, lambda rank: _ddp_run(rank, 2), backend="gloo", timeout=30)
        zero3 = run_world(
            2, lambda rank: _zero3_run(rank, 2, detour=detour), backend="gloo", timeout=30
        )
        _assert_same(zero3, ddp)

    def test_gradients_arrive_contiguous_and_as_views(self, monkeypatch):
        """PR 18's layout contract, with the accumulator's view path on:
        the gradient is C-contiguous on arrival, and all but the first of
        each unit (which opens the unit's flat) land inside the flat."""
        arrivals = []
        original = AccumulateGrad.accumulate

        def recording(self, grad, owned=False):
            view = self.grad_view  # where the gradient lands
            arrivals.append((grad.flags.c_contiguous,
                             view is None or view.data.flags.c_contiguous,
                             view is not None))
            original(self, grad, owned)

        monkeypatch.setattr(AccumulateGrad, "accumulate", recording)

        def body(rank):
            fsdp = FullyShardedDataParallel(_transformer(), _adam)
            batch = _batch(rank, 2)
            LOSS(fsdp(batch[0]), batch[1]).backward()
            return len(fsdp._params), fsdp.num_units

        (num_params, num_units), _ = run_world(2, body, backend="gloo")
        assert len(arrivals) == 2 * num_params
        assert all(incoming and target for incoming, target, _ in arrivals)
        assert sum(view for _, _, view in arrivals) >= 2 * (num_params - num_units)


# -- the memory meter --------------------------------------------------

def _walk_bytes(fsdp):
    """Every array the rank holds for training state, walked the slow
    way: the reference ``FullyShardedDataParallel.live_bytes`` must equal."""
    arrays = []
    for param in fsdp.module.parameters():
        arrays.append(param.data)
        if param.grad is not None:
            arrays.append(param.grad.data)
    arrays.extend(buffer.data for buffer in fsdp.module.buffers())
    arrays.extend(fsdp._unit_flats)
    arrays.extend(bucket.flat for bucket in fsdp.reducer.buckets)
    for shard in fsdp.optimizer.shards:
        arrays.append(shard.data)
        if shard.grad is not None:
            arrays.append(shard.grad.data)
    arrays.extend(optimizer_state_arrays(fsdp.optimizer.inner))
    return storage_bytes(arrays)


def _sample_at_reduce_scatter(fsdp, samples):
    """Record ``(tally, walk)`` immediately before every reduce-scatter."""
    group = fsdp.process_group
    launch = group.reduce_scatter_flat

    def sampling(*args, **kwargs):
        samples.append((fsdp.live_bytes(), _walk_bytes(fsdp)))
        return launch(*args, **kwargs)

    group.reduce_scatter_flat = sampling  # instance attribute; the group dies with the test


class TestMemoryMeter:
    @pytest.mark.parametrize("build", [_transformer, buffered_classifier],
                             ids=["transformer", "buffers"])
    def test_tally_equals_the_full_walk_at_every_sample(self, build):
        def body(rank):
            fsdp = FullyShardedDataParallel(build(), _adam)
            checked = []
            observe = fsdp.stats.observe

            def checking(nbytes):
                checked.append((nbytes, _walk_bytes(fsdp)))
                observe(nbytes)

            fsdp.stats.observe = checking
            _sample_at_reduce_scatter(fsdp, checked)
            if build is _transformer:
                batch = _batch(rank, 2)
            else:
                batch = Tensor(X[rank * 8:(rank + 1) * 8]), Y[rank * 8:(rank + 1) * 8]
            _iterate(fsdp, batch, iters=2)
            # The meter re-walks optimizer state only when an array was
            # replaced: drop the state, then load it back as new arrays.
            state = fsdp.optimizer.consolidated_state_dict()
            fsdp.optimizer.inner.state.clear()
            checked.append((fsdp.live_bytes(), _walk_bytes(fsdp)))
            fsdp.optimizer.load_consolidated_state_dict(state)
            checked.append((fsdp.live_bytes(), _walk_bytes(fsdp)))
            assert checked[-1][0] > checked[-2][0]
            with fsdp.summon_full_params():
                checked.append((fsdp.live_bytes(), _walk_bytes(fsdp)))
            checked.append((fsdp.live_bytes(), _walk_bytes(fsdp)))
            fsdp(batch[0])  # forward only: every unit stays resident
            checked.append((fsdp.live_bytes(), _walk_bytes(fsdp)))
            return checked, fsdp.num_units

        for checked, num_units in run_world(2, body, backend="gloo"):
            # Per iteration: one sample per gather, one per launch, two in step().
            assert len(checked) >= 2 * (2 * num_units + 2)
            assert all(tally == walk for tally, walk in checked)

    def test_backward_high_water_is_forward_peak_plus_one_unit(self):
        def body(rank):
            fsdp = FullyShardedDataParallel(_transformer(layers=3), _adam)
            batch = _batch(rank, 2)
            _iterate(fsdp, batch)  # Adam's state exists from here on
            samples = []
            _sample_at_reduce_scatter(fsdp, samples)
            _iterate(fsdp, batch)
            stats = fsdp.ddp_stats()
            return (
                max(walk for _, walk in samples),
                stats["sharded"]["peak_bytes_per_rank"],
                max(stats["bucket_sizes_bytes"]),
                sum(stats["bucket_sizes_bytes"]),
            )

        for high_water, metered_peak, largest_unit, full in run_world(2, body, backend="gloo"):
            # Keeping per-parameter gradients *and* the flat they are
            # copied into would read metered_peak + 2 × largest_unit here.
            assert metered_peak < high_water <= metered_peak + largest_unit
            assert largest_unit < full / 3


# -- restore across bucket layouts -------------------------------------

def _per_leaf_payload(rank, world, iters=3):
    """Train under DDP + a ZeRO-1 optimizer sharded *per leaf module* (the
    ZeRO-3 layout before units were blocks) and take the rank's payload —
    in the older format, which carried no ``param_order``."""
    model = _transformer()
    ddp = DistributedDataParallel(model)
    params = list(ddp.parameters())
    leaves = _per_leaf_indices(model)
    layout = FlatShardLayout(params, world, specs=unit_bucket_specs(leaves, params))
    opt = ShardedOptimizer(params, _adam, layout=layout)
    batch = _batch(rank, world)
    for _ in range(iters):
        opt.zero_grad()
        LOSS(ddp(batch[0]), batch[1]).backward()
        opt.set_grads_from_params()
        opt.step()
    saver = SimpleNamespace(optimizer=opt, module=model, stats=SimpleNamespace(stage="zero3"))
    arrays, meta = shard_payload(saver)
    del meta["param_order"]
    manifest = SimpleNamespace(world_size=world, meta=meta, iteration=iters)
    return (arrays, manifest), model.state_dict(), opt.consolidated_state_dict(), len(leaves)


class TestCrossLayoutRestore:
    def test_per_leaf_world_2_restores_per_block_at_world_4(self):
        saved = run_world(2, lambda rank: _per_leaf_payload(rank, 2), backend="gloo", timeout=30)
        shards = {rank: payload for rank, (payload, _, _, _) in enumerate(saved)}
        _, full_params, full_state, num_leaves = saved[0]

        def body(rank):
            fsdp = FullyShardedDataParallel(_transformer(seed=11), _adam)
            assert fsdp.num_units == 5 < num_leaves
            info = load_shard_payloads(fsdp, shards)
            return info["iteration"], _full_state(fsdp), fsdp.optimizer.consolidated_state_dict()

        for iteration, params, state in run_world(4, body, backend="gloo", timeout=30):
            assert iteration == 3
            for name, value in full_params.items():
                assert np.array_equal(params[name], value), name
            assert state["state"].keys() == full_state["state"].keys()
            for index, per_param in full_state["state"].items():
                assert set(per_param) == {"exp_avg", "exp_avg_sq", "step"}
                for key, value in per_param.items():
                    assert np.array_equal(state["state"][index][key], value), (index, key)

    def test_other_bucket_cap_restores_zero2(self):
        def save(rank):
            sdp = ShardedDataParallel(small_classifier(), _adam, bucket_cap_mb=0.0001)
            _iterate(sdp, (Tensor(X[:4]), Y[:4]), iters=2)
            arrays, meta = shard_payload(sdp)
            return (arrays, SimpleNamespace(world_size=2, meta=meta, iteration=2)), _full_state(sdp)

        saved = run_world(2, save, backend="gloo")
        shards = {rank: payload for rank, (payload, _) in enumerate(saved)}

        def restore(rank):
            sdp = ShardedDataParallel(small_classifier(seed=1), _adam)  # one 25 MB bucket
            load_shard_payloads(sdp, shards)
            return sdp.layout.num_buckets, _full_state(sdp)

        for num_buckets, state in run_world(2, restore, backend="gloo"):
            assert num_buckets == 1 < len(shards[0][1].meta["bucket_totals"])
            for name, value in saved[0][1].items():
                assert np.array_equal(state[name], value), name

    def test_a_different_parameter_order_keeps_the_named_error(self):
        def body(rank):
            zero2 = ShardedDataParallel(small_classifier(), _adam)  # reverse order
            arrays, meta = shard_payload(zero2)
            shards = {0: (arrays, SimpleNamespace(world_size=1, meta=meta, iteration=0))}
            zero3 = FullyShardedDataParallel(small_classifier(), _adam)
            with pytest.raises(ValueError, match="does not match the target"):
                load_shard_payloads(zero3, shards)
            del meta["param_order"]  # older file: bucket edges must still fit
            meta["bucket_totals"] = [100, sum(meta["bucket_totals"]) - 100]
            with pytest.raises(ValueError, match="does not match the target"):
                load_shard_payloads(zero3, shards)
            meta["num_params"] = 3
            with pytest.raises(ValueError, match="3 parameters"):
                load_shard_payloads(zero3, shards)
            return True

        assert run_world(1, body, backend="gloo") == [True]
