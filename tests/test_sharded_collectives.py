"""The flat sharding collectives: ``ProcessGroup.reduce_scatter_flat`` /
``all_gather_flat`` (and ``allgather``, the same exchange into rows).

Each is one round on the calling thread at every size: the call posts
this rank's copies, ``wait()`` lands the result.  Covered here:

* worlds 1–5 with odd (non-divisible) element counts, including sizes
  smaller than the world (empty spans on some ranks);
* the span convention: rank ``r`` owns ``partition_spans`` span ``r``,
  so reduce-scatter → all-gather round-trips to the allreduce result;
* ``shard=``, 2-D and non-contiguous tensors;
* Works waited in any order, and a wire with seeded delays — both
  bitwise equal to the plain run;
* the ``ProcessGroup`` exposure, sync and async.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.comm import algorithms as alg
from repro.comm import get_context
from repro.resilience import FaultPlan, delay

from conftest import run_world

WORLDS_1_TO_5 = [1, 2, 3, 4, 5]
ODD_SIZES = [1, 3, 17, 97]


def _inputs(world, size, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(size) for _ in range(world)]


def _run(world, body, **kwargs):
    """``body(group, rank)`` on ``world`` rank threads with a gloo group."""
    return run_world(world, lambda rank: body(get_context().default_group, rank),
                     backend="gloo", timeout=15.0, **kwargs)


class TestReduceScatterFlat:
    @pytest.mark.parametrize("world", WORLDS_1_TO_5)
    @pytest.mark.parametrize("size", ODD_SIZES)
    def test_returns_owned_span_of_the_sum(self, world, size):
        inputs = _inputs(world, size, world * 1000 + size)
        expected = np.sum(inputs, axis=0)
        spans = alg.partition_spans(size, world)
        outs = _run(world, lambda pg, me: pg.reduce_scatter_flat(inputs[me].copy()))
        for me, out in enumerate(outs):
            lo, hi = spans[me]
            assert out.shape == (hi - lo,)
            np.testing.assert_allclose(out, expected[lo:hi], rtol=1e-9)

    @pytest.mark.parametrize("op", ["max", "min", "prod"])
    def test_non_sum_ops(self, op):
        world, size = 3, 17
        inputs = _inputs(world, size, 7)
        reduced = {
            "max": np.max(inputs, axis=0),
            "min": np.min(inputs, axis=0),
            "prod": np.prod(inputs, axis=0),
        }[op]
        spans = alg.partition_spans(size, world)
        outs = _run(world, lambda pg, me: pg.reduce_scatter_flat(inputs[me].copy(), op))
        for me, out in enumerate(outs):
            lo, hi = spans[me]
            np.testing.assert_allclose(out, reduced[lo:hi], rtol=1e-9)

    def test_does_not_mutate_the_input(self):
        world = 3
        inputs = _inputs(world, 17, 3)

        def body(pg, me):
            buf = inputs[me].copy()
            pg.reduce_scatter_flat(buf)
            return np.array_equal(buf, inputs[me])

        assert all(_run(world, body))

    def test_size_smaller_than_world_gives_empty_spans(self):
        world, size = 5, 3
        inputs = _inputs(world, size, 11)
        expected = np.sum(inputs, axis=0)
        outs = _run(world, lambda pg, me: pg.reduce_scatter_flat(inputs[me].copy()))
        for me, (lo, hi) in enumerate(alg.partition_spans(size, world)):
            assert outs[me].shape == (hi - lo,)
            np.testing.assert_allclose(outs[me], expected[lo:hi], rtol=1e-9)
        assert sum(o.size for o in outs) == size


class TestAllGatherIntoFlat:
    @pytest.mark.parametrize("world", WORLDS_1_TO_5)
    @pytest.mark.parametrize("size", ODD_SIZES)
    def test_every_rank_ends_with_all_spans(self, world, size):
        rng = np.random.default_rng(world * 31 + size)
        reference = rng.standard_normal(size)
        spans = alg.partition_spans(size, world)

        def body(pg, me):
            lo, hi = spans[me]
            buf = np.zeros(size)
            buf[lo:hi] = reference[lo:hi]  # only my span is populated
            pg.all_gather_flat(buf)
            return buf

        for out in _run(world, body):
            np.testing.assert_allclose(out, reference, rtol=1e-12)

    def test_shard_argument_is_the_contribution(self, world=4, size=53):
        rng = np.random.default_rng(9)
        reference = rng.standard_normal(size)
        spans = alg.partition_spans(size, world)

        def body(pg, me):
            lo, hi = spans[me]
            buf = np.full(size, np.nan)  # stale garbage everywhere
            pg.all_gather_flat(buf, shard=reference[lo:hi].copy())
            return buf

        for out in _run(world, body):
            np.testing.assert_allclose(out, reference, rtol=1e-12)

    def test_shard_size_mismatch_raises(self):
        """At the call, before a sequence number is spent: the group
        stays in step."""
        def body(pg, me):
            with pytest.raises(ValueError, match="shard has 9 elements .* holds 5"):
                pg.all_gather_flat(np.zeros(10), np.zeros(9), async_op=True)
            seq = pg._seq
            x = np.ones(2)
            pg.allreduce(x)
            return seq, x.tolist()

        assert _run(2, body) == [(0, [2.0, 2.0])] * 2

    def test_round_trips_with_reduce_scatter(self):
        """reduce_scatter → all_gather(shard=...) == allreduce: the span
        conventions of the two collectives agree."""
        world, size = 4, 29
        inputs = _inputs(world, size, 17)
        expected = np.sum(inputs, axis=0)

        def body(pg, me):
            span = pg.reduce_scatter_flat(inputs[me].copy())
            full = np.zeros(size)
            pg.all_gather_flat(full, shard=span)
            return full

        for out in _run(world, body):
            np.testing.assert_allclose(out, expected, rtol=1e-9)


def _script(pg, rank, reverse=False):
    """Reduce-scatters (sum and avg) and all-gathers over uneven, empty,
    2-D and non-contiguous buffers, all issued async, then waited — in
    issue order or the reverse; returns every result's bytes."""
    world, rng = pg.size, np.random.default_rng([rank, 5])
    works, outs = [], []
    for size in (1, world - 1, 23, 4 * 6):
        x = rng.standard_normal(size)
        if size == 24:  # a transposed (non-contiguous) 2-D view
            x = x.reshape(4, 6).T
        for op in ("sum", "avg"):
            works.append(pg.reduce_scatter_flat(x, op, async_op=True))
        lo, hi = alg.partition_spans(x.size, world)[rank]
        gathered = np.full(x.shape, np.nan)
        works.append(pg.all_gather_flat(gathered, shard=x.reshape(-1)[lo:hi] * 2, async_op=True))
        filled = x.copy(order="K")  # x stays lent to the reduce-scatters
        works.append(pg.all_gather_flat(filled, async_op=True))
        works.append(pg.allgather(x, async_op=True))
        outs += [gathered, filled]
    for work in reversed(works) if reverse else works:
        work.wait()
    results = [work.result[0] for work in works if work.result[0] is not None]
    return [out.tobytes() for out in results + outs]


class TestGroupConformance:
    @pytest.mark.parametrize("world", [1, 2, 3, 4])
    def test_any_wait_order_lands_the_same_bits(self, world):
        """Every post goes out at issue, so ranks may complete their Works
        in opposite orders without waiting on each other."""
        forward = _run(world, lambda pg, rank: _script(pg, rank))
        assert _run(world, lambda pg, rank: _script(pg, rank, reverse=rank % 2 == 0)) == forward
        for rank_bytes in forward[1:]:  # every rank gathered the same buffers
            assert rank_bytes[-8:] == forward[0][-8:]

    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_faulty_wire_equals_fault_free_bitwise(self, world):
        plain = _run(world, lambda pg, rank: _script(pg, rank))
        plan = FaultPlan([delay(0.001, probability=0.2)], seed=world)
        got = _run(world, lambda pg, rank: _script(pg, rank, reverse=rank == 1),
                   fault_plan=plan)
        assert got == plain
        assert plan.total_triggered() > 0


class TestProcessGroupExposure:
    def test_sync_reduce_scatter_flat(self):
        def body(rank):
            pg = get_context().default_group
            t = Tensor(np.full(10, float(rank + 1)))
            span = pg.reduce_scatter_flat(t)
            lo, hi = alg.partition_spans(10, 2)[rank]
            np.testing.assert_allclose(span, np.full(hi - lo, 3.0))
            return True

        assert all(run_world(2, body, backend="gloo"))

    def test_all_gather_flat_fills_in_place(self):
        def body(rank):
            pg = get_context().default_group
            size = 11
            spans = alg.partition_spans(size, 3)
            lo, hi = spans[rank]
            t = Tensor(np.zeros(size))
            t.data[lo:hi] = rank + 1.0
            pg.all_gather_flat(t)
            expected = np.zeros(size)
            for r, (slo, shi) in enumerate(spans):
                expected[slo:shi] = r + 1.0
            np.testing.assert_allclose(t.data, expected)
            return True

        assert all(run_world(3, body, backend="gloo"))

    def test_collectives_are_instrumented(self):
        """Flight-recorder/telemetry sees the new ops like existing ones:
        bytes accounted, ops named in the group's metrics."""

        def body(rank):
            pg = get_context().default_group
            before = pg.bytes_communicated
            t = Tensor(np.ones(16))
            pg.reduce_scatter_flat(t)
            pg.all_gather_flat(t)
            return pg.bytes_communicated - before

        deltas = run_world(2, body, backend="gloo")
        assert all(delta == 2 * 16 * 8 for delta in deltas)
