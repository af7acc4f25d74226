"""The flat sharding collectives: reduce_scatter_flat / all_gather_into_flat.

Mirrors ``tests/test_hotpath.py``'s chunked-collective coverage for the
two primitives the ZeRO stages ride on:

* worlds 1–5 with odd (non-divisible) element counts, including sizes
  smaller than the world (empty spans on some ranks);
* chunked pipelining — results invariant to chunk size, message counts
  scale with the chunk count;
* the span convention: rank ``r`` owns ``partition_spans`` span ``r``,
  so reduce-scatter → all-gather round-trips to the allreduce result;
* the ``ProcessGroup`` exposure, sync and async.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.comm import algorithms as alg
from repro.comm import get_context

from conftest import run_world
from test_hotpath import _run_ranks

WORLDS_1_TO_5 = [1, 2, 3, 4, 5]
ODD_SIZES = [1, 3, 17, 97]


def _inputs(world, size, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(size) for _ in range(world)]


class TestReduceScatterFlat:
    @pytest.mark.parametrize("world", WORLDS_1_TO_5)
    @pytest.mark.parametrize("size", ODD_SIZES)
    def test_returns_owned_span_of_the_sum(self, world, size):
        inputs = _inputs(world, size, world * 1000 + size)
        expected = np.sum(inputs, axis=0)
        spans = alg.partition_spans(size, world)

        def body(hub, ranks, me):
            return alg.reduce_scatter_flat(
                hub, ranks, me, inputs[me].copy(), "sum", "rs", 15.0, 40
            )

        for me, out in enumerate(_run_ranks(world, body)):
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

        def body(hub, ranks, me):
            return alg.reduce_scatter_flat(
                hub, ranks, me, inputs[me].copy(), op, "rs", 15.0
            )

        for me, out in enumerate(_run_ranks(world, body)):
            lo, hi = spans[me]
            np.testing.assert_allclose(out, reduced[lo:hi], rtol=1e-9)

    @pytest.mark.parametrize("chunk_bytes", [8, 24, 100, 10**9])
    def test_chunk_size_never_changes_result(self, chunk_bytes):
        world, size = 4, 53
        inputs = _inputs(world, size, chunk_bytes % 997)
        expected = np.sum(inputs, axis=0)
        spans = alg.partition_spans(size, world)

        def body(hub, ranks, me):
            return alg.reduce_scatter_flat(
                hub, ranks, me, inputs[me].copy(), "sum", "rs", 15.0, chunk_bytes
            )

        for me, out in enumerate(_run_ranks(world, body)):
            lo, hi = spans[me]
            np.testing.assert_allclose(out, expected[lo:hi], rtol=1e-9)

    def test_does_not_mutate_the_input(self):
        world = 3
        inputs = _inputs(world, 17, 3)

        def body(hub, ranks, me):
            buf = inputs[me].copy()
            alg.reduce_scatter_flat(hub, ranks, me, buf, "sum", "rs", 15.0)
            return np.array_equal(buf, inputs[me])

        assert all(_run_ranks(world, body))

    def test_chunking_multiplies_message_count(self):
        """25 fp64 elements, world 5 → 5-element spans; 16-byte chunks
        (2 elements) → 3 chunks per span → 3·(p−1) sends per rank, the
        reduce-scatter half of the ring allreduce's message count."""
        world = 5
        counts = {}

        def body(hub, ranks, me):
            alg.reduce_scatter_flat(hub, ranks, me, np.ones(25), "sum", "rs", 15.0, 16)
            counts[me] = hub.messages_sent[me]

        _run_ranks(world, body)
        assert all(count == 3 * (world - 1) for count in counts.values())

    def test_size_smaller_than_world_gives_empty_spans(self):
        world, size = 5, 3
        inputs = _inputs(world, size, 11)
        expected = np.sum(inputs, axis=0)

        def body(hub, ranks, me):
            return alg.reduce_scatter_flat(
                hub, ranks, me, inputs[me].copy(), "sum", "rs", 15.0
            )

        outs = _run_ranks(world, body)
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

        def body(hub, ranks, me):
            lo, hi = spans[me]
            buf = np.zeros(size)
            buf[lo:hi] = reference[lo:hi]  # only my span is populated
            alg.all_gather_into_flat(hub, ranks, me, buf, None, "ag", 15.0, 40)
            return buf

        for out in _run_ranks(world, body):
            np.testing.assert_allclose(out, reference, rtol=1e-12)

    def test_shard_argument_is_the_contribution(self, world=4, size=53):
        rng = np.random.default_rng(9)
        reference = rng.standard_normal(size)
        spans = alg.partition_spans(size, world)

        def body(hub, ranks, me):
            lo, hi = spans[me]
            buf = np.full(size, np.nan)  # stale garbage everywhere
            alg.all_gather_into_flat(
                hub, ranks, me, buf, reference[lo:hi].copy(), "ag", 15.0
            )
            return buf

        for out in _run_ranks(world, body):
            np.testing.assert_allclose(out, reference, rtol=1e-12)

    def test_shard_size_mismatch_raises(self):
        def body(hub, ranks, me):
            try:
                alg.all_gather_into_flat(
                    hub, ranks, me, np.zeros(10), np.zeros(9), "ag", 15.0
                )
            except ValueError as exc:
                hub.close()
                return str(exc)
            return None

        results = _run_ranks(2, body)
        assert any(r and "elements" in r for r in results)

    def test_round_trips_with_reduce_scatter(self):
        """reduce_scatter → all_gather(shard=...) == allreduce: the span
        conventions of the two collectives agree."""
        world, size = 4, 29
        inputs = _inputs(world, size, 17)
        expected = np.sum(inputs, axis=0)

        def body(hub, ranks, me):
            span = alg.reduce_scatter_flat(
                hub, ranks, me, inputs[me].copy(), "sum", "rs", 15.0
            )
            full = np.zeros(size)
            alg.all_gather_into_flat(hub, ranks, me, full, span, "ag", 15.0)
            return full

        for out in _run_ranks(world, body):
            np.testing.assert_allclose(out, expected, rtol=1e-9)


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
