"""Collective algorithms over the transport, all world sizes."""

import threading
import time

import numpy as np
import pytest

from conftest import run_world
from repro.comm import algorithms as alg
from repro.comm import get_context
from repro.comm.process_group import _allgather
from repro.comm.transport import TransportHub

WORLD_SIZES = [1, 2, 3, 4, 5, 7, 8]


def run_ranks(world, fn, timeout=10.0, hub=None):
    """``fn(hub, rank)`` on ``world`` threads; per-rank results + the hub
    (a fresh ``TransportHub`` unless one is passed in)."""
    hub = hub or TransportHub(world, default_timeout=timeout)
    results = [None] * world
    errors = []

    def worker(rank):
        try:
            results[rank] = fn(hub, rank)
        except Exception as exc:  # noqa: BLE001
            errors.append((rank, exc))

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(world)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout * 2)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return results, hub


@pytest.mark.parametrize("world", WORLD_SIZES)
@pytest.mark.parametrize("algorithm", sorted(alg.ALLREDUCE_ALGORITHMS))
class TestAllReduceSum:
    def test_sum_matches(self, world, algorithm):
        rng = np.random.default_rng(world)
        inputs = [rng.standard_normal(17) for _ in range(world)]
        expected = np.sum(inputs, axis=0)
        fn = alg.ALLREDUCE_ALGORITHMS[algorithm]

        def body(hub, rank):
            buf = inputs[rank].copy()
            fn(hub, list(range(world)), rank, buf, "sum", tag="t")
            return buf

        results, _ = run_ranks(world, body)
        for out in results:
            assert np.allclose(out, expected)


@pytest.mark.parametrize("world", [2, 3, 4, 5])
@pytest.mark.parametrize("op", ["sum", "avg"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestReplicaEquality:
    """The paper's correctness argument needs every replica to end an
    AllReduce with the *same bits*, not merely close ones."""

    def _inputs(self, world, dtype):
        rng = np.random.default_rng(100 + world)
        # Mixed magnitudes make float addition order-sensitive.
        return [
            (rng.standard_normal(257) * 10.0 ** rng.integers(-3, 4, 257)).astype(dtype)
            for _ in range(world)
        ]

    @pytest.mark.parametrize("algorithm", sorted(alg.ALLREDUCE_ALGORITHMS))
    def test_all_ranks_end_with_identical_bytes(self, world, op, dtype, algorithm):
        inputs = self._inputs(world, dtype)
        fn = alg.ALLREDUCE_ALGORITHMS[algorithm]

        def body(hub, rank):
            buf = inputs[rank].copy()
            fn(hub, list(range(world)), rank, buf, op, tag="t")
            return buf

        results, _ = run_ranks(world, body)
        assert np.allclose(results[0], np.sum(inputs, axis=0) / (world if op == "avg" else 1),
                           rtol=1e-3 if dtype is np.float32 else 1e-9, atol=1e-3)
        for out in results[1:]:
            assert out.tobytes() == results[0].tobytes()

    def test_naive_is_the_rank_ordered_sum(self, world, op, dtype):
        inputs = self._inputs(world, dtype)
        expected = inputs[0].copy()
        for contribution in inputs[1:]:
            expected += contribution
        if op == "avg":
            expected /= world
        sent = [buf.copy() for buf in inputs]

        def body(hub, rank):
            alg.allreduce_naive(hub, list(range(world)), rank, sent[rank], op, tag="t")
            return sent[rank]

        results, hub = run_ranks(world, body)
        for out in results:
            assert out.tobytes() == expected.tobytes()
        # One round: a whole-buffer message to each peer, nothing else.
        assert hub.messages_sent == [world - 1] * world
        assert hub.bytes_sent == [(world - 1) * inputs[0].nbytes] * world

    @pytest.mark.parametrize("last", [False, True], ids=["root0", "rootlast"])
    def test_reduce_is_the_tree_ordered_result(self, world, op, dtype, last):
        """The standalone reduce is allreduce_tree's reduce phase, eager."""
        root, inputs = world - 1 if last else 0, self._inputs(world, dtype)
        bufs = [x.copy() for x in inputs]
        _, hub = run_ranks(world, lambda hub, rank: alg.reduce(
            hub, list(range(world)), rank, bufs[rank], root, op, "t"))
        expected = tree_reduced(inputs, root, np.add, world if op == "avg" else 1)
        assert bufs[root].tobytes() == expected.tobytes()
        assert hub.messages_sent == REDUCE_MSGS[world, root]

    def test_allgather_rows_are_the_inputs(self, world, op, dtype):
        inputs = self._inputs(world, dtype)
        results, hub = run_ranks(world, lambda hub, rank: _allgather(
            hub, list(range(world)), rank, inputs[rank], "t", None, None))
        for out in results:
            assert out.tobytes() == np.stack(inputs).tobytes()
        assert hub.messages_sent == ALLGATHER_MSGS[world]


def tree_reduced(inputs, root, fn, divisor=1):
    """numpy binomial-tree reduce to ``root``: virtual rank v = (rank − root) mod p
    folds in v + mask at round mask; ``divisor`` (``avg``) divides at the end."""
    world = len(inputs)
    partial = [inputs[(v + root) % world].copy() for v in range(world)]
    mask = 1
    while mask < world:
        for v in range(0, world - mask, 2 * mask):
            partial[v] = fn(partial[v], partial[v + mask])
        mask <<= 1
    return partial[0] / divisor if divisor > 1 else partial[0]


#: (world, root) -> messages per rank of a small reduce: a non-root sends once.
REDUCE_MSGS = {
    (1, 0): [0], (2, 0): [0, 1], (2, 1): [1, 0], (3, 0): [0, 1, 1], (3, 2): [1, 1, 0],
    (4, 0): [0, 1, 1, 1], (4, 3): [1, 1, 1, 0], (5, 0): [0, 1, 1, 1, 1], (5, 4): [1, 1, 1, 1, 0],
}
#: world -> messages per rank of an allgather under RENDEZVOUS_BYTES: p − 1 steps.
ALLGATHER_MSGS = {1: [0], 2: [1, 1], 3: [2, 2, 2], 4: [3, 3, 3, 3], 5: [4, 4, 4, 4, 4]}


@pytest.mark.parametrize("op,reduce_fn", [
    ("max", np.maximum.reduce),
    ("min", np.minimum.reduce),
    ("prod", lambda arrs: np.prod(arrs, axis=0)),
])
def test_allreduce_other_ops(op, reduce_fn):
    world = 4
    rng = np.random.default_rng(0)
    inputs = [rng.uniform(0.5, 2.0, 9) for _ in range(world)]
    expected = reduce_fn(inputs)

    def body(hub, rank):
        buf = inputs[rank].copy()
        alg.allreduce_ring(hub, list(range(world)), rank, buf, op, tag="t")
        return buf

    results, _ = run_ranks(world, body)
    for out in results:
        assert np.allclose(out, expected)


def test_allreduce_bor_integer_bitmaps():
    """The DDP unused-parameter bitmap path: integer OR across ranks."""
    world = 3
    maps = [np.array([1, 0, 0, 1]), np.array([0, 1, 0, 1]), np.array([0, 0, 0, 0])]

    def body(hub, rank):
        buf = maps[rank].astype(np.int32)
        alg.allreduce_naive(hub, list(range(world)), rank, buf, "bor", tag="t")
        return buf

    results, _ = run_ranks(world, body)
    for out in results:
        assert np.array_equal(out, [1, 1, 0, 1])


def test_unknown_op_raises():
    hub = TransportHub(1)
    with pytest.raises(ValueError, match="unknown reduce op"):
        alg.allreduce_ring(hub, [0], 0, np.zeros(3), "bogus")


@pytest.mark.parametrize("algorithm", sorted(alg.ALLREDUCE_ALGORITHMS))
def test_registry_entries_run_on_their_defaults(algorithm):
    """Every entry is callable with the four required arguments alone
    (``allreduce_tree`` used to default ``op`` to its tag, ``"tree"``)."""
    fn = alg.ALLREDUCE_ALGORITHMS[algorithm]

    def body(hub, rank):
        buf = np.full(5, float(rank + 1))
        fn(hub, [0, 1, 2], rank, buf)
        return buf

    results, _ = run_ranks(3, body)
    for out in results:
        assert np.array_equal(out, np.full(5, 6.0))


# ----------------------------------------------------------------------
# in-place collectives write through the buffer they were given
# ----------------------------------------------------------------------
def _c_contiguous(rank):
    return np.full((4, 6), float(rank + 1))


def _sliced(rank):
    """Rows of a larger array: ``reshape(-1)`` is still a view."""
    return np.full((6, 6), float(rank + 1))[1:5]


def _strided(rank):
    """Every other element: a 1-D view that is not contiguous."""
    return np.full(48, float(rank + 1))[::2]


def _transposed(rank):
    """``base.T``: no 1-D view exists, ``reshape(-1)`` has to copy."""
    return np.full((6, 4), float(rank + 1)).T


def _inplace_allreduce(name, **extra):
    def call(hub, ranks, rank, buf):
        alg.ALLREDUCE_ALGORITHMS[name](hub, ranks, rank, buf, "sum", "t", **extra)
        return 6.0  # 1 + 2 + 3

    return call


def _inplace_broadcast(hub, ranks, rank, buf):
    alg.broadcast(hub, ranks, rank, buf, 1, "t")
    return 2.0


def _inplace_reduce(hub, ranks, rank, buf):
    alg.reduce(hub, ranks, rank, buf, 0, "sum", "t")
    return 6.0 if rank == 0 else None  # non-roots hold partial sums


def _inplace_all_gather(hub, ranks, rank, buf):
    alg.all_gather_into_flat(hub, ranks, rank, buf, None, "t")
    return np.repeat([1.0, 2.0, 3.0], 8).reshape(buf.shape)


INPLACE = {name: _inplace_allreduce(name) for name in sorted(alg.ALLREDUCE_ALGORITHMS)}
INPLACE["hierarchical_g2"] = _inplace_allreduce("hierarchical", group_size=2)
INPLACE.update(broadcast=_inplace_broadcast, reduce=_inplace_reduce,
               all_gather_into_flat=_inplace_all_gather)


@pytest.mark.parametrize("lend", [False, True], ids=["eager", "lent"])
@pytest.mark.parametrize("layout", [_c_contiguous, _sliced, _strided, _transposed])
@pytest.mark.parametrize("collective", list(INPLACE))
def test_inplace_collectives_write_through_any_layout(collective, layout, lend, monkeypatch):
    """The result lands in the caller's array whatever its strides.  For a
    transposed view the algorithms used to reduce a private flattened copy
    and write it into a second temporary: the call returned with the
    caller's data unchanged and raised nothing."""
    monkeypatch.setattr(alg, "RENDEZVOUS_BYTES", 0 if lend else 1 << 62)

    def body(hub, rank):
        buf = layout(rank)
        expected = INPLACE[collective](hub, [0, 1, 2], rank, buf)
        return buf, expected

    results, hub = run_ranks(3, body)
    for buf, expected in results:
        if expected is not None:
            assert np.array_equal(buf, np.broadcast_to(expected, buf.shape))
    assert hub.pending_messages() == 0


class TestRingProperties:
    def test_message_count_is_2p_minus_2(self):
        world = 5

        def body(hub, rank):
            buf = np.zeros(25)
            alg.allreduce_ring(hub, list(range(world)), rank, buf, "sum", tag="t")
            return None

        _, hub = run_ranks(world, body)
        assert hub.messages_sent == [2 * (world - 1)] * world

    def test_buffer_smaller_than_world(self):
        """Fewer elements than ranks still reduces correctly."""
        world = 6
        inputs = [np.array([float(r)]) for r in range(world)]

        def body(hub, rank):
            buf = inputs[rank].copy()
            alg.allreduce_ring(hub, list(range(world)), rank, buf, "sum", tag="t")
            return buf

        results, _ = run_ranks(world, body)
        for out in results:
            assert np.allclose(out, 15.0)

    def test_2d_buffer_supported(self):
        world = 3

        def body(hub, rank):
            buf = np.full((2, 4), float(rank))
            alg.allreduce_ring(hub, list(range(world)), rank, buf, "sum", tag="t")
            return buf

        results, _ = run_ranks(world, body)
        for out in results:
            assert np.allclose(out, 3.0)


class TestBroadcast:
    @pytest.mark.parametrize("world", WORLD_SIZES)
    @pytest.mark.parametrize("root_offset", [0, 1])
    def test_all_ranks_receive_root_value(self, world, root_offset):
        root = root_offset % world
        payload = np.arange(11.0)

        def body(hub, rank):
            buf = payload.copy() if rank == root else np.zeros(11)
            alg.broadcast(hub, list(range(world)), rank, buf, root=root, tag="t")
            return buf

        results, _ = run_ranks(world, body)
        for out in results:
            assert np.array_equal(out, payload)


class TestAllGatherReduceScatter:
    @pytest.mark.parametrize("world", [1, 2, 4, 5])
    def test_allgather(self, world):
        inputs = [np.full(3, float(r)) for r in range(world)]
        results = run_world(world, lambda rank: get_context().default_group.allgather(
            inputs[rank].copy()), backend="gloo")
        for out in results:
            assert np.array_equal(out, np.stack(inputs))

    def test_barrier_completes(self):
        """The group barrier (a one-element split-phase AllReduce) lets
        no rank through before the last one arrived."""
        def body(rank):
            time.sleep(0.02 * rank)
            arrived = time.perf_counter()
            get_context().default_group.barrier()
            return arrived, time.perf_counter()

        stamps = run_world(4, body, backend="gloo")
        assert min(left for _, left in stamps) >= max(arrived for arrived, _ in stamps)


class TestSubgroupRanks:
    def test_collectives_over_global_rank_subset(self):
        """Algorithms operate on arbitrary global-rank lists (sub-groups)."""
        world = 4
        members = [1, 3]

        def body(hub, rank):
            if rank not in members:
                return None
            me = members.index(rank)
            buf = np.full(4, float(rank))
            alg.allreduce_ring(hub, members, me, buf, "sum", tag="sub")
            return buf

        results, _ = run_ranks(world, body)
        assert results[0] is None and results[2] is None
        assert np.allclose(results[1], 4.0)
        assert np.allclose(results[3], 4.0)
