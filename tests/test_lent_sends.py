"""Lent (rendezvous) sends and the fused ``avg`` reduce op.

Above ``RENDEZVOUS_BYTES`` the chunked collectives hand the transport a
*view* of their buffer; the peer reads it in place and the buffer is
protected by causality or by a completion token.  These tests attack
exactly that: scribble over a buffer the instant its collective returns,
delay ranks at random, lose / duplicate / corrupt the wire — and demand
the bitwise result of the eager path.

The chaos seed is taken from ``REPRO_CHAOS_SEED`` (default 0) like the
other fault-injection suites, so CI's three seeds draw different plans.
"""

import functools
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.comm import algorithms as alg
from repro.comm.process_group import _allgather
from repro.comm.transport import TransportHub
from repro.resilience import (
    FaultPlan,
    ReliableTransportHub,
    RetryPolicy,
    corrupt,
    delay,
    drop,
    duplicate,
)

from test_collectives import run_ranks as _run_ranks

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
TIMEOUT = 20.0
GARBAGE = -7.0e300
NEVER = 1 << 62  # a RENDEZVOUS_BYTES no buffer reaches: everything eager
ELEM = 8  # bytes per float64


def _allreduce(name, **extra):
    fn = functools.partial(alg.ALLREDUCE_ALGORITHMS[name], **extra)

    def call(hub, ranks, rank, buf, tag, chunk, op="sum"):
        fn(hub, ranks, rank, buf, op, tag, TIMEOUT, chunk)
        return buf

    return call


def _broadcast(hub, ranks, rank, buf, tag, chunk, op=None):
    alg.broadcast(hub, ranks, rank, buf, len(ranks) - 1, tag, TIMEOUT, chunk)
    return buf


def _reduce_scatter_flat(hub, ranks, rank, buf, tag, chunk, op="sum"):
    return alg.reduce_scatter_flat(hub, ranks, rank, buf, op, tag, TIMEOUT, chunk)


def _all_gather_flat(hub, ranks, rank, buf, tag, chunk, op=None):
    alg.all_gather_into_flat(hub, ranks, rank, buf, None, tag, TIMEOUT, chunk)
    return buf


#: Every chunked collective and every AllReduce algorithm, behind one
#: calling convention: ``call(hub, ranks, rank, buf, tag, chunk[, op])``
#: returns the array that holds the result (``buf`` itself when in place).
#: ``hierarchical_g2`` has real groups at every world above 2.
COLLECTIVES = {name: _allreduce(name) for name in sorted(alg.ALLREDUCE_ALGORITHMS)}
COLLECTIVES["hierarchical_g2"] = _allreduce("hierarchical", group_size=2)
ALLREDUCES = list(COLLECTIVES)
COLLECTIVES.update(
    broadcast=_broadcast,
    reduce_scatter_flat=_reduce_scatter_flat,
    all_gather_flat=_all_gather_flat,
    # ProcessGroup.allgather's body: lends its (p, n) output at the threshold.
    allgather=lambda hub, ranks, rank, buf, tag, chunk, op=None: _allgather(
        hub, ranks, rank, buf, tag, TIMEOUT, chunk),
)


@functools.lru_cache(maxsize=None)
def _inputs(world, n, dtype=np.float64):
    """Per-rank inputs, a function of (world, n) only (read-only: copy)."""
    rng = np.random.default_rng(1000 * world + n)
    return [rng.standard_normal(n).astype(dtype) for _ in range(world)]


def run_ranks(world, body, hub=None):
    """``test_collectives.run_ranks`` at this file's timeout."""
    return _run_ranks(world, body, TIMEOUT, hub)


def sweep(world, sizes, chunk, hub=None, scribble=False, names=COLLECTIVES):
    """Every collective of ``names`` × every size, back to back on one set
    of rank threads; returns ``{(name, n): [rank 0's result, ...]}``.

    With ``scribble`` each rank overwrites its buffer and the result
    with garbage the instant a call returns — the caller's right once
    ``Work.wait()`` returned — so a peer that still reads a lent region
    computes garbage.
    """
    ranks = list(range(world))

    def body(hub, rank):
        out = {}
        for name in names:
            call = COLLECTIVES[name]
            for n in sizes:
                buf = _inputs(world, n)[rank].copy()
                result = call(hub, ranks, rank, buf, (name, n), chunk)
                out[name, n] = result.copy()
                if scribble:
                    buf.fill(GARBAGE)
                    result.fill(GARBAGE)
        return out

    results, hub = run_ranks(world, body, hub)
    return {key: [r[key] for r in results] for key in results[0]}, hub


def assert_bitwise(got, want):
    assert got.keys() == want.keys()
    for key in want:
        for rank, (a, b) in enumerate(zip(got[key], want[key])):
            assert a.dtype == b.dtype and a.shape == b.shape, (key, rank)
            assert a.tobytes() == b.tobytes(), (key, rank)


# ----------------------------------------------------------------------
# (a) overwrite-after-wait stress
# ----------------------------------------------------------------------
WORLDS = [2, 3, 4, 5]
#: The stress runs the real code with the two size constants scaled down
#: 64× (threshold 4 KiB, chunk 16 KiB) so that 20 seeds × 4 worlds × 10
#: collectives × 5 sizes stay a few seconds; the unscaled constants get
#: their own pass below.
SCALED_RENDEZVOUS = alg.RENDEZVOUS_BYTES // 64
SCALED_CHUNK = (1 << 20) // 64


def _stress_sizes(rendezvous, chunk):
    """Just below / at the threshold, one chunk ± 1 element, 3.5 chunks."""
    return [
        rendezvous // ELEM - 1,
        rendezvous // ELEM,
        chunk // ELEM - 1,
        chunk // ELEM + 1,
        7 * chunk // (2 * ELEM),
    ]


def _delay_plan(world, seed):
    """Seeded stragglers: every rank gets its own delay and firing rate,
    so which rank returns first (and scribbles) differs seed to seed."""
    rng = np.random.default_rng(seed)
    return FaultPlan(
        [
            delay(float(rng.choice([2e-4, 5e-4, 1e-3])), rank=rank,
                  probability=float(rng.choice([0.02, 0.05, 0.1])))
            for rank in range(world)
        ],
        seed=seed,
    )


@pytest.fixture(scope="module")
def eager_reference():
    """Eager results per (world, sizes, chunk), computed once."""
    cache = {}

    def get(world, sizes, chunk):
        key = (world, tuple(sizes), chunk)
        if key not in cache:
            saved, alg.RENDEZVOUS_BYTES = alg.RENDEZVOUS_BYTES, NEVER
            try:
                cache[key], _ = sweep(world, sizes, chunk)
            finally:
                alg.RENDEZVOUS_BYTES = saved
        return cache[key]

    return get


class TestOverwriteAfterWait:
    @pytest.mark.parametrize("world", WORLDS)
    def test_scribbling_ranks_cannot_disturb_a_peer(self, world, eager_reference, monkeypatch):
        sizes = _stress_sizes(SCALED_RENDEZVOUS, SCALED_CHUNK)
        want = eager_reference(world, sizes, SCALED_CHUNK)
        monkeypatch.setattr(alg, "RENDEZVOUS_BYTES", SCALED_RENDEZVOUS)
        for seed in range(CHAOS_SEED * 20, CHAOS_SEED * 20 + 20):
            hub = TransportHub(world, default_timeout=TIMEOUT)
            plan = _delay_plan(world, seed).install(hub)
            got, hub = sweep(world, sizes, SCALED_CHUNK, hub, scribble=True)
            assert_bitwise(got, want)
            assert hub.pending_messages() == 0, seed
            assert plan.total_triggered() > 0

    @pytest.mark.parametrize("world", WORLDS)
    def test_at_the_real_threshold(self, world, eager_reference):
        """The unscaled constants: 256 KiB − 1 element stays eager, 256 KiB
        lends, one default chunk + 1 element lends across a chunk seam."""
        sizes = [
            alg.RENDEZVOUS_BYTES // ELEM - 1,
            alg.RENDEZVOUS_BYTES // ELEM,
            alg.DEFAULT_CHUNK_BYTES // ELEM + 1,
        ]
        want = eager_reference(world, sizes, None)
        hub = TransportHub(world, default_timeout=TIMEOUT)
        _delay_plan(world, CHAOS_SEED + 100).install(hub)
        got, hub = sweep(world, sizes, None, hub, scribble=True)
        assert_bitwise(got, want)
        assert hub.pending_messages() == 0

    @pytest.mark.parametrize("tokens", [True, False])
    def test_the_token_is_what_holds_the_lender(self, tokens, monkeypatch):
        """The hazard is real: take the tokens away and a borrower that
        arrives late reads what the lender already scribbled over."""
        monkeypatch.setattr(alg, "RENDEZVOUS_BYTES", 0)
        if not tokens:
            monkeypatch.setattr(alg, "_settle", lambda *args: None)

        def body(hub, rank):
            buf = np.full(64, float(rank == 0))
            if rank == 1:
                time.sleep(0.05)
            alg.broadcast(hub, [0, 1], rank, buf, 0, "t", TIMEOUT)
            out = buf.copy()
            buf.fill(GARBAGE)
            return out

        results, _ = run_ranks(2, body)
        assert np.all(results[1] == (1.0 if tokens else GARBAGE))


# ----------------------------------------------------------------------
# (b) avg == sum then /= world, bitwise
# ----------------------------------------------------------------------
@pytest.fixture(params=["eager", "lent"])
def mode(request, monkeypatch):
    """Run a test once with every buffer eager and once with every buffer
    lent, whatever its size."""
    monkeypatch.setattr(alg, "RENDEZVOUS_BYTES", NEVER if request.param == "eager" else 0)
    return request.param


class TestAvg:
    # 3, 5, 6: halving-doubling falls back to the ring; 3–6 with groups of
    # two: hierarchical has a trailing single-member group at 3 and 5.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("world", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", ALLREDUCES)
    def test_allreduce_avg_is_sum_then_divide(self, name, world, dtype, mode):
        n = 37
        inputs = _inputs(world, n, dtype)
        ranks = list(range(world))

        def body(hub, rank):
            summed, averaged = inputs[rank].copy(), inputs[rank].copy()
            COLLECTIVES[name](hub, ranks, rank, summed, "s", 64, "sum")
            summed /= world
            COLLECTIVES[name](hub, ranks, rank, averaged, "a", 64, "avg")
            return summed, averaged

        results, hub = run_ranks(world, body)
        for summed, averaged in results:
            assert averaged.dtype == dtype
            assert averaged.tobytes() == summed.tobytes()
        assert hub.pending_messages() == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("world", [1, 2, 3, 4, 5])
    def test_reduce_scatter_flat_avg_uneven_spans(self, world, dtype, mode):
        n = 23  # not a multiple of 2, 3, 4 or 5: spans differ in length
        inputs = _inputs(world, n, dtype)
        ranks = list(range(world))

        def body(hub, rank):
            summed = alg.reduce_scatter_flat(hub, ranks, rank, inputs[rank], "sum", "s", TIMEOUT, 32)
            summed /= world
            averaged = alg.reduce_scatter_flat(hub, ranks, rank, inputs[rank], "avg", "a", TIMEOUT, 32)
            return summed, averaged

        results, _ = run_ranks(world, body)
        spans = alg.partition_spans(n, world)
        for rank, (summed, averaged) in enumerate(results):
            assert averaged.size == spans[rank][1] - spans[rank][0]
            assert averaged.dtype == dtype
            assert averaged.tobytes() == summed.tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_division_shortcut_is_bit_exact(self, dtype):
        """Power-of-two group sizes multiply by the reciprocal; the bits
        must be those of the division, down to subnormals and specials."""
        info = np.finfo(dtype)
        rng = np.random.default_rng(0)
        values = np.concatenate([
            rng.standard_normal(4096),
            rng.standard_normal(512) * float(info.tiny),      # straddles subnormal
            rng.uniform(-1, 1, 512) * float(info.max),
            [0.0, -0.0, np.inf, -np.inf, np.nan, float(info.max), float(info.smallest_subnormal)],
        ]).astype(dtype)
        for divisor in (1, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256):
            got = values.copy()
            with np.errstate(all="ignore"):
                alg._divide(got, divisor)
                want = values / divisor
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), divisor

    @pytest.mark.parametrize("name", ALLREDUCES + ["reduce_scatter_flat"])
    def test_integer_avg_raises_by_name(self, name):
        hub = TransportHub(1)
        with pytest.raises(ValueError, match="'avg' is defined for floating dtypes, got int32"):
            COLLECTIVES[name](hub, [0], 0, np.ones(4, dtype=np.int32), "t", None, "avg")


# ----------------------------------------------------------------------
# (c) message counts, as literals
# ----------------------------------------------------------------------
def _counts(name, world, n, chunk=None):
    ranks = list(range(world))

    def body(hub, rank):
        COLLECTIVES[name](hub, ranks, rank, np.ones(n), "t", chunk)

    _, hub = run_ranks(world, body)
    assert hub.pending_messages() == 0
    return hub.messages_sent, hub.bytes_sent


LENT_N = alg.RENDEZVOUS_BYTES // ELEM  # 256 KiB of float64: the first lent size
EAGER_N = LENT_N - 1

#: (collective, world) -> (messages per rank eager, messages per rank lent).
#: Lent = eager + one token per borrowing peer.
MESSAGE_COUNTS = {
    ("naive", 3): ([2, 2, 2], [2, 2, 2]),
    ("ring", 2): ([2, 2], [3, 3]),
    ("ring", 3): ([4, 4, 4], [5, 5, 5]),
    ("ring", 4): ([6, 6, 6, 6], [7, 7, 7, 7]),
    ("halving_doubling", 2): ([2, 2], [3, 3]),
    ("halving_doubling", 3): ([4, 4, 4], [5, 5, 5]),  # ring fallback
    ("halving_doubling", 4): ([4, 4, 4, 4], [6, 6, 6, 6]),
    # Every non-root returns one token to its broadcast parent.
    ("tree", 2): ([1, 1], [1, 2]),
    ("tree", 4): ([2, 1, 2, 1], [2, 2, 3, 2]),
    ("tree", 5): ([3, 1, 2, 1, 1], [3, 2, 3, 2, 2]),
    ("broadcast", 4): ([0, 1, 0, 2], [1, 2, 1, 2]),  # root = rank 3
    ("reduce_scatter_flat", 2): ([1, 1], [2, 2]),
    ("reduce_scatter_flat", 3): ([2, 2, 2], [3, 3, 3]),
    ("all_gather_flat", 2): ([1, 1], [2, 2]),
    ("all_gather_flat", 3): ([2, 2, 2], [3, 3, 3]),
    ("hierarchical", 4): ([6, 6, 6, 6], [7, 7, 7, 7]),  # one group: the ring
    # Members: 1 send to their leader, lent by causality (+ 1 token for
    # the broadcast).
    # Leaders: ring of two (2 + 1 token) and 1 broadcast send.
    ("hierarchical_g2", 4): ([3, 1, 3, 1], [4, 2, 4, 2]),
}


class TestMessageCounts:
    @pytest.mark.parametrize("name,world", list(MESSAGE_COUNTS))
    def test_lent_is_eager_plus_tokens(self, name, world, monkeypatch):
        eager, lent = MESSAGE_COUNTS[name, world]
        assert _counts(name, world, EAGER_N)[0] == eager
        lent_msgs, lent_bytes = _counts(name, world, LENT_N)
        assert lent_msgs == lent
        # The same size forced eager: the old counts, and the same bytes
        # on the wire — tokens carry none.
        monkeypatch.setattr(alg, "RENDEZVOUS_BYTES", NEVER)
        assert _counts(name, world, LENT_N) == (eager, lent_bytes)

    def test_chunked_segments_still_one_token_per_peer(self):
        # 3 MiB at world 2: each half is 1.5 MiB = two default chunks.
        n = 3 * (1 << 20) // ELEM
        msgs, sent = _counts("halving_doubling", 2, n)
        assert msgs == [5, 5]  # 2 + 2 chunks, 1 token
        assert sent == [n * ELEM, n * ELEM]  # half out in each phase


# ----------------------------------------------------------------------
# (d) lent sends over the retrying transport, under wire faults
# ----------------------------------------------------------------------
FAULTS = {
    "drop": lambda: drop(probability=0.3),
    "duplicate": lambda: duplicate(probability=0.5),
    "corrupt": lambda: corrupt(probability=0.3),
    "delay": lambda: delay(0.004, probability=0.3),
}


class TestReliableHub:
    @pytest.mark.parametrize("world", [2, 3, 4])
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_faulty_wire_equals_fault_free_bitwise(self, fault, world, eager_reference):
        sizes = [LENT_N]
        want = eager_reference(world, sizes, None)
        hub = ReliableTransportHub(
            world, default_timeout=TIMEOUT,
            retry=RetryPolicy(base_backoff=0.001), seed=CHAOS_SEED,
        )
        plan = FaultPlan([FAULTS[fault]()], seed=CHAOS_SEED).install(hub)
        got, hub = sweep(world, sizes, None, hub, scribble=True)
        assert_bitwise(got, want)
        stats = hub.resilience_stats()
        assert plan.total_triggered() > 0
        if fault == "drop":
            assert stats["total_retransmits"] > 0
        elif fault == "corrupt":
            assert stats["total_corrupt_detected"] > 0
            assert stats["total_retransmits"] >= stats["total_corrupt_detected"]
        elif fault == "delay":
            assert stats["total_retries"] > 0

    def test_a_dropped_token_is_retransmitted(self):
        """Tokens are ordinary messages: sequence-numbered, checksummed,
        counted, and recovered when the wire loses them."""
        hub = ReliableTransportHub(
            2, default_timeout=TIMEOUT, retry=RetryPolicy(base_backoff=0.001)
        )
        plan = FaultPlan([drop(tag_contains="'done'", times=1)]).install(hub)
        got, hub = sweep(2, [LENT_N], None, hub, names=["ring"])
        assert np.array_equal(got["ring", LENT_N][0], np.sum(_inputs(2, LENT_N), axis=0))
        assert plan.total_triggered() == 2  # one per edge
        assert hub.resilience_stats()["total_retransmits"] == 2
        assert hub.pending_messages() == 0


# ----------------------------------------------------------------------
# (e) reduce_scatter_flat: caller's buffer untouched, no world-sized scratch
# ----------------------------------------------------------------------
class TestReduceScatterFlatMemory:
    @pytest.mark.parametrize("world,spans_per_rank", [(2, 1), (4, 3)])
    def test_no_array_larger_than_one_span(self, world, spans_per_rank):
        """A rank allocates one span-sized array per step (the partial it
        forwards next, finally the result) and nothing else: at world 2
        that is the result alone; at world 4 at most three are alive (the
        one being filled, the one lent, one a slow peer still reads).  The
        parent's full-size scratch + copies peaked above ``world × n``."""
        n = 2 * LENT_N  # 512 KiB per rank, lent
        inputs = _inputs(world, n)
        pristine = [x.copy() for x in inputs]
        ranks = list(range(world))

        def body(hub, rank):
            return alg.reduce_scatter_flat(hub, ranks, rank, inputs[rank], "sum", "t", TIMEOUT, None)

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            results, hub = run_ranks(world, body)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        span_bytes = n * ELEM // world
        assert peak - before <= world * spans_per_rank * span_bytes + 64 * 1024
        assert peak - before < world * n * ELEM  # the old floor
        total = np.sum(pristine, axis=0)
        for rank, (lo, hi) in enumerate(alg.partition_spans(n, world)):
            assert results[rank].base is None and results[rank].nbytes == span_bytes
            assert np.allclose(results[rank], total[lo:hi])
            assert inputs[rank].tobytes() == pristine[rank].tobytes()
        assert hub.pending_messages() == 0
