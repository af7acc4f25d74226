"""Lent (rendezvous) sends and the fused ``avg`` reduce op.

Above ``RENDEZVOUS_BYTES`` the ring and the broadcast hand the transport
a *view* of their buffer; the peer reads it in place and the buffer is
protected by causality or by a completion token.  These tests attack
exactly that: scribble over a buffer the instant its collective returns,
delay ranks and wire sends at random — and demand the bitwise result of
the eager path.  The group's reduce-scatter and all-gathers ride along:
one round of eager copies at every size, they must come out of the same
attacks bitwise unchanged.

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
from repro.comm import get_context
from repro.comm.transport import TransportHub
from repro.resilience import FaultPlan, delay

from test_collectives import ALLREDUCES as _ALLREDUCES
from test_collectives import run_ranks as _run_ranks

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
TIMEOUT = 20.0
GARBAGE = -7.0e300
NEVER = 1 << 62  # a RENDEZVOUS_BYTES no buffer reaches: everything eager
ELEM = 8  # bytes per float64


def _allreduce(name):
    fn = _ALLREDUCES[name]

    def call(hub, ranks, rank, buf, tag, op="sum"):
        fn(hub, ranks, rank, buf, op, tag, TIMEOUT)
        return buf

    return call


def _broadcast(hub, ranks, rank, buf, tag, op=None):
    alg.broadcast(hub, ranks, rank, buf, len(ranks) - 1, tag, TIMEOUT)
    return buf


def _group_op(name):
    """Group collective ``name`` behind the calling convention below: run
    on the calling rank's default group (``run_ranks`` gives every rank
    one over the hub), returning the result, or ``buf`` when in place."""

    def call(hub, ranks, rank, buf, tag, op=None):
        out = getattr(get_context().default_group, name)(buf, *(() if op is None else (op,)))
        return buf if out is None else out

    return call


#: Every lending collective and every AllReduce (the registry's and the
#: trees' composition), behind one calling convention:
#: ``call(hub, ranks, rank, buf, tag[, op])`` returns the array that
#: holds the result (``buf`` itself when in place).
COLLECTIVES = {name: _allreduce(name) for name in sorted(_ALLREDUCES)}
ALLREDUCES = list(COLLECTIVES)
COLLECTIVES.update(
    broadcast=_broadcast,
    # One round at every size, so never lent: the size sweeps below check
    # they stay bitwise equal to the eager runs all the same.
    reduce_scatter_flat=_group_op("reduce_scatter_flat"),
    all_gather_flat=_group_op("all_gather_flat"),
    allgather=_group_op("allgather"),
)


@functools.lru_cache(maxsize=None)
def _inputs(world, n, dtype=np.float64):
    """Per-rank inputs, a function of (world, n) only (read-only: copy)."""
    rng = np.random.default_rng(1000 * world + n)
    return [rng.standard_normal(n).astype(dtype) for _ in range(world)]


def run_ranks(world, body, hub=None):
    """``test_collectives.run_ranks`` at this file's timeout."""
    return _run_ranks(world, body, TIMEOUT, hub)


def sweep(world, sizes, hub=None, scribble=False, names=COLLECTIVES):
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
                result = call(hub, ranks, rank, buf, (name, n))
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
#: The stress runs the real code with the threshold scaled down 64×
#: (4 KiB) so that 20 seeds × 4 worlds × 7 collectives × 5 sizes stay a
#: few seconds; the unscaled threshold gets its own pass below.
SCALED_RENDEZVOUS = alg.RENDEZVOUS_BYTES // 64


def _stress_sizes(rendezvous):
    """Just below / at the threshold, then 4× it ± 1 element and 14× it
    (segments of unequal length at every world here)."""
    return [
        rendezvous // ELEM - 1,
        rendezvous // ELEM,
        4 * rendezvous // ELEM - 1,
        4 * rendezvous // ELEM + 1,
        14 * rendezvous // ELEM,
    ]


def _delay_plan(world, seed):
    """Seeded stragglers: every rank gets its own delay and firing rate,
    so which rank returns first (and scribbles) differs seed to seed.
    The rates are high enough that every seed's plan fires on a world-2
    sweep, about 40 sends per rank."""
    rng = np.random.default_rng(seed)
    return FaultPlan(
        [
            delay(float(rng.choice([2e-4, 5e-4, 1e-3])), rank=rank,
                  probability=float(rng.choice([0.1, 0.2, 0.3])))
            for rank in range(world)
        ],
        seed=seed,
    )


@pytest.fixture(scope="module")
def eager_reference():
    """Eager results per (world, sizes), computed once."""
    cache = {}

    def get(world, sizes):
        key = (world, tuple(sizes))
        if key not in cache:
            saved, alg.RENDEZVOUS_BYTES = alg.RENDEZVOUS_BYTES, NEVER
            try:
                cache[key], _ = sweep(world, sizes)
            finally:
                alg.RENDEZVOUS_BYTES = saved
        return cache[key]

    return get


class TestOverwriteAfterWait:
    @pytest.mark.parametrize("world", WORLDS)
    def test_scribbling_ranks_cannot_disturb_a_peer(self, world, eager_reference, monkeypatch):
        sizes = _stress_sizes(SCALED_RENDEZVOUS)
        want = eager_reference(world, sizes)
        monkeypatch.setattr(alg, "RENDEZVOUS_BYTES", SCALED_RENDEZVOUS)
        for seed in range(CHAOS_SEED * 20, CHAOS_SEED * 20 + 20):
            hub = TransportHub(world, default_timeout=TIMEOUT)
            plan = _delay_plan(world, seed).install(hub)
            got, hub = sweep(world, sizes, hub, scribble=True)
            assert_bitwise(got, want)
            assert hub.pending_messages() == 0, seed
            assert plan.total_triggered() > 0

    @pytest.mark.parametrize("world", WORLDS)
    def test_at_the_real_threshold(self, world, eager_reference):
        """The unscaled threshold: 256 KiB − 1 element stays eager, 256 KiB
        lends, and so does 1 MiB + 1 element."""
        sizes = [
            alg.RENDEZVOUS_BYTES // ELEM - 1,
            alg.RENDEZVOUS_BYTES // ELEM,
            4 * alg.RENDEZVOUS_BYTES // ELEM + 1,
        ]
        want = eager_reference(world, sizes)
        hub = TransportHub(world, default_timeout=TIMEOUT)
        _delay_plan(world, CHAOS_SEED + 100).install(hub)
        got, hub = sweep(world, sizes, hub, scribble=True)
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
    # Odd and even worlds: the ring's segments are of unequal length.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("world", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", ALLREDUCES)
    def test_allreduce_avg_is_sum_then_divide(self, name, world, dtype, mode):
        n = 37
        inputs = _inputs(world, n, dtype)
        ranks = list(range(world))

        def body(hub, rank):
            summed, averaged = inputs[rank].copy(), inputs[rank].copy()
            COLLECTIVES[name](hub, ranks, rank, summed, "s", "sum")
            summed /= world
            COLLECTIVES[name](hub, ranks, rank, averaged, "a", "avg")
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
            call = COLLECTIVES["reduce_scatter_flat"]
            summed = call(hub, ranks, rank, inputs[rank], "s", "sum")
            summed /= world
            averaged = call(hub, ranks, rank, inputs[rank], "a", "avg")
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
        def body(hub, rank):
            with pytest.raises(ValueError, match="'avg' is defined for floating dtypes, got int32"):
                COLLECTIVES[name](hub, [0], 0, np.ones(4, dtype=np.int32), "t", "avg")

        run_ranks(1, body)


# ----------------------------------------------------------------------
# (c) message counts, as literals
# ----------------------------------------------------------------------
def _counts(name, world, n):
    ranks = list(range(world))

    def body(hub, rank):
        COLLECTIVES[name](hub, ranks, rank, np.ones(n), "t")

    _, hub = run_ranks(world, body)
    assert hub.pending_messages() == 0
    return hub.messages_sent, hub.bytes_sent


LENT_N = alg.RENDEZVOUS_BYTES // ELEM  # 256 KiB of float64: the first lent size
EAGER_N = LENT_N - 1

#: (collective, world) -> (messages per rank eager, messages per rank lent).
#: Lent = eager + one token per borrowing peer; the one-round group ops
#: (one post per peer) never lend.
MESSAGE_COUNTS = {
    ("naive", 3): ([2, 2, 2], [2, 2, 2]),
    ("ring", 2): ([2, 2], [3, 3]),
    ("ring", 3): ([4, 4, 4], [5, 5, 5]),
    ("ring", 4): ([6, 6, 6, 6], [7, 7, 7, 7]),
    ("ring", 5): ([8, 8, 8, 8, 8], [9, 9, 9, 9, 9]),
    # Reduce to rank 0, eager, then the broadcast back: every non-root
    # returns one token to its broadcast parent.
    ("tree", 2): ([1, 1], [1, 2]),
    ("tree", 4): ([2, 1, 2, 1], [2, 2, 3, 2]),
    ("tree", 5): ([3, 1, 2, 1, 1], [3, 2, 3, 2, 2]),
    # Every non-root returns one token to its parent.
    ("broadcast", 4): ([0, 1, 0, 2], [1, 2, 1, 2]),  # root = rank 3
    ("reduce_scatter_flat", 2): ([1, 1], [1, 1]),
    ("reduce_scatter_flat", 3): ([2, 2, 2], [2, 2, 2]),
    ("all_gather_flat", 2): ([1, 1], [1, 1]),
    ("all_gather_flat", 3): ([2, 2, 2], [2, 2, 2]),
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


# ----------------------------------------------------------------------
# (d) lent sends over a delaying wire
# ----------------------------------------------------------------------
class TestDelayedWire:
    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_delayed_wire_equals_fault_free_bitwise(self, world, eager_reference):
        sizes = [LENT_N]
        want = eager_reference(world, sizes)
        hub = TransportHub(world, default_timeout=TIMEOUT)
        plan = FaultPlan([delay(0.004, probability=0.3)], seed=CHAOS_SEED).install(hub)
        got, hub = sweep(world, sizes, hub, scribble=True)
        assert_bitwise(got, want)
        assert plan.total_triggered() > 0
        assert hub.pending_messages() == 0


# ----------------------------------------------------------------------
# (e) reduce_scatter_flat: caller's buffer untouched, one copy per peer
# ----------------------------------------------------------------------
class TestReduceScatterFlatMemory:
    @pytest.mark.parametrize("world", [2, 4])
    def test_peak_is_the_posted_copies_and_the_result(self, world):
        """One round: a rank allocates a copy of each peer's span (posted
        at the call) and its result span, and nothing else — at most
        ``world`` spans per rank, ``world × n`` bytes in all — and the
        result is its own array, the caller's buffer is untouched."""
        n = 2 * LENT_N  # 512 KiB per rank
        inputs = _inputs(world, n)
        pristine = [x.copy() for x in inputs]
        ranks = list(range(world))
        call = COLLECTIVES["reduce_scatter_flat"]

        def body(hub, rank):
            return call(hub, ranks, rank, inputs[rank], "t", "sum")

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            results, hub = run_ranks(world, body)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        span_bytes = n * ELEM // world
        assert peak - before <= world * n * ELEM + 256 * 1024
        total = np.sum(pristine, axis=0)
        for rank, (lo, hi) in enumerate(alg.partition_spans(n, world)):
            assert results[rank].base is None and results[rank].nbytes == span_bytes
            assert np.allclose(results[rank], total[lo:hi])
            assert inputs[rank].tobytes() == pristine[rank].tobytes()
        assert hub.pending_messages() == 0
