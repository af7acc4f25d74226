"""ProcessGroup API: sync/async, consistency, backends, round-robin."""

import inspect
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.autograd import Tensor
from repro.comm import (
    CollectiveError,
    CollectiveMismatchError,
    CollectiveTimeoutError,
    algorithms,
    get_context,
    new_process_group,
    new_round_robin_group,
)
from repro.comm.algorithms import RENDEZVOUS_BYTES, allreduce_protocol
from repro.comm.process_group import _OPS, ProcessGroup, ReduceOp, Work, _SplitWork
from repro.comm.transport import TransportClosedError, TransportHub
from repro.debug import (
    get_debug_level,
    recorder_for,
    set_debug_level,
)
from repro.resilience import FaultPlan, InjectedRankFailure, ReliableTransportHub, crash_rank, drop

from conftest import run_world, wait_until
from test_collectives import ALLGATHER_MSGS, REDUCE_MSGS, tree_reduced

#: Seeds the split-phase stress (CI runs several; default 0).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


class TestBasicCollectives:
    def test_allreduce_sync(self):
        def body(rank):
            pg = get_context().default_group
            x = np.full(6, float(rank + 1))
            pg.allreduce(x)
            return x[0]

        assert run_world(3, body, backend="gloo") == [6.0, 6.0, 6.0]

    def test_allreduce_async_work(self):
        def body(rank):
            pg = get_context().default_group
            x = np.full(4, 1.0)
            work = pg.allreduce(x, async_op=True)
            assert isinstance(work, Work)
            work.wait()
            assert work.is_completed()
            return x[0]

        assert run_world(2, body, backend="gloo") == [2.0, 2.0]

    def test_many_async_inflight(self):
        """DDP's pattern: launch all buckets, then block on all."""
        def body(rank):
            pg = get_context().default_group
            buffers = [np.full(5, float(i + rank)) for i in range(8)]
            works = [pg.allreduce(b, async_op=True) for b in buffers]
            for w in works:
                w.wait()
            return [b[0] for b in buffers]

        results = run_world(2, body, backend="gloo")
        assert results[0] == [2.0 * i + 1.0 for i in range(8)]

    def test_broadcast_from_rank0(self):
        def body(rank):
            pg = get_context().default_group
            x = np.full(3, float(rank * 10 + 1))
            pg.broadcast(x, src=0)
            return x[0]

        assert run_world(3, body, backend="gloo") == [1.0, 1.0, 1.0]

    def test_allgather(self):
        def body(rank):
            pg = get_context().default_group
            out = pg.allgather(np.array([float(rank)]))
            return out.reshape(-1).tolist()

        results = run_world(3, body, backend="gloo")
        assert all(r == [0.0, 1.0, 2.0] for r in results)

    def test_barrier(self):
        def body(rank):
            get_context().default_group.barrier()
            return True

        assert run_world(4, body, backend="gloo") == [True] * 4

    def test_reduce_op_max(self):
        def body(rank):
            pg = get_context().default_group
            x = np.array([float(rank), float(-rank)])
            pg.allreduce(x, ReduceOp.MAX)
            return x.tolist()

        results = run_world(3, body, backend="gloo")
        assert results[0] == [2.0, 0.0]

    def test_bytes_accounted(self):
        def body(rank):
            pg = get_context().default_group
            pg.allreduce(np.zeros(10))
            return pg.bytes_communicated

        assert run_world(2, body, backend="gloo") == [80, 80]


class TestConsistencyChecking:
    def test_shape_mismatch_detected(self):
        def body(rank):
            pg = get_context().default_group
            pg.allreduce(np.zeros(3 if rank == 0 else 4))

        with pytest.raises(RuntimeError, match="mismatch"):
            run_world(2, body, backend="gloo", timeout=3)

    def test_op_type_mismatch_detected(self):
        def body(rank):
            pg = get_context().default_group
            if rank == 0:
                pg.allreduce(np.zeros(3))
            else:
                pg.broadcast(np.zeros(3))

        with pytest.raises(RuntimeError, match="mismatch"):
            run_world(2, body, backend="gloo", timeout=3)

    def test_dtype_mismatch_detected(self):
        def body(rank):
            pg = get_context().default_group
            dtype = np.float64 if rank == 0 else np.float32
            pg.allreduce(np.zeros(3, dtype=dtype))

        with pytest.raises(RuntimeError, match="mismatch"):
            run_world(2, body, backend="gloo", timeout=3)

    def test_matching_sequence_passes(self):
        def body(rank):
            pg = get_context().default_group
            for size in (3, 5, 1):
                pg.allreduce(np.zeros(size))
            return True

        assert run_world(2, body, backend="gloo") == [True, True]


class TestBackendPersonalities:
    def test_nccl_rejects_cpu_tensor(self):
        def body(rank):
            pg = get_context().default_group
            pg.allreduce(Tensor(np.zeros(3)))  # device defaults to cpu

        with pytest.raises(RuntimeError, match="cpu"):
            run_world(2, body, backend="nccl", timeout=3)

    def test_nccl_accepts_device_tensor(self):
        def body(rank):
            pg = get_context().default_group
            t = Tensor(np.full(3, 1.0), device=f"gpu:{rank}")
            pg.allreduce(t)
            return t.data[0]

        assert run_world(2, body, backend="nccl") == [2.0, 2.0]

    def test_nccl_accepts_raw_ndarray(self):
        """Raw arrays carry no device tag; treated as device memory."""
        def body(rank):
            pg = get_context().default_group
            x = np.ones(3)
            pg.allreduce(x)
            return x[0]

        assert run_world(2, body, backend="nccl") == [2.0, 2.0]

    def test_gloo_accepts_cpu_tensor(self):
        def body(rank):
            pg = get_context().default_group
            t = Tensor(np.full(2, 1.0))
            pg.allreduce(t)
            return t.data[0]

        assert run_world(2, body, backend="gloo") == [2.0, 2.0]

    def test_backend_algorithm_defaults(self):
        def body(rank):
            return (
                get_context().default_group.backend,
                get_context().default_group.algorithm,
            )

        nccl = run_world(2, body, backend="nccl")
        gloo = run_world(2, body, backend="gloo")
        assert nccl[0] == ("nccl", "ring")
        assert gloo[0] == ("gloo", "halving_doubling")


class TestSubgroupsAndRoundRobin:
    def test_subgroup_collective(self):
        def body(rank):
            sub = new_process_group("gloo", ranks=[0, 2])
            if rank in (0, 2):
                x = np.full(2, float(rank))
                sub.allreduce(x)
                return x[0]
            return None

        results = run_world(3, body)
        assert results[0] == 2.0 and results[2] == 2.0 and results[1] is None

    def test_non_members_get_none(self):
        def body(rank):
            sub = new_process_group("gloo", ranks=[0, 1])
            return sub.group_rank if sub is not None else None

        assert run_world(3, body) == [0, 1, None]

    def test_round_robin_results_match(self):
        def body(rank):
            rr = new_round_robin_group("gloo", num_groups=3)
            outs = []
            for i in range(7):
                x = np.full(3, float(rank + i))
                rr.allreduce(x)
                outs.append(x[0])
            rr.shutdown()
            return outs

        results = run_world(2, body)
        assert results[0] == [1.0 + 2 * i for i in range(7)]

    def test_round_robin_distributes_across_groups(self):
        def body(rank):
            rr = new_round_robin_group("gloo", num_groups=2)
            for _ in range(4):
                rr.allreduce(np.zeros(2))
            counts = [g.bytes_communicated for g in rr.groups]
            rr.shutdown()
            return counts

        results = run_world(2, body)
        assert results[0] == [32, 32]

    def test_round_robin_validation(self):
        from repro.comm.round_robin import RoundRobinProcessGroup

        with pytest.raises(ValueError):
            RoundRobinProcessGroup([])

    def test_round_robin_mismatch_names_inner_group(self):
        """A mismatch under round-robin dispatch must be attributed to
        the inner group that actually ran the collective — at *its*
        local sequence number, not the round-robin call index."""
        seen = {}

        def body(rank):
            rr = new_round_robin_group("gloo", num_groups=2)
            if rank == 0:
                seen["gids"] = [g._group_id for g in rr.groups]
            rr.allreduce(np.zeros(2))  # call 0 -> groups[0], its seq 0
            rr.allreduce(np.zeros(2))  # call 1 -> groups[1], its seq 0
            # call 2 -> groups[0] again, its seq 1; shapes diverge
            rr.allreduce(np.zeros(2 if rank == 0 else 5))

        with pytest.raises(RuntimeError, match="mismatch") as excinfo:
            run_world(2, body, timeout=3)
        gid_first, gid_second = seen["gids"]
        message = str(excinfo.value)
        assert f"collective #1 mismatch in group {gid_first}" in message
        assert f"group {gid_second}" not in message


# ----------------------------------------------------------------------
# the op table: one matrix over every collective
# ----------------------------------------------------------------------
N = 4  # elements per tensor (float64 → 32 payload bytes)


def _issue(pg, name, n=N, root=0, async_op=False):
    """Call collective ``name`` with small canonical arguments; ``root``
    is the src/root of the rooted ops (ignored by the others)."""
    kwargs = {"async_op": True} if async_op else {}
    x = np.ones(n)
    if name == "allreduce":
        return pg.allreduce(x, **kwargs)
    if name == "broadcast":
        return pg.broadcast(x, src=root, **kwargs)
    if name == "allgather":
        return pg.allgather(x, **kwargs)
    if name == "reduce_scatter_flat":
        return pg.reduce_scatter_flat(x, **kwargs)
    if name == "all_gather_flat":
        return pg.all_gather_flat(x, **kwargs)
    if name == "reduce":
        return pg.reduce(x, root=root)
    if name == "gather":
        return pg.gather(x, root=root)
    if name == "scatter":
        chunks = [x] * pg.size if pg.group_rank == root else None
        return pg.scatter(chunks, root=root)
    assert name == "barrier"
    return pg.barrier()


#: name -> (accepts async_op, accounted bytes at world 2, returns a result)
OP_MATRIX = {
    "allreduce": (True, 8 * N, False),
    "broadcast": (True, 8 * N, False),
    "allgather": (True, 8 * N * 2, True),
    "reduce_scatter_flat": (True, 8 * N, True),
    "all_gather_flat": (True, 8 * N, False),
    "reduce": (False, 8 * N, False),
    "gather": (False, 8 * N, True),
    "scatter": (False, None, True),
    "barrier": (False, None, False),
}
OP_CASES = [
    pytest.param(name, mode == "async", id=f"{name}-{mode}")
    for name, (takes_async, _, _) in OP_MATRIX.items()
    for mode in (("sync", "async") if takes_async else ("sync",))
]


@pytest.fixture
def observed():
    """REPRO_DEBUG=INFO and telemetry on for one test, cleared around it."""
    previous = get_debug_level()
    telemetry.reset()
    set_debug_level("INFO")
    telemetry.enable()
    yield
    telemetry.disable()
    telemetry.reset()
    set_debug_level(previous)


class TestOpTable:
    def test_matrix_covers_the_table(self):
        assert set(OP_MATRIX) == set(_OPS)
        for name, (takes_async, _, _) in OP_MATRIX.items():
            params = inspect.signature(getattr(ProcessGroup, name)).parameters
            assert ("async_op" in params) == takes_async, name

    @pytest.mark.parametrize("name,async_op", OP_CASES)
    def test_every_view_reads_one_record(self, observed, name, async_op):
        """Sequence numbers are contiguous, bytes are accounted per op, and
        the retained record, its causal-timeline events and its Chrome
        trace ``comm`` row agree on (group, seq, op, bytes, start, end) —
        at REPRO_DEBUG=OFF as at INFO, because telemetry alone retains
        the record — while no ``comm`` span is recorded at all."""
        _, wire, returns = OP_MATRIX[name]
        repeats = 3

        def body(rank):
            pg = get_context().default_group
            for _ in range(repeats):
                out = _issue(pg, name, async_op=async_op)
                if async_op:
                    assert isinstance(out, Work)
                    out.wait()
                    out = out.result[0]
                # gather's result lands on the root only.
                expect = returns and not (name == "gather" and rank != 0)
                assert (out is not None) == expect
            return pg._group_id, pg.bytes_communicated

        for level in ("OFF", "INFO"):
            telemetry.reset()
            set_debug_level(level)
            results = run_world(2, body, backend="gloo")
            spans = telemetry.get_tracer().spans()
            assert not [s for s in spans if s.cat == "comm"]
            timeline = {(entry["group"], entry["seq"]): entry
                        for entry in telemetry.merge_causal_timeline()}
            rows = {(e["pid"], e["name"]): e for e in telemetry.trace_events()
                    if e.get("cat") == "comm"}
            records = {rank: recorder_for(rank).dump()["records"]
                       for rank in range(2)}
            epoch = min([s.t_start for s in spans] + [
                r["t_start"] for flights in records.values() for r in flights])
            for rank, (gid, accounted) in enumerate(results):
                assert accounted == repeats * (wire or 0)
                flights = records[rank]
                assert [r["seq"] for r in flights] == list(range(repeats))
                for flight in flights:
                    seq = flight["seq"]
                    assert flight["op"] == name and flight["group_id"] == gid
                    assert flight["state"] == "completed"
                    assert flight["nbytes"] == (8 * N if wire else None)
                    row = rows[(rank, f"{name}#{seq}")]
                    assert row["args"]["op"] == name and row["args"]["seq"] == seq
                    assert row["args"]["group"] == gid
                    assert row["args"].get("bytes") == wire
                    assert row["ts"] == (flight["t_start"] - epoch) * 1e6
                    assert row["ts"] + row["dur"] == pytest.approx(
                        (flight["t_end"] - epoch) * 1e6, abs=1e-3)
                    marks = {e["kind"]: e for e in timeline[(gid, seq)]["events"]
                             if e["rank"] == rank}
                    assert set(marks) == {"schedule", "start", "complete"}
                    for mark in marks.values():
                        assert (mark["group"], mark["op"]) == (gid, name)
                        assert mark.get("nbytes") == wire
                    assert marks["schedule"]["t"] == flight["t_sched"]
                    assert marks["start"]["t"] == flight["t_start"]
                    assert marks["complete"]["t"] == flight["t_end"]

    @pytest.mark.parametrize("name", list(OP_MATRIX))
    def test_mismatched_peer_gets_a_field_diff(self, name):
        """A peer that diverges in any signature field — shape for tensor
        ops, root for scatter, the op itself for barrier — is told which."""
        field = {"scatter": "root", "barrier": "op"}.get(name, "shape")

        def body(rank):
            pg = get_context().default_group
            if rank == 0:
                _issue(pg, name)
            elif field == "shape":
                _issue(pg, name, n=N + 2)
            elif field == "root":
                _issue(pg, name, root=1)
            else:
                pg.allreduce(np.ones(N))

        with pytest.raises(RuntimeError, match="mismatch") as excinfo:
            run_world(2, body, backend="gloo", timeout=3)
        assert isinstance(excinfo.value.__cause__, CollectiveMismatchError)
        message = str(excinfo.value)
        assert "differing fields:" in message and f"{field}: " in message

    @pytest.mark.parametrize("name", ["allreduce", "reduce_scatter_flat"])
    @pytest.mark.parametrize("async_op", [False, True], ids=["sync", "async"])
    def test_avg_is_sum_divided_by_the_group_size(self, name, async_op):
        def body(rank):
            pg = get_context().default_group
            outs = []
            for op in (ReduceOp.SUM, ReduceOp.AVG):
                x = np.arange(7.0) * (rank + 1) / 3
                out = getattr(pg, name)(x, op, async_op=async_op)
                if async_op:
                    out.wait()
                    out = out.result[0]
                outs.append(x if out is None else out)
            summed, averaged = outs
            return np.array_equal(averaged, summed / pg.size)

        assert run_world(3, body, backend="gloo") == [True] * 3

    @pytest.mark.parametrize("name", ["allreduce", "reduce_scatter_flat"])
    def test_integer_avg_raises_on_the_issuing_thread(self, name):
        """Before a sequence number is spent or anything is queued: even
        an ``async_op`` call raises at the call, not at ``wait()``."""
        def body(rank):
            pg = get_context().default_group
            with pytest.raises(ValueError, match="'avg' is defined for floating dtypes"):
                getattr(pg, name)(np.ones(4, dtype=np.int64), ReduceOp.AVG, async_op=True)
            x = np.ones(4)
            pg.allreduce(x)  # the group is still in step
            return pg._seq, x[0]

        assert run_world(2, body, backend="gloo") == [(1, 2.0)] * 2

    def test_avg_against_sum_is_a_named_mismatch(self):
        def body(rank):
            pg = get_context().default_group
            pg.allreduce(np.ones(N), ReduceOp.AVG if rank else ReduceOp.SUM)

        with pytest.raises(RuntimeError, match="mismatch") as excinfo:
            run_world(2, body, backend="gloo", timeout=3)
        assert isinstance(excinfo.value.__cause__, CollectiveMismatchError)
        assert "differing fields: reduce_op: avg != sum" in str(excinfo.value)

    #: world -> (float64 elements exactly at the size rule, hub messages
    #: per rank one element below it, and at it under gloo's default).
    #: At the rule: world 2 lends (rs + ag + token), 3 and 5 fall back
    #: to the ring's 2(p−1), 4 is halving-doubling's 2·log₂ p.
    SIZE_RULE = {2: (32768, 1, 3), 3: (16384, 2, 4), 4: (10923, 3, 4), 5: (8192, 4, 8)}

    @pytest.mark.parametrize("world", sorted(SIZE_RULE))
    @pytest.mark.parametrize("async_op", [False, True], ids=["sync", "async"])
    def test_allreduce_protocol_follows_the_size_rule(self, observed, world, async_op):
        """One round of direct exchange while everything a rank posts
        stays under RENDEZVOUS_BYTES, the group's algorithm from there
        on — and every view names what actually ran."""
        at_rule, msgs_below, msgs_at = self.SIZE_RULE[world]
        assert (world - 1) * 8 * (at_rule - 1) < RENDEZVOUS_BYTES <= (world - 1) * 8 * at_rule

        def allreduce(pg, x, op=ReduceOp.SUM):
            before = pg.hub.messages_sent[pg.global_rank]
            work = pg.allreduce(x, op, async_op=async_op)
            if async_op:
                work.wait()
            record = pg.flight_recorder.records()[-1]
            assert record.op == "allreduce" and record.state == "completed"
            sent = pg.hub.messages_sent[pg.global_rank] - before
            return record.extra["algorithm"], sent

        def body(rank):
            pg = get_context().default_group
            rng = np.random.default_rng(rank)
            seen = []
            for n in (at_rule - 1, at_rule):
                base = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
                summed, averaged = base.copy(), base.copy()
                seen.append(allreduce(pg, summed))
                seen.append(allreduce(pg, averaged, ReduceOp.AVG))
                summed /= pg.size
                assert averaged.tobytes() == summed.tobytes()
                seen.append(averaged.tobytes())
            return seen

        results = run_world(world, body, backend="gloo", timeout=20.0)
        assert results[0][0:2] == [("naive", msgs_below)] * 2
        assert results[0][3:5] == [("halving_doubling", msgs_at)] * 2
        for seen in results[1:]:
            assert seen == results[0]  # same protocol, same bits, every rank
        for rank in range(world):
            records = recorder_for(rank).records()
            assert [r.extra["algorithm"] for r in records] == (
                ["naive"] * 2 + ["halving_doubling"] * 2)

    def test_size_rule_is_one_function_of_bytes_and_world(self):
        assert allreduce_protocol("ring", 8, 1) == "naive"
        assert allreduce_protocol("ring", RENDEZVOUS_BYTES - 1, 2) == "naive"
        assert allreduce_protocol("ring", RENDEZVOUS_BYTES, 2) == "ring"
        assert allreduce_protocol("tree", RENDEZVOUS_BYTES // 7, 8) == "naive"
        assert allreduce_protocol("tree", RENDEZVOUS_BYTES // 7 + 1, 8) == "tree"

    @pytest.mark.parametrize("async_op", [False, True], ids=["sync", "async"])
    def test_small_integer_allreduce(self, async_op):
        def body(rank):
            pg = get_context().default_group
            total, peak = np.arange(5) * (rank + 1), np.arange(5) * (rank + 1)
            for x, op in ((total, ReduceOp.SUM), (peak, ReduceOp.MAX)):
                work = pg.allreduce(x, op, async_op=async_op)
                if async_op:
                    work.wait()
            return total.tolist(), peak.tolist(), str(total.dtype)

        expected = ([0, 10, 20, 30, 40], [0, 4, 8, 12, 16], "int64")
        assert run_world(4, body, backend="gloo") == [expected] * 4

    @pytest.mark.parametrize("world", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32])
    def test_allgather_and_reduce_match_numpy(self, world, dtype):
        """allgather and the standalone reduce (roots 0 and p − 1) through
        the group: the numpy result bit for bit, and the literal message
        counts of the algorithm-level tests."""
        rng = np.random.default_rng([world, np.dtype(dtype).itemsize])
        inputs = [(rng.standard_normal(19) * 1e3).astype(dtype) for _ in range(world)]
        ops = {"sum": np.add, "max": np.maximum, **({} if dtype is np.int32 else {"avg": np.add})}
        calls = [(root, op) for root in sorted({0, world - 1}) for op in ops]

        def body(rank):
            pg, out = get_context().default_group, []
            for root, op in [(None, None)] + calls:
                x, before = inputs[rank].copy(), pg.hub.messages_sent[rank]
                got = pg.allgather(x) if root is None else pg.reduce(x, root=root, op=op)
                out.append(((x if got is None else got).tobytes(), pg.hub.messages_sent[rank] - before))
            return out

        for rank, ((gathered, sent), *reduced) in enumerate(run_world(world, body, backend="gloo")):
            assert (gathered, sent) == (np.stack(inputs).tobytes(), ALLGATHER_MSGS[world][rank])
            for (root, op), (got, sent) in zip(calls, reduced):
                assert sent == REDUCE_MSGS[world, root][rank]
                want = tree_reduced(inputs, root, ops[op], world if op == "avg" else 1)
                assert rank != root or got == want.tobytes(), (root, op)

    def test_small_async_allreduce_keeps_its_errors(self):
        """The one-round protocol sits behind the same signature check
        and the same timeout translation as every other algorithm."""
        def mismatched(rank):
            pg = get_context().default_group
            pg.allreduce(np.ones(N + 2 * rank), async_op=True).wait()

        with pytest.raises(RuntimeError, match="mismatch") as excinfo:
            run_world(2, mismatched, backend="gloo", timeout=3)
        assert isinstance(excinfo.value.__cause__, CollectiveMismatchError)
        assert "differing fields:" in str(excinfo.value)
        assert "shape: " in str(excinfo.value)

        def alone(rank):
            if rank == 0:
                get_context().default_group.allreduce(np.ones(N), async_op=True).wait()

        with pytest.raises(RuntimeError, match="rank 0 failed") as excinfo:
            run_world(2, alone, backend="gloo", timeout=0.3)
        assert isinstance(excinfo.value.__cause__, CollectiveTimeoutError)

    @pytest.mark.parametrize("name", list(OP_MATRIX))
    def test_absent_peer_raises_collective_timeout(self, name):
        """Every collective translates the transport's timeout into a
        ``CollectiveTimeoutError`` (five of the ten used to leak the raw
        ``TransportTimeoutError``, which is not a ``CollectiveError``)."""
        # Rank 0 leads the group (its signature check passes at once)
        # and must be a receiver, so root the rooted ops accordingly.
        root = 1 if name in ("broadcast", "scatter") else 0

        def body(rank):
            if rank == 0:
                _issue(get_context().default_group, name, root=root)

        with pytest.raises(RuntimeError, match="rank 0 failed") as excinfo:
            run_world(2, body, backend="gloo", timeout=0.3)
        assert isinstance(excinfo.value.__cause__, CollectiveTimeoutError)


# ----------------------------------------------------------------------
# split phase: collectives under the size rule complete on the caller
# ----------------------------------------------------------------------
#: float64 elements that put one buffer over the size rule at world 3.
OVER_RULE = RENDEZVOUS_BYTES // 16


class TestSplitPhaseMismatch:
    """A split-phase rank never reduces a peer's mismatched payload: the
    one-round mailbox is keyed by the fingerprint, so a disagreeing post
    is never consumed, and a non-leader verifies the leader's signature
    before it receives anything."""

    @pytest.mark.parametrize("level", ["OFF", "DETAIL"])
    @pytest.mark.parametrize("odd", [0, 2], ids=["leader", "non-leader"])
    @pytest.mark.parametrize("case", ["reduce_op", "dtype", "shape", "over_rule", "under_rule"])
    def test_mismatch_is_diagnosed_never_reduced(self, debug_level, case, odd, level):
        debug_level(level)
        field = {"reduce_op": "reduce_op", "dtype": "dtype"}.get(case, "shape")
        outcomes = {}

        def body(rank):
            pg = get_context().default_group
            n, dtype, op = N, np.float64, ReduceOp.SUM
            if case == "under_rule":  # the odd rank alone under the rule
                n = N if rank == odd else OVER_RULE
            elif rank == odd:
                if case == "reduce_op":
                    op = ReduceOp.MAX
                elif case == "dtype":
                    dtype = np.float32
                elif case == "shape":
                    n = N + 2
                else:  # the odd rank alone over the rule
                    n = OVER_RULE
            x = np.full(n, rank + 1, dtype=dtype)
            assert algorithms.one_round(x.nbytes, pg.size) == (n == N + 2 or n == N)
            try:
                pg.allreduce(x, op)
                outcomes[rank] = x.copy()
            except BaseException as exc:
                outcomes[rank] = exc
                raise

        with pytest.raises(RuntimeError, match="mismatch") as excinfo:
            run_world(3, body, backend="gloo", timeout=3)
        error = excinfo.value.__cause__
        assert isinstance(error, CollectiveMismatchError)
        assert "differing fields:" in str(error) and f"{field}: " in str(error)
        assert ("per-rank signatures" in str(error)) == (level == "DETAIL")
        for rank, outcome in outcomes.items():
            # Ranks that matched are woken by the hub closing behind the
            # diagnosis; none reduced a foreign payload or returned.
            assert isinstance(outcome, (CollectiveMismatchError, TransportClosedError)), (
                rank, outcome)


class TestSplitPhase:
    """Semantics of a split-phase ``Work``: posted at issue, completed by
    whoever waits for it, exactly once."""

    @pytest.mark.parametrize("world", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32])
    def test_bitwise_equal_to_the_reference_algorithms(self, world, dtype):
        ops = [ReduceOp.SUM, ReduceOp.MAX]
        if dtype is not np.int32:
            ops.append(ReduceOp.AVG)
        rng = np.random.default_rng([world, np.dtype(dtype).itemsize])
        inputs = {op: [(rng.standard_normal(37) * 1e3).astype(dtype) for _ in range(world)]
                  for op in ops + ["bcast"]}
        root = world - 1

        def through_group(rank):
            pg = get_context().default_group
            out = []
            for op in ops:
                x = inputs[op][rank].copy()
                work = pg.allreduce(x, op, async_op=True)
                assert isinstance(work, _SplitWork)
                work.wait()
                out.append(x.tobytes())
            x = inputs["bcast"][rank].copy()
            assert isinstance(pg.broadcast(x, src=root, async_op=True), _SplitWork)
            pg.broadcast(x, src=root)  # and the sync form
            out.append(x.tobytes())
            return out

        def through_algorithms(rank):
            hub, ranks = get_context().hub, list(range(world))
            out = []
            for op in ops:
                x = inputs[op][rank].copy()
                algorithms.allreduce_naive(hub, ranks, rank, x, op, ("ref", op))
                out.append(x.tobytes())
            x = inputs["bcast"][rank].copy()
            algorithms.broadcast(hub, ranks, rank, x, root, "ref-bcast")  # the tree
            out.append(x.tobytes())
            return out

        grouped = run_world(world, through_group, backend="gloo")
        assert grouped == run_world(world, through_algorithms)
        # ...and the reduction is the group-rank-ordered one.
        for op, got in zip(ops, grouped[0]):
            fn = algorithms.REDUCE_FUNCTIONS["sum" if op == ReduceOp.AVG else op]
            expect = inputs[op][0].copy()
            for piece in inputs[op][1:]:
                fn(expect, piece, out=expect)
            if op == ReduceOp.AVG:
                expect /= world
            assert got == expect.tobytes()

    @pytest.mark.parametrize("name", ["allreduce", "broadcast"])
    def test_contribution_is_the_value_at_issue(self, name):
        def body(rank):
            pg = get_context().default_group
            x = np.full(5, float(rank + 1))
            work = getattr(pg, name)(x, async_op=True)
            x[:] = -100.0  # the caller writes the buffer before wait()
            work.wait()
            return x.tolist()

        results = run_world(3, body, backend="gloo")
        if name == "allreduce":
            assert results == [[6.0] * 5] * 3
        else:  # the root's buffer is its own; every peer got its value at issue
            assert results[1:] == [[1.0] * 5] * 2

    def test_is_completed_drains_without_parking(self):
        """A poll takes whatever has arrived and never parks; the poll that
        finds the last contribution completes the Work."""
        posted = [threading.Event() for _ in range(3)]
        polled = threading.Event()

        def body(rank):
            pg = get_context().default_group
            x = np.full(4, float(rank + 1))
            if rank == 0:
                posted[1].wait(5)
            elif rank == 2:
                polled.wait(5)
            work = pg.allreduce(x, async_op=True)
            posted[rank].set()
            if rank == 0:
                assert not work.is_completed()
                assert work._exchange.missing == [2]  # rank 1's was taken
                assert pg.hub.blocked_receivers() == []
                polled.set()
            while not work.is_completed():
                assert work.record.t_end is None
            assert work.record.state == "completed"
            work.wait()  # already complete: returns at once
            return x.tolist()

        assert run_world(3, body, backend="gloo") == [[6.0] * 4] * 3

    def test_polling_alone_recovers_a_dropped_post(self):
        """On the retrying hub a poll re-requests a post the sender has
        logged but the wire lost, so an ``is_completed()`` loop with no
        ``wait()`` still finishes."""
        hub = ReliableTransportHub(2, default_timeout=10.0)
        plan = FaultPlan([drop(rank=1, times=1)])

        def body(rank):
            pg = get_context().default_group
            x = np.full(4, float(rank + 1))
            work = pg.allreduce(x, async_op=True)
            while not work.is_completed():
                pass
            work.wait()
            return x.tolist()

        assert run_world(2, body, backend="gloo", hub=hub, fault_plan=plan) == [[3.0] * 4] * 2
        assert plan.total_triggered() == 1 and hub.retransmits[0] >= 1

    def test_a_failed_post_is_raised_by_wait(self):
        """A wire-scoped crash fires on the issuing thread as it posts; the
        call still returns a Work, and its wait() raises — as it would
        for a collective a worker ran."""
        seen = {}

        def body(rank):
            pg = get_context().default_group
            work = pg.allreduce(np.ones(4), async_op=True)
            seen[rank] = work.record.state
            work.wait()

        with pytest.raises(RuntimeError, match="rank 1 failed") as excinfo:
            run_world(2, body, backend="gloo", timeout=3,
                      fault_plan=FaultPlan([crash_rank(1)]))
        assert isinstance(excinfo.value.__cause__, InjectedRankFailure)
        assert seen[1] == "failed"

    def test_two_waiters_complete_it_exactly_once(self):
        def body(rank):
            pg = get_context().default_group
            x = np.full(4, float(rank + 1))
            if rank == 1:
                time.sleep(0.1)  # both of rank 0's waiters are in wait() first
            work = pg.allreduce(x, async_op=True)
            if rank == 1:
                work.wait()
                return None
            executed, real = [], pg._execute
            pg._execute = lambda *args: (executed.append(args[0]), real(*args))[1]
            waiters = [threading.Thread(target=work.wait) for _ in range(2)]
            for waiter in waiters:
                waiter.start()
            for waiter in waiters:
                waiter.join(5)
            return executed == [work], any(w.is_alive() for w in waiters), x.tolist()

        assert run_world(2, body, backend="gloo")[0] == (True, False, [3.0] * 4)

    def test_shutdown_strands_no_thread(self):
        """Rank 1 never joins: shutdown wakes the thread parked completing
        one Work and fails the one nobody waited for, so its later wait()
        raises at once."""
        def body(rank):
            pg = get_context().default_group
            if rank == 1:
                return None
            waited = pg.allreduce(np.ones(4), async_op=True)
            unwaited = pg.allreduce(np.ones(4), async_op=True)
            errors = []

            def waiter():
                try:
                    waited.wait()
                except CollectiveError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=waiter)
            thread.start()
            wait_until(lambda: pg.hub.blocked_receivers())
            start = time.perf_counter()
            ok = pg.shutdown(grace=0.2)
            thread.join(5)
            shut = time.perf_counter() - start
            with pytest.raises(CollectiveError, match="shut down before allreduce#1"):
                unwaited.wait()
            return ok, shut, thread.is_alive(), [str(e) for e in errors], pg._executing

        ok, shut, alive, errors, executing = run_world(2, body, backend="gloo", timeout=30)[0]
        assert ok and not alive and not executing
        assert shut < 5.0  # the group timeout is 30 s
        assert len(errors) == 1 and "shut down before allreduce#0" in errors[0]

    def test_hung_collective_is_named(self, debug_level):
        """A split-phase AllReduce a peer never issues: its caller shows up
        parked under the collective's tag, and the watchdog's desync
        report names it and the culprit."""
        debug_level("INFO")
        seen = {}

        def body(rank):
            pg = get_context().default_group
            if rank == 0:
                pg.allreduce(np.ones(4))  # rank 1 never issues it
            else:
                wait_until(lambda: pg.hub.blocked_receivers())
                seen["blocked"] = pg.hub.blocked_receivers()

        with pytest.raises(RuntimeError) as excinfo:
            run_world(2, body, backend="gloo", timeout=2.0)
        (entry,) = seen["blocked"]
        assert (entry["rank"], entry["waiting_on"]) == (0, 1)
        assert "(0, 0, 'allreduce')" in entry["tag"]
        message = str(excinfo.value)
        assert "cross-rank desync detected" in message
        assert "allreduce#0" in message and "culprit rank(s) [1]" in message
        assert "in recv from rank 1" in message


    def test_compute_between_post_and_wait_is_not_a_hang(self, debug_level):
        """The watchdog times a split-phase collective from when a thread
        began completing it: a wait() long after the post is no alarm."""
        debug_level("INFO")

        def body(rank):
            pg = get_context().default_group
            threshold = pg._watchdog.hang_threshold
            x = np.ones(4)
            if rank == 1:  # posts late, but well inside the threshold of rank 0's wait
                time.sleep(1.5 * threshold + 0.4 * threshold)
            work = pg.allreduce(x, async_op=True)
            if rank == 0:
                time.sleep(1.5 * threshold)  # "compute" between post and wait
            work.wait()
            return x[0], pg._watchdog.status()["alarms_raised"]

        assert run_world(2, body, backend="gloo", timeout=0.6) == [(2.0, 0)] * 2


class TestSplitPhaseStress:
    """Completions racing each other under short and long switch
    intervals: sync and async calls, ``is_completed()`` spins, two
    waiters on one Work, buffers scribbled before ``wait()``, barriers —
    the op sequence from one seeded script, how each rank waits from its
    own.  A lost wake-up hangs, a double completion miscounts."""

    @pytest.mark.parametrize("interval", [1e-6, 1e-4, 5e-3])
    @pytest.mark.parametrize("hub_cls", [TransportHub, ReliableTransportHub])
    def test_completion_races(self, hub_cls, interval):
        world, rounds = 3, 200
        hub = hub_cls(world, default_timeout=20.0)

        def body(rank):
            pg = get_context().default_group
            executed, real = [], pg._execute
            pg._execute = lambda *args: (executed.append(args[0]), real(*args))[1]
            script = np.random.default_rng([CHAOS_SEED, world])
            mine = np.random.default_rng([CHAOS_SEED, rank])
            for i in range(rounds):
                kind, n, how = script.integers(0, 3), script.integers(1, 64), mine.integers(0, 4)
                if kind == 2:
                    pg.barrier()
                    continue
                root = i % world
                x = np.arange(n) + rank * i
                if kind == 0:
                    work, expect = pg.allreduce(x, async_op=True), world * np.arange(n) + 3 * i
                else:
                    work, expect = pg.broadcast(x, root, async_op=True), np.arange(n) + root * i
                if how == 1:
                    while not work.is_completed():
                        pass
                elif how == 2:
                    waiters = [threading.Thread(target=work.wait) for _ in range(2)]
                    for waiter in waiters:
                        waiter.start()
                    for waiter in waiters:
                        waiter.join()
                elif how == 3 and not (kind == 1 and rank == root):
                    x[:] = -1  # the contribution was taken at issue
                work.wait()
                assert np.array_equal(x, expect), (i, kind, how)
            return len(executed), len(set(map(id, executed))), pg._pending, pg._executing

        previous = sys.getswitchinterval()
        sys.setswitchinterval(interval)
        try:
            results = run_world(world, body, backend="gloo", timeout=20.0, hub=hub)
        finally:
            sys.setswitchinterval(previous)
        for executed, distinct, pending, executing in results:
            assert executed == distinct == rounds  # every collective completed once
            assert not pending and not executing
        resent = sum(getattr(hub, "retransmits", [0]))
        assert hub.pending_messages() <= resent and len(hub._gates) == 0
