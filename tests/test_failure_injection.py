"""Failure injection: skipped collectives, dying ranks, stragglers.

Distributed failures in real deployments surface as NCCL timeouts or
silent hangs; these tests verify the library turns each injected fault
into a *diagnosable* error rather than a deadlock or corruption.

Slow ranks and crashes are injected through the first-class
:class:`FaultPlan` API (``repro.resilience``) installed on a
``TransportHub``.  A rank that skips a collective — the desync of the
paper's Fig. 3 — needs no plan: its peers wait for a message that never
comes.
"""

import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.comm import get_context, run_distributed
from repro.comm.transport import TransportHub, TransportTimeoutError
from repro.comm import algorithms as alg
from repro.core import DistributedDataParallel
from repro.optim import SGD
from repro.resilience import FaultPlan, slow_rank

from conftest import run_world, small_classifier


def _run_on_hub(hub, world, fn, timeout=15):
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
        t.join(timeout)
    return results, errors


class TestSkippedCollective:
    """One rank skips a collective its peers run (paper Fig. 3)."""

    def test_skipped_allreduce_times_out_naming_rank_peer_and_tag(self):
        hub = TransportHub(2, default_timeout=0.3)

        def body(h, rank):
            buf = np.ones(8)
            if rank == 0:
                alg.allreduce_ring(h, [0, 1], rank, buf, "sum", tag="t")
            return buf

        _, errors = _run_on_hub(hub, 2, body)
        assert [rank for rank, _ in errors] == [0]
        error = errors[0][1]
        assert isinstance(error, TransportTimeoutError)
        message = str(error)
        assert "rank 0 timed out waiting for message from rank 1" in message
        assert "'t'" in message

    def test_skipped_broadcast_detected(self):
        """An interior rank of the binomial tree skips the broadcast: the
        child it should have fed times out naming it, and the root's copy
        stays undelivered."""
        hub = TransportHub(4, default_timeout=0.3)

        def body(h, rank):
            buf = np.full(4, float(rank))
            if rank != 2:
                alg.broadcast(h, list(range(4)), rank, buf, root=0, tag="x")
            return buf

        results, errors = _run_on_hub(hub, 4, body)
        assert [rank for rank, _ in errors] == [3]
        assert "from rank 2" in str(errors[0][1])
        assert np.array_equal(results[1], np.zeros(4))
        assert hub.pending_messages() >= 1


class TestStragglers:
    def test_slow_rank_delays_but_does_not_break_collectives(self):
        hub = TransportHub(3, default_timeout=10)
        FaultPlan([slow_rank(2, 0.05)]).install(hub)

        def body(h, rank):
            buf = np.full(4, float(rank + 1))
            alg.allreduce_ring(h, [0, 1, 2], rank, buf, "sum", tag="t")
            return buf

        start = time.time()
        results, errors = _run_on_hub(hub, 3, body)
        elapsed = time.time() - start
        assert not errors
        for out in results:
            assert np.allclose(out, 6.0)
        # the straggler's sends gate the ring: 2(p-1)=4 delayed hops
        assert elapsed >= 0.05 * 2

    def test_ddp_training_tolerates_straggler(self):
        """DDP semantics are unaffected by timing skew — only latency."""
        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((4, 6)), rng.integers(0, 4, 4)

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 2, (rank + 1) * 2)
            for _ in range(2):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            return ddp.state_dict()

        states = run_distributed(
            2, body, backend="gloo", timeout=10,
            fault_plan=FaultPlan([slow_rank(1, 0.01)]),
        )
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name])


class TestRankDeath:
    def test_death_before_construction_blocks_rendezvous(self):
        def body(rank):
            if rank == 1:
                raise RuntimeError("died before joining the process group")
            # rank 0 blocks in rendezvous until the harness tears down
            get_context()
            DistributedDataParallel(small_classifier())

        with pytest.raises(RuntimeError, match="died before joining|rank"):
            run_world(2, body, backend="gloo", timeout=2)

    def test_death_mid_training_surfaces_original_error(self):
        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((4, 6)), rng.integers(0, 4, 4)

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 2, (rank + 1) * 2)
            loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
            if rank == 1:
                raise MemoryError("simulated OOM on rank 1")
            loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()

        with pytest.raises(RuntimeError, match="rank 1 failed: simulated OOM"):
            run_world(2, body, backend="gloo", timeout=5)
