"""Rank contexts, init/destroy, and the run_distributed harness."""

import numpy as np
import pytest

from repro.comm import (
    Store,
    TransportHub,
    destroy_process_group,
    get_context,
    get_rank,
    get_world_size,
    init_process_group,
    new_process_group,
    run_distributed,
)

from conftest import bare_work


class TestContextAccess:
    def test_no_context_outside_harness(self):
        with pytest.raises(RuntimeError, match="no distributed context"):
            get_context()

    def test_rank_and_world(self):
        def body(rank):
            return get_rank(), get_world_size()

        assert run_distributed(3, body) == [(0, 3), (1, 3), (2, 3)]

    def test_fn_without_rank_argument(self):
        def body():
            return get_rank()

        assert run_distributed(2, body) == [0, 1]

    def test_context_cleared_after_run(self):
        run_distributed(2, lambda r: r)
        with pytest.raises(RuntimeError):
            get_context()


class TestInitProcessGroup:
    def test_init_requires_args_outside_harness(self):
        with pytest.raises(RuntimeError, match="store=|outside"):
            init_process_group("gloo")

    def test_standalone_init_with_explicit_plumbing(self):
        """init_process_group works outside run_distributed when all
        plumbing is supplied (the torch.distributed-style entry)."""
        import threading

        store = Store(timeout=5)
        hub = TransportHub(2, default_timeout=5)
        results = [None, None]

        def worker(rank):
            pg = init_process_group(
                "gloo", store=store, hub=hub, rank=rank, world_size=2
            )
            x = np.full(2, float(rank + 1))
            pg.allreduce(x)
            results[rank] = x[0]
            destroy_process_group()

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert results == [3.0, 3.0]

    def test_unknown_backend(self):
        def body(rank):
            init_process_group("smpi")

        with pytest.raises(RuntimeError, match="unknown backend"):
            run_distributed(2, body, timeout=3)

    def test_new_group_unknown_backend_fails_before_the_store(self):
        store = Store(timeout=3)

        def body(rank):
            new_process_group("smpi")

        with pytest.raises(RuntimeError, match=r"unknown backend 'smpi'; options: "):
            run_distributed(2, body, timeout=3, store=store)
        assert store.keys() == []  # no group id was allocated

    def test_default_group_set(self):
        def body(rank):
            return get_context().default_group.backend

        assert run_distributed(2, body, backend="nccl") == ["nccl", "nccl"]

    def test_destroy_idempotent(self):
        def body(rank):
            destroy_process_group()
            destroy_process_group()
            return True

        assert run_distributed(2, body, backend="gloo") == [True, True]


class TestErrorPropagation:
    def test_exception_reraised_with_rank(self):
        def body(rank):
            if rank == 1:
                raise ValueError("boom on rank 1")
            return rank

        with pytest.raises(RuntimeError, match="rank 1 failed: boom"):
            run_distributed(2, body)

    def test_peer_unblocked_when_one_rank_dies(self):
        """A rank crashing before a collective must not leave peers
        hanging until the timeout: the hub is closed and peers raise."""
        def body(rank):
            pg = get_context().default_group
            if rank == 0:
                raise ValueError("early death")
            pg.allreduce(np.zeros(4))

        with pytest.raises(RuntimeError, match="rank 0 failed: early death"):
            run_distributed(2, body, backend="gloo", timeout=5)

    def test_results_order_matches_ranks(self):
        assert run_distributed(4, lambda r: r * 10) == [0, 10, 20, 30]


class TestWorkHandle:
    def test_wait_timeout(self):
        from repro.comm.process_group import CollectiveTimeoutError

        work = bare_work("never-completes")
        with pytest.raises(CollectiveTimeoutError):
            work.wait(timeout=0.05)

    def test_error_propagates_through_wait(self):
        work = bare_work("fails")
        work._complete(ValueError("inner"))
        with pytest.raises(ValueError, match="inner"):
            work.wait()

    def test_repr(self):
        work = bare_work("x")
        assert "pending" in repr(work)
        work._complete()
        assert "done" in repr(work)
