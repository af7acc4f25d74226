"""Fault plans, the reliable wire, heartbeats, and checkpoints.

The chaos seed is taken from ``REPRO_CHAOS_SEED`` (default 0) so CI can
sweep several seeds over the same suite — every probabilistic fault
draw is a pure hash of (seed, rule, edge, count), making each seeded
run exactly reproducible.
"""

import os
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.comm import Store, get_context, liveness, run_distributed
from repro.comm.liveness import HeartbeatMonitor, RankMonitor
from repro.comm.process_group import CollectiveTimeoutError
from repro.comm.transport import TransportHub
from repro.core import DistributedDataParallel
from repro.debug import FlightRecorder
from repro.debug.flight_recorder import FAILED
from repro.optim import SGD
from repro.resilience import FaultPlan, crash_rank, delay
from repro.resilience.faults import InjectedRankFailure
from repro.utils import load_training_checkpoint, save_training_checkpoint

from conftest import bare_work, small_classifier

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _fired(plan, src, dst, tag) -> bool:
    """Whether one send fired a rule of ``plan``."""
    before = plan.total_triggered()
    plan.on_send(src, dst, tag)
    return plan.total_triggered() > before


class TestFaultPlan:
    def test_same_seed_same_faults(self):
        """Probabilistic rules are reproducible: identical plans fault
        identical messages regardless of call interleaving."""

        def run(seed):
            plan = FaultPlan([delay(0.0, probability=0.3)], seed=seed)
            return [_fired(plan, 0, 1, ("t", i)) for i in range(64)]

        first = run(CHAOS_SEED)
        assert first == run(CHAOS_SEED) and any(first) and not all(first)

    def test_after_and_times_windows(self):
        plan = FaultPlan([delay(0.0, after=2, times=3)], seed=0)
        fired = [_fired(plan, 0, 1, "t") for i in range(10)]
        # Skips the first 2 matches, fires exactly 3 times, then stops.
        assert fired == [False, False, True, True, True] + [False] * 5

    def test_windows_are_per_edge(self):
        plan = FaultPlan([delay(0.0, times=1)], seed=0)
        assert _fired(plan, 0, 1, "t")
        assert _fired(plan, 2, 3, "t")  # separate edge
        assert not _fired(plan, 0, 1, "t")

    def test_times_caps_firings_not_matches(self):
        """With probability < 1, ``times`` bounds actual triggers."""
        plan = FaultPlan([delay(0.0, probability=0.4, times=2)], seed=CHAOS_SEED)
        assert sum(_fired(plan, 0, 1, ("t", i)) for i in range(100)) == 2

    def test_collective_crash_rule(self):
        plan = FaultPlan([crash_rank(1, scope="collective", op="allreduce",
                                     after=2, times=1)])
        for seq in range(2):
            plan.on_collective(1, "allreduce", seq)  # inside `after` window
        plan.on_collective(0, "allreduce", 2)  # other rank: no match
        with pytest.raises(InjectedRankFailure):
            plan.on_collective(1, "allreduce", 2)
        plan.on_collective(1, "allreduce", 3)  # times=1: fired already

    def test_collective_scope_rejects_non_crash_actions(self):
        with pytest.raises(ValueError, match="crash_rank"):
            FaultPlan([delay(0.0, scope="collective")])


class TestReliableTransport:
    """The wire delivers every message once, in order, by reference; a
    fault plan can only slow a send or kill its sender."""

    def test_plain_hub_has_no_reliability_overhead_path(self):
        """The hub hands the receiver the sent object itself: no
        envelope, no copy."""
        hub = TransportHub(2)
        payload = np.ones(4)
        hub.send(0, 1, "t", payload)
        assert hub.recv(1, 0, "t") is payload

    def test_ddp_chaos_run_stays_in_lockstep(self):
        """DDP under seeded wire delays: replicas agree bit-for-bit."""
        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((8, 6)), rng.integers(0, 4, 8)
        plan = FaultPlan([delay(0.002, probability=0.2)], seed=CHAOS_SEED)

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model, bucket_cap_mb=0.0001)
            opt = SGD(ddp.parameters(), lr=0.05)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(3):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
            return ddp.state_dict()

        states = run_distributed(
            2, body, backend="gloo", timeout=10,
            store=Store(timeout=10), fault_plan=plan,
        )
        assert plan.total_triggered() > 0
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name])


class TestWorkWaitTimeout:
    def test_wait_timeout_marks_work_failed(self):
        work = bare_work(seq=3)
        with pytest.raises(CollectiveTimeoutError, match="caller-side wait"):
            work.wait(timeout=0.01)
        assert work.is_completed()
        # The failure sticks: later waits re-raise it.
        with pytest.raises(CollectiveTimeoutError):
            work.wait(timeout=0.01)

    def test_wait_timeout_fails_flight_record(self):
        recorder = FlightRecorder(rank=0)
        work = bare_work(seq=3)
        recorder.add(work.record)
        with pytest.raises(CollectiveTimeoutError):
            work.wait(timeout=0.01)
        (dumped,) = recorder.dump()["records"]
        assert dumped["state"] == FAILED
        assert "caller-side wait" in dumped["error"]

    def test_worker_success_wins_race_against_timeout(self):
        """First terminal state wins: a collective that finished as the
        caller's wait expires keeps its successful result."""
        work = bare_work(seq=4)
        work._complete(None)
        work.wait(timeout=0.0)  # does not raise: success already landed
        assert work.record.error is None


class TestStoreLifecycle:
    def test_group_namespace_cleaned_after_shutdown(self):
        """A run leaves no per-seq signature / watchdog / barrier keys —
        long elastic sessions must not grow the store without bound."""
        store = Store(timeout=10)

        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model, bucket_cap_mb=0.0001)
            loss_fn = nn.CrossEntropyLoss()
            rng = np.random.default_rng(0)
            X, Y = rng.standard_normal((4, 6)), rng.integers(0, 4, 4)
            shard = slice(rank * 2, (rank + 1) * 2)
            loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()

        run_distributed(2, body, backend="gloo", timeout=10, store=store)
        for prefix in ("pg0/", "pgdebug/0/", "mb/0/", "ddpchk/0/", "pgfini/0/"):
            assert store.keys(prefix) == [], f"leaked keys under {prefix}"

    def test_delete_prefix(self):
        store = Store()
        store.set("a/1", 1)
        store.set("a/2", 2)
        store.set("b/1", 3)
        assert store.delete_prefix("a/") == 2
        assert store.keys() == ["b/1"]


def fresh_beat(store, namespace, rank, now, timeout=5.0):
    """Wait until ``rank``'s published beat carries the fake time ``now``
    (the liveness thread beats once per tick)."""
    deadline = time.perf_counter() + timeout
    key = liveness.heartbeat_key(namespace, rank)
    while (store.try_get(key) or {}).get("time") != now:
        assert time.perf_counter() < deadline, "no beat at the current time"
        time.sleep(0.005)


@pytest.fixture
def clock(monkeypatch):
    """Liveness is judged on a clock the test drives: ``liveness.py``
    reads ``time.monotonic`` through its module-level ``time``, which is
    swapped for a fake here, so a loaded machine cannot make a live rank
    look dead (or a silent one look alive) by stalling a thread."""
    now = [100.0]
    monkeypatch.setattr(liveness, "time", types.SimpleNamespace(
        monotonic=lambda: now[0], perf_counter=time.perf_counter,
    ))
    return now


class TestHeartbeat:
    def test_monitor_detects_stopped_heartbeat(self, clock):
        store = Store()
        beating = RankMonitor(0)
        beating.beat(store, "hb-test")
        try:
            monitor = HeartbeatMonitor(store, "hb-test", [0])
            assert monitor.dead_ranks() == []
        finally:
            beating.stop()
        assert not beating.is_alive()
        # Nobody beats any more: the last one goes stale.
        clock[0] += liveness.MISS_THRESHOLD + 0.05
        assert monitor.dead_ranks() == [0]

    def test_never_started_rank_dead_only_after_grace(self, clock):
        store = Store()
        monitor = HeartbeatMonitor(store, "hb-test2", [0, 1])
        beating = RankMonitor(0)
        beating.beat(store, "hb-test2")
        try:
            clock[0] += liveness.STARTUP_GRACE - 0.1
            fresh_beat(store, "hb-test2", 0, clock[0])
            assert monitor.dead_ranks() == []  # rank 1 silent, inside the grace window
            clock[0] += 0.2
            fresh_beat(store, "hb-test2", 0, clock[0])
            assert monitor.dead_ranks() == [1]  # rank 0 is live, rank 1 never started
        finally:
            beating.stop()
        clock[0] += liveness.MISS_THRESHOLD + 0.05
        assert monitor.dead_ranks() == [0, 1]


def wait_until(predicate, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition never held"
        time.sleep(0.005)


def wait_aside(work):
    """Park a helper thread in ``work.wait()`` — a collective counts as
    hung from when a thread waits on it — and leave the caller free; the
    wait's failure (the hang report, the hub closing) is expected."""
    def waiter():
        try:
            work.wait()
        except Exception:
            pass

    threading.Thread(target=waiter, daemon=True).start()


class TestLivenessThread:
    """One thread beats and watches, so the hang report must never hold
    it.  In both tests rank 0 hangs in a ring AllReduce (waited on a
    helper thread, so its own thread stays free) that rank 1 never joins, and rank 1 has
    stopped its monitor, so it never answers the alarm: rank 0's report
    then waits out its whole grace window, which the frozen fake clock
    keeps open."""

    HANG_ELEMENTS = 1 << 16  # 512 KiB: above the one-round size rule

    def test_open_report_does_not_pause_beat(self, clock, debug_level):
        debug_level("INFO")
        done = threading.Event()

        def body(rank):
            ctx = get_context()
            if rank == 1:
                ctx.monitor.stop()
                assert done.wait(10.0)
                return None
            monitor = ctx.monitor
            monitor.beat(ctx.store, "hb-report")
            wait_aside(ctx.default_group.allreduce(np.ones(self.HANG_ELEMENTS), async_op=True))
            (watch,) = monitor._watches.values()
            wait_until(lambda: watch.report is not None)
            beats = monitor.beats
            wait_until(lambda: monitor.beats >= beats + 3)
            still_open = watch.report is not None
            clock[0] += watch.grace  # the window closes on the next tick
            wait_until(lambda: monitor.alarms_raised == 1)
            done.set()
            return still_open, monitor.status()["last_report"]

        (still_open, stuck), _ = run_distributed(2, body, backend="gloo", timeout=0.5)
        assert still_open
        assert "allreduce#0" in stuck

    def test_published_beat_is_the_latest_under_contention(self):
        """``beat()`` on the caller's thread races the tick's beat: the
        store must always end on the monitor's own count."""
        store = Store()
        monitor = RankMonitor(0)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                monitor.beat(store, "hb-race")
        finally:
            sys.setswitchinterval(previous)
            monitor.stop()
        assert not monitor.is_alive()
        key = liveness.heartbeat_key("hb-race", 0)
        assert store.try_get(key)["beat"] == monitor.beats

    def test_shutdown_mid_report_leaves_no_monitor_thread(self, clock, debug_level):
        debug_level("INFO")
        monitors = {}

        def body(rank):
            ctx = get_context()
            if rank == 1:
                ctx.monitor.stop()
                # Stay (and keep the parting snapshot back) until rank 0
                # has closed its context with the report still open.
                wait_until(lambda: 0 in monitors and not monitors[0].is_alive())
                return
            wait_aside(ctx.default_group.allreduce(np.ones(self.HANG_ELEMENTS), async_op=True))
            (watch,) = ctx.monitor._watches.values()
            wait_until(lambda: watch.report is not None)
            monitors[0] = ctx.monitor

        run_distributed(2, body, backend="gloo", timeout=0.5)
        assert not monitors[0].is_alive()
        assert monitors[0].alarms_raised == 0  # the report never finished
        assert "liveness-rank0" not in [t.name for t in threading.enumerate()]


class TestTrainingCheckpoint:
    def test_roundtrip_restores_model_optimizer_iteration(self, tmp_path):
        from repro.optim import Adam

        path = str(tmp_path / "ckpt.npz")
        model = small_classifier(seed=3)
        opt = Adam(model.parameters(), lr=0.01)
        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((4, 6)), rng.integers(0, 4, 4)
        loss_fn = nn.CrossEntropyLoss()
        for _ in range(2):
            opt.zero_grad()
            loss_fn(model(Tensor(X)), Y).backward()
            opt.step()
        save_training_checkpoint(path, model, opt, iteration=2)

        fresh = small_classifier(seed=11)  # different weights
        fresh_opt = Adam(fresh.parameters(), lr=0.01)
        info = load_training_checkpoint(path, fresh, fresh_opt)
        assert info["iteration"] == 2
        for (name, theirs) in fresh.state_dict().items():
            assert np.array_equal(theirs, model.state_dict()[name])
        # One more identical step on both stays in lockstep — only true
        # if Adam's moments and step count were restored too.
        for m, o in ((model, opt), (fresh, fresh_opt)):
            o.zero_grad()
            loss_fn(m(Tensor(X)), Y).backward()
            o.step()
        for (name, theirs) in fresh.state_dict().items():
            assert np.allclose(theirs, model.state_dict()[name])
