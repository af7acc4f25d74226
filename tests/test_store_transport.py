"""Rendezvous store and point-to-point transport.

The chaos seed of the lost-wakeup stress is taken from
``REPRO_CHAOS_SEED`` (default 0), like the resilience suites.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from conftest import run_world, wait_until
from repro.comm.distributed import get_context
from repro.comm.store import Store, StoreTimeoutError
from repro.comm.transport import (
    _NOTHING,
    TransportClosedError,
    TransportHub,
    TransportTimeoutError,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def start(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def joined(threads, timeout=20.0):
    for thread in threads:
        thread.join(timeout)
    return not any(thread.is_alive() for thread in threads)


def count_polls(owner, name):
    """Wrap ``owner``'s poll method ``name``; returns the per-key counts."""
    polls, real = {}, getattr(owner, name)

    def counting(key):
        polls[key] = polls.get(key, 0) + 1
        return real(key)

    setattr(owner, name, counting)
    return polls


class TestStore:
    def test_set_get(self):
        store = Store()
        store.set("k", 42)
        assert store.get("k") == 42

    def test_get_blocks_until_set(self):
        store = Store()
        result = []

        def reader():
            result.append(store.get("slow", timeout=5))

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        store.set("slow", "value")
        t.join(timeout=5)
        assert result == ["value"]

    def test_get_timeout(self):
        with pytest.raises(StoreTimeoutError):
            Store().get("missing", timeout=0.05)

    def test_add_atomicity(self):
        store = Store()
        threads = [
            threading.Thread(target=lambda: [store.add("n") for _ in range(100)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.get("n") == 800

    def test_add_returns_new_value(self):
        store = Store()
        assert store.add("x", 5) == 5
        assert store.add("x", 2) == 7

    def test_wait_multiple_keys(self):
        store = Store()
        store.set("a", 1)
        store.set("b", 2)
        store.wait(["a", "b"], timeout=0.1)

    def test_wait_timeout_reports_missing(self):
        store = Store()
        store.set("a", 1)
        with pytest.raises(StoreTimeoutError, match="b"):
            store.wait(["a", "b"], timeout=0.05)

    def test_wait_value_predicate(self):
        store = Store()
        store.set("count", 3)
        assert store.wait_value("count", lambda v: v >= 3, timeout=0.1) == 3

    def test_delete_and_keys(self):
        store = Store()
        store.set("a", 1)
        assert store.delete("a")
        assert not store.delete("a")
        assert store.keys() == []


class TestTransport:
    def test_send_recv(self):
        hub = TransportHub(2)
        hub.send(0, 1, "t", np.arange(3))
        assert np.array_equal(hub.recv(1, 0, "t"), np.arange(3))

    def test_fifo_per_mailbox(self):
        hub = TransportHub(2)
        hub.send(0, 1, "t", 1)
        hub.send(0, 1, "t", 2)
        assert hub.recv(1, 0, "t") == 1
        assert hub.recv(1, 0, "t") == 2

    def test_tags_isolate(self):
        hub = TransportHub(2)
        hub.send(0, 1, "a", "A")
        hub.send(0, 1, "b", "B")
        assert hub.recv(1, 0, "b") == "B"
        assert hub.recv(1, 0, "a") == "A"

    def test_recv_blocks_until_send(self):
        hub = TransportHub(2)
        out = []

        def receiver():
            out.append(hub.recv(1, 0, "x", timeout=5))

        t = threading.Thread(target=receiver)
        t.start()
        time.sleep(0.05)
        hub.send(0, 1, "x", 99)
        t.join(timeout=5)
        assert out == [99]

    def test_recv_timeout_message_names_ranks(self):
        hub = TransportHub(2)
        with pytest.raises(TransportTimeoutError, match="rank 1 timed out"):
            hub.recv(1, 0, "never", timeout=0.05)

    def test_rank_bounds_checked(self):
        hub = TransportHub(2)
        with pytest.raises(ValueError):
            hub.send(0, 5, "t", 1)
        with pytest.raises(ValueError):
            hub.recv(-1, 0, "t")

    def test_close_wakes_receivers(self):
        hub = TransportHub(2)
        errors = []

        def receiver():
            try:
                hub.recv(1, 0, "x", timeout=10)
            except TransportClosedError as exc:
                errors.append(exc)

        t = threading.Thread(target=receiver)
        t.start()
        time.sleep(0.05)
        hub.close()
        t.join(timeout=5)
        assert len(errors) == 1

    def test_send_after_close_rejected(self):
        hub = TransportHub(2)
        hub.close()
        with pytest.raises(TransportClosedError):
            hub.send(0, 1, "t", 1)

    def test_stats_counting(self):
        hub = TransportHub(2)
        hub.send(0, 1, "t", np.zeros(10))
        assert hub.messages_sent[0] == 1
        assert hub.bytes_sent[0] == 80
        hub.reset_stats()
        assert hub.messages_sent == [0, 0]

    def test_pending_messages(self):
        hub = TransportHub(2)
        hub.send(0, 1, "t", 1)
        assert hub.pending_messages() == 1
        hub.recv(1, 0, "t")
        assert hub.pending_messages() == 0

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            TransportHub(0)


class TestParkedReceivers:
    """A receiver parks on its own mailbox; a deposit wakes that mailbox only."""

    def test_lost_wakeup_stress(self):
        """Eight threads ping-pong in bursts over random keys, so every
        send races the instant its receiver parks: each message arrives
        once, FIFO per key, and nothing is left behind in the hub."""
        pairs, rounds, tags = 4, 1300, 3
        hub = TransportHub(2 * pairs, default_timeout=10.0)
        polls = count_polls(hub, "_pop")
        errors = []

        def player(pair, first):
            # Both ends of a pair replay one seeded script of (tag, burst).
            script = np.random.default_rng([CHAOS_SEED, pair])
            me, peer = (2 * pair, 2 * pair + 1) if first else (2 * pair + 1, 2 * pair)
            sent, seen, total = [0] * tags, [0] * tags, 0
            try:
                for _ in range(rounds):
                    burst = [int(tag) for tag in script.integers(0, tags, script.integers(1, 4))]
                    for turn in (first, not first):  # pings one way, pongs back
                        for tag in burst:
                            if turn:
                                hub.send(me, peer, ("t", tag), (tag, sent[tag]))
                                sent[tag] += 1
                            else:
                                assert hub.recv(me, peer, ("t", tag)) == (tag, seen[tag])
                                seen[tag] += 1
                    total += 2 * len(burst)
            except BaseException as exc:  # noqa: BLE001 - reported by the test
                errors.append((pair, first, exc))
                hub.close()
                raise
            return total

        totals = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [start(lambda p=p, f=f: totals.append(player(p, f)))
                       for p in range(pairs) for f in (True, False)]
            assert joined(threads, timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        messages = sum(totals) // 2
        assert messages >= 20_000
        # Every poll past a receive's first one followed a park.
        assert sum(polls.values()) - messages >= 5_000
        assert sum(hub.messages_sent) == messages
        assert hub.pending_messages() == 0
        assert len(hub._mailboxes) == 0 and len(hub._gates) == 0
        assert hub.blocked_receivers() == []

    def test_deposit_wakes_only_its_own_key(self):
        hub = TransportHub(2)
        polls = count_polls(hub, "_pop")
        out = []
        thread = start(lambda: out.append(hub.recv(1, 0, "b", timeout=10)))
        wait_until(lambda: len(hub._gates) == 1)
        for n in range(50):
            hub.send(0, 1, ("a", n), n)
        time.sleep(0.05)
        assert polls[(0, 1, "b")] == 1  # looked once, parked, never woken
        assert len(hub.blocked_receivers()) == 1
        hub.send(0, 1, "b", "B")
        assert joined([thread]) and out == ["B"]
        assert polls[(0, 1, "b")] == 2

    def test_two_receivers_on_one_key_are_both_served(self):
        hub = TransportHub(2)
        out = []
        threads = [start(lambda: out.append(hub.recv(1, 0, "x", timeout=10)))
                   for _ in range(2)]
        wait_until(lambda: len(hub.blocked_receivers()) == 2)
        hub.send(0, 1, "x", 1)
        hub.send(0, 1, "x", 2)
        assert joined(threads) and sorted(out) == [1, 2]
        assert len(hub._gates) == 0

    def test_timeout_then_late_deposit_reaches_the_next_recv(self):
        hub = TransportHub(2)
        assert hub._wait_one((0, 1, "late"), 0.02) is _NOTHING
        with pytest.raises(TransportTimeoutError, match="rank 1 timed out"):
            hub.recv(1, 0, "late", timeout=0.02)
        assert len(hub._gates) == 0 and hub.blocked_receivers() == []
        hub.send(0, 1, "late", "here")
        assert hub.recv(1, 0, "late", timeout=1) == "here"
        assert len(hub._mailboxes) == 0 and len(hub._gates) == 0

    def test_close_wakes_every_parked_receiver(self):
        hub = TransportHub(4)
        errors = []

        def receiver(dst):
            try:
                hub.recv(dst, 0, ("tag", dst), timeout=10)
            except TransportClosedError as exc:
                errors.append(exc)

        threads = [start(receiver, dst) for dst in (1, 2, 3)]
        wait_until(lambda: len(hub.blocked_receivers()) == 3)
        hub.send(0, 1, "waiting", 1)
        hub.close()
        assert joined(threads) and len(errors) == 3
        # Closed wins even over a message that is already there.
        with pytest.raises(TransportClosedError):
            hub.recv(1, 0, "waiting", timeout=1)
        assert len(hub._gates) == 0

    def test_blocked_receivers_lists_parked_receivers_only(self):
        hub = TransportHub(3)
        hub.send(0, 1, "ready", 1)
        assert hub.recv(1, 0, "ready") == 1  # found at once: never listed
        assert hub.blocked_receivers() == []
        thread = start(lambda: hub.recv(2, 1, ("g", 7, "allreduce"), timeout=10))
        wait_until(lambda: hub.blocked_receivers())
        time.sleep(0.02)
        (entry,) = hub.blocked_receivers()
        assert set(entry) == {"rank", "waiting_on", "tag", "blocked_s"}
        assert (entry["rank"], entry["waiting_on"]) == (2, 1)
        assert entry["tag"] == repr(("g", 7, "allreduce"))
        assert 0.02 <= entry["blocked_s"] < 5.0
        hub.send(1, 2, ("g", 7, "allreduce"), None)
        assert joined([thread])
        assert hub.blocked_receivers() == []


class TestStoreParking:
    def test_get_timeout_text_and_empty_table(self):
        store = Store()
        with pytest.raises(StoreTimeoutError) as info:
            store.get("missing", timeout=0.05)
        assert str(info.value) == "store.get('missing') timed out after 0.05s"
        assert len(store._gates) == 0
        store.set("missing", 3)  # a late set is still there for the next get
        assert store.get("missing", timeout=0.05) == 3

    def test_set_wakes_only_its_own_key(self):
        store = Store()
        polls = count_polls(store, "_peek")
        out = []
        thread = start(lambda: out.append(store.get("mine", timeout=10)))
        wait_until(lambda: len(store._gates) == 1)
        for n in range(50):
            store.set(f"other/{n}", n)
            store.add("counter")
        time.sleep(0.05)
        assert polls["mine"] == 1
        store.set("mine", None)  # None is a value
        assert joined([thread]) and out == [None]
        assert polls["mine"] == 2 and len(store._gates) == 0

    def test_wait_is_woken_by_set_and_add(self):
        store = Store()
        done = []
        thread = start(lambda: done.append(store.wait(["a", "n", "b"], timeout=10)))
        wait_until(lambda: len(store._gates) == 1)
        store.set("a", 1)
        store.add("n")
        time.sleep(0.02)
        assert not done
        store.set("b", 2)
        assert joined([thread]) and done == [None]
        assert len(store._gates) == 0

    def test_wait_value_is_woken_by_set_and_add(self):
        store = Store()
        out = []
        threads = [
            start(lambda: out.append(store.wait_value("n", lambda v: v >= 3, timeout=10))),
            start(lambda: out.append(store.wait_value("s", lambda v: v == "go", timeout=10))),
        ]
        wait_until(lambda: len(store._gates) == 2)
        store.set("s", "wait")
        store.add("n")
        store.add("n")
        time.sleep(0.02)
        assert out == []
        store.add("n")
        store.set("s", "go")
        assert joined(threads) and sorted(out, key=str) == [3, "go"]
        with pytest.raises(StoreTimeoutError, match=r"store.wait_value\('n'\) timed out"):
            store.wait_value("n", lambda v: v > 3, timeout=0.02)
        assert len(store._gates) == 0


def test_emptied_mailboxes_are_freed():
    """500 world-4 AllReduces left 8,005 empty deques (6 MB) in the hub."""
    hub = TransportHub(4, default_timeout=20.0)

    def body(rank):
        group = get_context().default_group
        small, large = np.ones(8), np.ones(12_000)  # both sides of the size rule
        for i in range(500):
            group.allreduce(large if i % 50 == 0 else small)
        group.barrier()
        return True

    assert all(run_world(4, body, backend="gloo", timeout=20.0, hub=hub))
    assert len(hub._mailboxes) == 0
    assert hub.pending_messages() == 0
    assert len(hub._gates) == 0 and hub.blocked_receivers() == []
