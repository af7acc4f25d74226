"""Debug-layer smoke: provoke both desync failure modes and verify the
diagnosis (paper §3.2.3 / Fig. 3(a)).

Scenario 1 — **hang**: rank 1 issues fewer collectives than rank 0 and
exits, so rank 0's last AllReduce can never complete.  The hang watch of
rank 0's liveness thread must detect the stall *before* the transport
timeout, gather every rank's flight-recorder snapshot through the store,
and fail the run with a desync report naming rank 1 as the culprit and
the exact stuck collective.  While it runs, each rank must run exactly
one liveness thread and no other watcher.

Scenario 2 — **mismatch**: both ranks call AllReduce at the same
sequence number but with different tensor shapes.  The consistency
check must raise a ``CollectiveMismatchError`` showing both ranks'
collective fingerprints and the field-level diff.

Exit code 0 means the debug layer diagnosed both correctly; used by the
``debug-smoke`` CI job.

Run:
    REPRO_DEBUG=DETAIL python examples/desync_demo.py
"""

import re
import threading
import time

import numpy as np

from repro.comm import get_context, run_distributed
from repro.debug import clear_recorders, set_debug_level

TIMEOUT = 4.0


def watcher_threads(rank: int) -> list:
    """Threads named after ``rank`` other than the rank's own: the ones
    that watch or beat for it."""
    return sorted(
        t.name for t in threading.enumerate()
        if re.search(rf"rank{rank}(?!\d)", t.name) and t is not threading.current_thread()
    )


def hang_scenario() -> float:
    """Rank 1 stops issuing collectives; returns the wall time to fail."""
    watchers = {}

    def train(rank: int):
        group = get_context().default_group
        watchers[rank] = watcher_threads(rank)
        group.allreduce(np.ones(8))          # seq 0: both ranks join
        if rank == 0:
            group.allreduce(np.ones(8))      # seq 1: rank 1 never joins

    start = time.perf_counter()
    try:
        run_distributed(2, train, backend="gloo", timeout=TIMEOUT)
    except RuntimeError as exc:
        elapsed = time.perf_counter() - start
        message = str(exc)
        print(f"run failed after {elapsed:.2f}s (group timeout {TIMEOUT}s):\n")
        print(message)
        assert "cross-rank desync detected" in message, "no desync report"
        assert "allreduce#1" in message, "stuck collective not named"
        assert "culprit rank(s) [1]" in message, "culprit rank not named"
        assert "rank 1 (shutdown)" in message, "rank 1 parting state missing"
        assert elapsed < TIMEOUT, (
            f"diagnosis took {elapsed:.2f}s — slower than the {TIMEOUT}s "
            f"group timeout; the hang watch never fired"
        )
        assert watchers == {r: [f"liveness-rank{r}"] for r in (0, 1)}, (
            f"expected one liveness thread per rank, saw {watchers}"
        )
        return elapsed
    raise AssertionError("desynced run finished without an error")


def mismatch_scenario() -> None:
    """Ranks disagree on the shape of collective #1."""

    def train(rank: int):
        group = get_context().default_group
        group.allreduce(np.ones(4))                    # seq 0: consistent
        group.allreduce(np.ones(4 if rank == 0 else 3))  # seq 1: shapes differ

    try:
        run_distributed(2, train, backend="gloo", timeout=TIMEOUT)
    except RuntimeError as exc:
        message = str(exc)
        print(f"\nrun failed with the expected mismatch:\n\n{message}")
        assert "mismatch" in message
        assert "shape: (3,) != (4,)" in message, "field-level diff missing"
        assert "shape=(3,)" in message and "shape=(4,)" in message, (
            "both ranks' fingerprints should appear"
        )
        return
    raise AssertionError("mismatched run finished without an error")


def main() -> None:
    set_debug_level("DETAIL")

    print("=== scenario 1: rank stops issuing collectives (hang) ===\n")
    elapsed = hang_scenario()

    clear_recorders()
    print("\n=== scenario 2: ranks issue different collectives (mismatch) ===")
    mismatch_scenario()

    print(f"\ndebug smoke passed: hang diagnosed in {elapsed:.2f}s "
          f"(< {TIMEOUT}s group timeout), mismatch diff rendered.")


if __name__ == "__main__":
    main()
