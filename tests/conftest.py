"""Shared test helpers."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import nn
from repro.comm import run_distributed
from repro.comm.process_group import Work
from repro.debug import (
    CollectiveRecord,
    clear_recorders,
    fingerprint,
    get_debug_level,
    set_debug_level,
)
from repro.utils import manual_seed


def run_world(world_size, fn, backend=None, timeout=10.0, **options):
    """Run ``fn`` on rank threads with a short test-friendly timeout.

    Extra keyword arguments (``hub=``, ``store=``, ``fault_plan=``) go
    to ``run_distributed``.
    """
    return run_distributed(world_size, fn, backend=backend, timeout=timeout, **options)


def wait_until(condition, timeout=5.0):
    """Poll ``condition`` every 2 ms; fail the test if it never holds."""
    deadline = time.perf_counter() + timeout
    while not condition():
        assert time.perf_counter() < deadline, "condition never held"
        time.sleep(0.002)


def bare_work(op="allreduce", seq=0, bytes=None):
    """A ``Work`` no worker will ever complete, for handle-level tests."""
    return Work(CollectiveRecord(seq, 0, fingerprint(op), bytes=bytes))


def numeric_gradient(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. ``array``."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn()
        flat[i] = original - eps
        lower = fn()
        flat[i] = original
        gflat[i] = (upper - lower) / (2 * eps)
    return grad


def small_classifier(seed: int = 7) -> nn.Module:
    """A deterministic 2-layer classifier (same weights for same seed)."""
    manual_seed(seed)
    return nn.Sequential(nn.Linear(6, 16), nn.ReLU(), nn.Linear(16, 4))


def buffered_classifier(seed: int = 7) -> nn.Module:
    """Classifier containing BatchNorm buffers."""
    manual_seed(seed)
    return nn.Sequential(
        nn.Linear(6, 16), nn.BatchNorm1d(16), nn.ReLU(), nn.Linear(16, 4)
    )


@pytest.fixture
def debug_level():
    """Set the debug level for one test; restore OFF-state afterwards."""
    previous = get_debug_level()
    clear_recorders()
    yield set_debug_level
    set_debug_level(previous)
    clear_recorders()


@pytest.fixture
def flight():
    """Flight recorder on for one test (REPRO_DEBUG=INFO), off after."""
    previous = get_debug_level()
    clear_recorders()
    set_debug_level("INFO")
    yield
    set_debug_level(previous)
    clear_recorders()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
