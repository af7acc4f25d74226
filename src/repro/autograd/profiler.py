"""Per-op self-time profile of the autograd tape.

:func:`profile_ops` is a context manager that, on enter, swaps a timing
wrapper onto the ``forward`` / ``backward`` of every :class:`Function`
subclass and onto :meth:`AccumulateGrad.accumulate`, and on exit puts
the originals back — so there is nothing on the hot path while it is
off.  The wrappers are installed on the *classes*, which every thread
shares, and the profile keeps one plain call stack: use it from a single
thread (a local training loop), not inside ``run_distributed``.

::

    with profile_ops() as prof:
        for _ in range(iters):
            loss_fn(model(x), y).backward()
    for row in prof.rows(iters):
        print(row.op, row.direction, row.self_ms_per_iter)

``python -m repro.autograd.profiler --model transformer|mlp|convnet
--iters N`` prints the ranked table for one of the benchmark's models on
a local (unwrapped, single-thread) training loop, how many tape nodes
one iteration records (loss included), and how many numpy calls one
optimizer step makes (:func:`count_numpy_calls`, which works
under ``run_distributed`` too: the count is kept per thread).
"""

from __future__ import annotations

import argparse
import contextlib
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.autograd.engine import AccumulateGrad
from repro.autograd.function import Function
from repro.autograd.graph import collect_participating_accumulators, graph_node_count


class OpRow(NamedTuple):
    """One line of the profile: an op's forward, backward or accumulate."""

    op: str
    direction: str
    calls_per_iter: float
    self_ms_per_iter: float
    #: Fraction of the summed self time of all profiled ops.
    share: float


class OpProfile:
    """Call counts and self seconds per ``(op, direction)``."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        # One entry per wrapper currently running: the time its children
        # (e.g. an op run by a post-hook of ``accumulate``) have taken.
        self._children: List[float] = []

    def timed(self, op: str, direction: str, fn: Callable) -> Callable:
        """``fn`` wrapped to charge its self time to ``(op, direction)``."""
        key = (op, direction)
        children = self._children

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.calls[key] += 1
                self.self_s[key] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        return wrapper

    def total_ms(self, iters: int) -> float:
        """Summed self time of every profiled op, per iteration."""
        return sum(self.self_s.values()) * 1e3 / iters

    def rows(self, iters: int) -> List[OpRow]:
        """Rows ranked by self time, normalised to one of ``iters`` iterations."""
        total = sum(self.self_s.values()) or 1.0
        rows = [
            OpRow(op, direction, self.calls[op, direction] / iters,
                  seconds * 1e3 / iters, seconds / total)
            for (op, direction), seconds in self.self_s.items()
        ]
        return sorted(rows, key=lambda row: row.self_ms_per_iter, reverse=True)


def _function_classes(root=Function) -> Iterator[type]:
    for cls in root.__subclasses__():
        yield cls
        yield from _function_classes(cls)


@contextlib.contextmanager
def profile_ops() -> Iterator[OpProfile]:
    """Time every autograd op run inside the block (single thread only)."""
    profile = OpProfile()
    originals = []
    for cls in set(_function_classes()):
        for direction in ("forward", "backward"):
            original = cls.__dict__.get(direction)
            if isinstance(original, staticmethod):
                originals.append((cls, direction, original))
                wrapped = profile.timed(cls.__name__, direction, original.__func__)
                setattr(cls, direction, staticmethod(wrapped))
    accumulate = AccumulateGrad.accumulate
    originals.append((AccumulateGrad, "accumulate", accumulate))
    AccumulateGrad.accumulate = profile.timed("AccumulateGrad", "accumulate", accumulate)
    try:
        yield profile
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)


class _CountingNumpy:
    """Stands in for a module's ``np`` global: numpy's functions and
    ufuncs come out wrapped to count one call for the calling thread,
    types and constants come out as they are."""

    def __init__(self, counts: Counter):
        self._counts = counts

    def __getattr__(self, name: str):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr
        counts = self._counts

        def counted(*args, **kwargs):
            counts[threading.get_ident()] += 1
            return attr(*args, **kwargs)

        return counted


@contextlib.contextmanager
def count_numpy_calls() -> Iterator[Counter]:
    """Count the numpy calls ``repro.optim`` makes inside the block.

    The optimizer kernels reach numpy only through their modules' ``np``
    global (every ufunc is an explicit ``np.multiply(..., out=...)``), so
    swapping that global for a counting stand-in sees each call; the
    originals are put back on exit.  The swap is process-wide, so enter
    the block once, *around* ``run_distributed``; the ``Counter`` it
    yields is keyed by thread ident and each rank thread reads its own
    ``counts[threading.get_ident()]`` before and after a step.
    """
    from repro.optim import adam, optimizer, sgd

    counts: Counter = Counter()
    modules = (adam, optimizer, sgd)
    for module in modules:
        module.np = _CountingNumpy(counts)
    try:
        yield counts
    finally:
        for module in modules:
            module.np = np


def format_table(rows: Sequence[OpRow], iter_ms: Optional[float] = None) -> str:
    """The ranked table; with ``iter_ms`` a second share column, of the
    measured iteration rather than of op self time."""
    header = f"{'op':<16}{'direction':<12}{'calls/iter':>11}{'self ms/iter':>14}{'share':>8}"
    if iter_ms:
        header += f"{'% iter':>8}"
    lines = [header]
    for row in rows:
        line = (f"{row.op:<16}{row.direction:<12}{row.calls_per_iter:>11.1f}"
                f"{row.self_ms_per_iter:>14.3f}{row.share:>8.1%}")
        if iter_ms:
            line += f"{row.self_ms_per_iter / iter_ms:>8.1%}"
        lines.append(line)
    return "\n".join(lines)


def _workload(name: str):
    """Model, one batch, loss and optimizer: the benchmark's local pass."""
    import numpy as np

    from repro import nn, optim
    from repro.autograd.tensor import Tensor
    from repro.data import synthetic_mnist
    from repro.models import MLP, ConvNet, TinyTransformer
    from repro.utils import manual_seed

    manual_seed(0)
    rng = np.random.default_rng(0)
    if name == "transformer":
        model = TinyTransformer(vocab_size=256, max_seq_len=32, hidden=128, num_heads=4,
                                num_layers=4, ffn_dim=512, num_classes=8)
        inputs, labels = rng.integers(0, 256, (8, 32)), rng.integers(0, 8, 8)
        optimizer = optim.Adam(model.parameters(), lr=1e-3)
    elif name == "mlp":
        model = MLP(1024, [1024] * 4, 8)
        inputs, labels = Tensor(rng.standard_normal((4, 1024))), rng.integers(0, 8, 4)
        optimizer = optim.SGD(model.parameters(), lr=0.01, momentum=0.9)
    else:
        model = ConvNet(channels=8)
        images, labels = synthetic_mnist(16, seed=0).arrays
        inputs = Tensor(images)
        optimizer = optim.SGD(model.parameters(), lr=0.05)
    return model, inputs, labels, nn.CrossEntropyLoss(), optimizer


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--model", choices=("transformer", "mlp", "convnet"),
                        default="transformer")
    parser.add_argument("--iters", type=int, default=20)
    args = parser.parse_args(argv)
    if args.iters < 1:
        parser.error("--iters must be at least 1")
    model, inputs, labels, loss_fn, optimizer = _workload(args.model)

    def iteration() -> float:
        optimizer.zero_grad()
        loss_fn(model(inputs), labels).backward()
        start = time.perf_counter()
        optimizer.step()
        return time.perf_counter() - start

    iteration()  # warm-up: lazy optimizer state, BLAS thread start-up
    loss = loss_fn(model(inputs), labels)
    nodes = graph_node_count([loss]) - len(collect_participating_accumulators(loss))
    with profile_ops() as profile:
        start = time.perf_counter()
        step_s = sum(iteration() for _ in range(args.iters))
        iter_ms = (time.perf_counter() - start) * 1e3 / args.iters
    with count_numpy_calls() as counts:
        iteration()
    step_ms = step_s * 1e3 / args.iters
    ops_ms = profile.total_ms(args.iters)
    print(f"{args.model}: {args.iters} local iterations, {iter_ms:.2f} ms each "
          "(forward + backward + optimizer step, wrappers on)")
    print(format_table(profile.rows(args.iters), iter_ms))
    print(f"{nodes} tape nodes per iteration, "
          f"op self time {ops_ms:.2f} ms ({ops_ms / iter_ms:.1%} of the iteration), "
          f"optimizer step {step_ms:.2f} ms ({step_ms / iter_ms:.1%}; "
          f"{sum(counts.values())} numpy calls), "
          f"tape + engine + Python glue {iter_ms - ops_ms - step_ms:.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
