"""Gradient-compression communication hooks (paper §6.2.3).

The paper observes that gradients rarely need the parameter dtype's full
precision and proposes adaptive compression as future work, citing 1-bit
SGD.  These hooks implement that direction on the reducer's comm-hook
interface: each hook receives ``(process_group, bucket_tensor, world)``
and must return a ``Work``-like handle; when it completes, the bucket
must hold the *averaged* gradient.

:func:`allreduce_hook` (``ReduceOp.AVG``, what DDP does natively) is
the baseline.  The two compressing hooks, :class:`Fp16Hook` and
:class:`AdaptivePrecisionHook`, subclass :class:`CompressionHook`, which
owns what they share: error feedback (``use_error_feedback`` and the
per-bucket residuals) and the wire size
(:meth:`~CompressionHook.wire_ratio`, from what the hook actually sends).
Per-bucket state is keyed by the bucket buffer's identity; a reducer's
buffers live as long as it does.  A hook is passed to DDP as an instance
(``comm_hook=Fp16Hook()``); a stateful hook must not be shared across
wrappers.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.autograd.tensor import Tensor
from repro.comm.process_group import ReduceOp


class _HookWork:
    """Work adapter running a post-processing step after the collective."""

    def __init__(self, work, finish):
        self._work = work
        self._finish = finish
        self._done = False

    @property
    def record(self):
        """The collective's record: a hooked bucket reports its interval."""
        return getattr(self._work, "record", None)

    def wait(self, timeout=None) -> None:
        if not self._done:
            self._work.wait(timeout)
            self._finish()
            self._done = True

    def is_completed(self) -> bool:
        return self._done


def allreduce_hook(process_group, bucket: Tensor, world: int):
    """Vanilla hook: AllReduce-average — what DDP does natively."""
    return process_group.allreduce(bucket, ReduceOp.AVG, async_op=True)


class _ResidualStore:
    """Per-bucket error-feedback residuals keyed by buffer identity.

    Bucket buffers live as long as their reducer, so ``id(bucket.data)``
    is a stable key — with a shape check so a recycled id (a dropped
    wrapper's buffer, id reused by the allocator) can never resurrect a
    stale residual of the wrong length.
    """

    def __init__(self) -> None:
        self._store: Dict[int, np.ndarray] = {}

    def get(self, data: np.ndarray) -> np.ndarray:
        key = id(data)
        entry = self._store.get(key)
        if entry is None or entry.shape != data.shape:
            entry = np.zeros_like(data)
            self._store[key] = entry
        return entry


class CompressionHook:
    """Base of every compressing hook.

    With ``use_error_feedback`` each rank carries what compression lost
    into its next contribution (:meth:`_corrected`), so the error does
    not accumulate over training.  A hook declares the dtype of its
    summed ``WIRE`` array and of its one-element ``SIDE`` AllReduce
    (None: none).
    """

    WIRE = None
    SIDE = None

    def __init__(self, use_error_feedback: bool = False):
        self.use_error_feedback = use_error_feedback
        self._residuals = _ResidualStore()

    def _corrected(self, data: np.ndarray):
        """``(data + residual, residual)`` under error feedback, else
        ``(data, None)``; the caller writes the new residual."""
        if not self.use_error_feedback:
            return data, None
        residual = self._residuals.get(data)
        return data + residual, residual

    def _agree(self, process_group, bucket: Tensor, value, op):
        """Blocking one-element ``SIDE``-dtype AllReduce of ``value`` (a
        shared scale, a magnitude, a vote); returns the reduced element."""
        scalar = Tensor(np.array([value], dtype=self.SIDE), device=bucket.device)
        process_group.allreduce(scalar, op)
        return scalar.data[0]

    @staticmethod
    def _sum_and_decode(process_group, bucket: Tensor, wire: np.ndarray, decode):
        """SUM-AllReduce ``wire``; on completion the bucket holds
        ``decode(summed wire)``."""
        summed = Tensor(wire, device=bucket.device)
        work = process_group.allreduce(summed, ReduceOp.SUM, async_op=True)

        def finish() -> None:
            bucket.data[...] = decode(summed.data)

        return _HookWork(work, finish)

    def wire_ratio(self, dtype, elements: int) -> float:
        """Wire bytes per gradient byte for a bucket of ``elements``
        gradients of ``dtype`` (side AllReduces included)."""
        side = 0 if self.SIDE is None else np.dtype(self.SIDE).itemsize
        wire = elements * np.dtype(self.WIRE).itemsize + side
        return wire / (elements * np.dtype(dtype).itemsize)


class Fp16Hook(CompressionHook):
    """float16 on the wire, with optional error feedback of each rank's
    float16 rounding error."""

    WIRE = np.float16

    def __call__(self, process_group, bucket: Tensor, world: int):
        data = bucket.data
        corrected, residual = self._corrected(data)
        wire = corrected.astype(self.WIRE)
        if residual is not None:
            residual[...] = corrected - wire.astype(data.dtype)
        return self._sum_and_decode(process_group, bucket, wire,
                                    lambda s: s.astype(data.dtype) / world)


class AdaptivePrecisionHook(CompressionHook):
    """Adaptive compression levels (paper §6.2.3): communicate gradients
    with only the necessary precision.

    Each bucket goes out in the narrowest float dtype whose absolute
    rounding error at the bucket's magnitude stays below ``tolerance``,
    so the wire narrows as training converges.  Ranks agree on the dtype
    with a tiny MIN-AllReduce vote (the most conservative rank wins).
    """

    #: wire dtypes from widest to narrowest; code == index
    LEVELS = (np.float64, np.float32, np.float16)
    #: the level is voted at run time: wire_ratio is the widest's bound
    WIRE, SIDE = LEVELS[0], np.int64

    def __init__(self, tolerance: float = 1e-4):
        super().__init__()
        self.tolerance = tolerance
        self.chosen_levels: Dict[int, int] = {}

    def _desired_level(self, data: np.ndarray) -> int:
        scale = float(np.abs(data).max())
        if scale == 0.0:
            return len(self.LEVELS) - 1
        for code in range(len(self.LEVELS) - 1, 0, -1):
            dtype = self.LEVELS[code]
            # absolute rounding error of the dtype at this magnitude
            rounding = float(np.finfo(dtype).eps) * scale
            if rounding <= self.tolerance:
                return code
        return 0

    def __call__(self, process_group, bucket: Tensor, world: int):
        data = bucket.data
        desired = self._desired_level(data)
        level = int(self._agree(process_group, bucket, desired, ReduceOp.MIN))
        self.chosen_levels[id(data)] = level
        return self._sum_and_decode(process_group, bucket, data.astype(self.LEVELS[level]),
                                    lambda s: s.astype(data.dtype) / world)


def hook_wire_ratio(hook, dtype, elements: int) -> float:
    """``hook``'s wire bytes per gradient byte; 1.0 for a hook that
    sends the bucket as it is (``allreduce_hook``, or none)."""
    return hook.wire_ratio(dtype, elements) if isinstance(hook, CompressionHook) else 1.0

