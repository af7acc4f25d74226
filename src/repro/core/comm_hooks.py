"""Gradient-compression communication hooks (paper §6.2.3).

The paper observes that gradients rarely need the parameter dtype's full
precision and proposes adaptive compression as future work, citing 1-bit
SGD.  These hooks implement that direction on the reducer's comm-hook
interface: each hook receives ``(process_group, bucket_tensor, world)``
and must return a ``Work``-like handle; when it completes, the bucket
must hold the *averaged* gradient.

:func:`allreduce_hook` (``ReduceOp.AVG``, what DDP does natively) is
the baseline.  Every compressing hook — :class:`Fp16Hook`,
:class:`Quantize8Hook`, :class:`OneBitSGDHook` (Seide et al., the
paper's reference [34]), :class:`AdaptivePrecisionHook`,
:class:`TopKHook`, :class:`PowerSGDHook` (Vogels et al.) — is a
:class:`CompressionHook`, which owns what they share: error feedback
(``use_error_feedback`` and the per-bucket residuals), ``reset()`` of
per-bucket state, and the wire size (:meth:`~CompressionHook.wire_ratio`,
from what the hook actually sends).  Per-bucket state is keyed by the
bucket buffer's identity, so the reducer calls :func:`reset_hook`
whenever ``rebuild_buckets`` installs a new layout.

``HOOK_FACTORIES`` maps hook names to zero-argument factories producing
fresh hook instances — the registry behind the autotuner's ``comm_hook``
dimension and the compression ablation benchmark.
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

    Bucket buffers live until the next relayout, so ``id(bucket.data)``
    is a stable key — with a shape check so a recycled id (buffer freed
    by a relayout, id reused by the allocator) can never resurrect a
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

    def clear(self) -> None:
        self._store.clear()


class CompressionHook:
    """Base of every compressing hook.

    With ``use_error_feedback`` each rank carries what compression lost
    into its next contribution (:meth:`_corrected`), so the error does
    not accumulate over training.  A dense hook declares the dtype of
    its summed ``WIRE`` array and of its one-element ``SIDE`` AllReduce
    (None: none); a sparse one overrides :meth:`_wire_bytes`.
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

    def _wire_bytes(self, elements: int) -> int:
        """Bytes one rank puts on the wire for a bucket of ``elements``."""
        side = 0 if self.SIDE is None else np.dtype(self.SIDE).itemsize
        return elements * np.dtype(self.WIRE).itemsize + side

    def wire_ratio(self, dtype, elements: int) -> float:
        """Wire bytes per gradient byte for a bucket of ``elements``
        gradients of ``dtype`` (side AllReduces included)."""
        return self._wire_bytes(elements) / (elements * np.dtype(dtype).itemsize)

    def reset(self) -> None:
        """Drop all per-bucket state (after a bucket relayout)."""
        self._residuals.clear()


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


class Quantize8Hook(CompressionHook):
    """Linear 8-bit quantization with optional error feedback.

    The scale is the global max-abs (one tiny MAX-AllReduce), so every
    rank quantizes onto the same grid and the integer sum is exact;
    int32 carries that sum without overflow.
    """

    LEVELS = 127.0
    WIRE, SIDE = np.int32, np.float64

    def __call__(self, process_group, bucket: Tensor, world: int):
        data = bucket.data
        corrected, residual = self._corrected(data)
        scale = np.abs(corrected).max()
        denom = float(self._agree(process_group, bucket, scale, ReduceOp.MAX)) or 1.0
        quantized = np.round(corrected / denom * self.LEVELS)
        if residual is not None:
            residual[...] = corrected - quantized / self.LEVELS * denom
        return self._sum_and_decode(
            process_group, bucket, quantized.astype(self.WIRE),
            lambda s: s.astype(data.dtype) / self.LEVELS * denom / world)


class OneBitSGDHook(CompressionHook):
    """1-bit SGD: communicate signs, feed quantization error back locally.

    Error feedback is part of the algorithm, so it is always on.  The
    reconstruction magnitude is the global mean of per-rank mean-|g|
    (a second tiny AllReduce).
    """

    WIRE, SIDE = np.int8, np.float64

    def __init__(self) -> None:
        super().__init__(use_error_feedback=True)

    def __call__(self, process_group, bucket: Tensor, world: int):
        corrected, residual = self._corrected(bucket.data)
        magnitude = np.abs(corrected).mean()
        mean_magnitude = float(self._agree(process_group, bucket, magnitude, ReduceOp.SUM)) / world
        signs = np.where(corrected >= 0, 1.0, -1.0)
        residual[...] = corrected - signs * mean_magnitude
        return self._sum_and_decode(
            process_group, bucket, signs.astype(self.WIRE),
            lambda s: s.astype(np.float64) * mean_magnitude / world)


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

    def reset(self) -> None:
        super().reset()
        self.chosen_levels.clear()


class TopKHook(CompressionHook):
    """Top-k magnitude sparsification with error feedback.

    Each rank keeps only the ``density`` fraction of largest-|g|
    entries of its residual-corrected contribution and AllGathers a
    compact ``[indices..., values...]`` payload; every rank then
    scatter-adds the world's sparse contributions and averages.  The
    payload is float64 so indices above 2**24 survive.  Entries *not*
    selected stay in the residual (error feedback, on by default:
    without it top-k silently drops most of the gradient).
    """

    PAYLOAD = np.float64

    def __init__(self, density: float = 0.05, use_error_feedback: bool = True):
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        super().__init__(use_error_feedback)
        self.density = density

    def _k(self, n: int) -> int:
        # All ranks derive k from (n, density) alone, so the payload
        # shape — and therefore the collective signature — matches.
        return max(1, min(n, int(round(n * self.density))))

    def __call__(self, process_group, bucket: Tensor, world: int):
        data = bucket.data
        n = data.size
        corrected, residual = self._corrected(data)
        flat = corrected.reshape(-1)
        k = self._k(n)
        indices = np.argpartition(np.abs(flat), n - k)[n - k :]
        indices.sort()
        values = flat[indices]
        if residual is not None:
            residual[...] = corrected
            residual.reshape(-1)[indices] = 0.0
        payload = np.concatenate(
            [indices.astype(self.PAYLOAD), values.astype(self.PAYLOAD)]
        )
        work = process_group.allgather(Tensor(payload, device=bucket.device), async_op=True)

        def finish() -> None:
            gathered = work.result[0]  # (world, 2k)
            out = np.zeros(n, dtype=data.dtype)
            for row in gathered:
                np.add.at(out, row[:k].astype(np.int64), row[k:])
            bucket.data[...] = (out / world).reshape(data.shape)

        return _HookWork(work, finish)

    def _wire_bytes(self, elements: int) -> int:
        return 2 * self._k(elements) * np.dtype(self.PAYLOAD).itemsize


class PowerSGDHook(CompressionHook):
    """PowerSGD low-rank gradient compression (Vogels et al. 2019).

    The bucket is viewed as a near-square float64 matrix ``M``
    (zero-padded) and approximated as ``P @ Q^T`` with ``rank`` columns:
    one AllReduce of ``P = M @ Q`` is launched asynchronously at hook
    time; at wait time the averaged ``P`` is orthonormalized and a
    second AllReduce of ``Q = M^T @ P̂`` runs synchronously, after which
    the bucket holds ``P̂ (M_avg^T P̂)^T = P̂ P̂^T M_avg`` — the projection
    of the average gradient onto the learned subspace.  ``Q`` is
    warm-started from a seeded Gaussian identical on every rank and
    carried across iterations (power iteration), and the approximation
    error feeds back through the residual.

    Ordering note: the second collective is issued inside ``wait()``.
    The reducer waits buckets in index order on every rank, so the
    P/Q collective sequence stays aligned across the group.
    """

    MATRIX = np.float64

    def __init__(
        self, rank: int = 2, use_error_feedback: bool = True, seed: int = 0
    ):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        super().__init__(use_error_feedback)
        self.rank = rank
        self.seed = seed
        self._q: Dict[int, np.ndarray] = {}

    def _factor_shape(self, n: int) -> tuple:
        """``(rows, cols, r)``: the matrix view of ``n`` elements and
        the factors' column count."""
        rows = int(np.ceil(np.sqrt(n)))
        cols = -(-n // rows)
        return rows, cols, min(self.rank, rows, cols)

    def __call__(self, process_group, bucket: Tensor, world: int):
        data = bucket.data
        n = data.size
        corrected, residual = self._corrected(data)
        rows, cols, r = self._factor_shape(n)
        matrix = np.zeros(rows * cols, dtype=self.MATRIX)
        matrix[:n] = corrected.reshape(-1)
        M = matrix.reshape(rows, cols)
        qkey = id(data)
        q = self._q.get(qkey)
        if q is None or q.shape != (cols, r):
            # Deterministic warm start: every rank seeds from the same
            # (seed, problem size), so Q starts identical everywhere.
            rng = np.random.RandomState((self.seed * 1000003 + n * 31 + r) % (2**31))
            q, _ = np.linalg.qr(rng.standard_normal((cols, r)))
        p = M @ q  # (rows, r)
        p_wire = Tensor(p.reshape(-1), device=bucket.device)
        work = process_group.allreduce(p_wire, ReduceOp.SUM, async_op=True)

        def finish() -> None:
            p_avg = p_wire.data.reshape(rows, r) / world
            p_hat, _ = np.linalg.qr(p_avg)
            q_wire = Tensor((M.T @ p_hat).reshape(-1), device=bucket.device)
            process_group.allreduce(q_wire, ReduceOp.SUM)
            q_avg = q_wire.data.reshape(cols, r) / world
            self._q[qkey] = q_avg
            approx = (p_hat @ q_avg.T).reshape(-1)[:n].reshape(data.shape)
            if residual is not None:
                residual[...] = corrected - approx
            bucket.data[...] = approx

        return _HookWork(work, finish)

    def _wire_bytes(self, elements: int) -> int:
        rows, cols, r = self._factor_shape(elements)
        return (rows + cols) * r * np.dtype(self.MATRIX).itemsize

    def reset(self) -> None:
        super().reset()
        self._q.clear()


#: Hook registry: name → zero-argument factory returning a *fresh* hook
#: (stateful hooks must not be shared across DDP instances).  This is
#: the namespace behind the autotuner's ``comm_hook`` dimension and the
#: compression ablation benchmark.
HOOK_FACTORIES = {
    "allreduce": lambda: allreduce_hook,
    "fp16": Fp16Hook,
    "quantize8": Quantize8Hook,
    "onebit": OneBitSGDHook,
    "adaptive": AdaptivePrecisionHook,
    "topk": TopKHook,
    "powersgd": PowerSGDHook,
}


def make_hook(name: str):
    """Instantiate a registered hook by name (see ``HOOK_FACTORIES``)."""
    try:
        factory = HOOK_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown comm hook {name!r}; known: {sorted(HOOK_FACTORIES)}"
        ) from None
    return factory()


def hook_wire_ratio(hook, dtype, elements: int) -> float:
    """``hook``'s wire bytes per gradient byte; 1.0 for a hook that
    sends the bucket as it is (``allreduce_hook``, or none)."""
    return hook.wire_ratio(dtype, elements) if isinstance(hook, CompressionHook) else 1.0


def reset_hook(hook) -> None:
    """Clear a hook's per-bucket state, if it has a ``reset()``."""
    reset = getattr(hook, "reset", None)
    if callable(reset):
        reset()
