"""Gradient-compression communication hooks (paper §6.2.3).

The paper observes that gradients rarely need the parameter dtype's full
precision and proposes adaptive compression as future work, citing 1-bit
SGD.  These hooks implement that direction on the reducer's comm-hook
interface: each hook receives ``(process_group, bucket_tensor, world)``
and must return a ``Work``-like handle; when it completes, the bucket
must hold the *averaged* gradient.

Provided hooks:

* :func:`allreduce_hook` — the identity hook (``ReduceOp.AVG``); baseline.
* :func:`fp16_compress_hook` / :class:`Fp16Hook` — cast to float16 on
  the wire (the class form adds optional error feedback).
* :func:`quantize8_hook` / :class:`Quantize8Hook` — linear 8-bit
  quantization with per-bucket scale (class form adds error feedback).
* :class:`OneBitSGDHook` — sign-based 1-bit compression with local error
  feedback (Seide et al., the paper's reference [34]).
* :class:`TopKHook` / :func:`topk_compress_hook` — top-k magnitude
  sparsification; ships a compact (indices, values) payload via
  AllGather instead of a dense AllReduce.
* :class:`PowerSGDHook` — low-rank gradient factorization (Vogels et
  al.): two small AllReduces of the P/Q factors replace one dense
  AllReduce of the full bucket.

Stateful hooks (error-feedback residuals, PowerSGD's warm-started Q)
key their per-bucket state by the bucket buffer's identity and expose
``reset()``; anything that *relayouts* buckets mid-run (the autotuner's
``rebuild_buckets``) must call :func:`reset_hook` so residuals do not
apply to mismatched layouts.

``HOOK_FACTORIES`` maps hook names to zero-argument factories producing
fresh hook instances — the registry behind the autotuner's ``comm_hook``
dimension and the compression ablation benchmark.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.comm.process_group import ReduceOp


class _HookWork:
    """Work adapter running a post-processing step after the collective."""

    def __init__(self, inner_work, finish):
        self._inner = inner_work
        self._finish = finish
        self._done = False

    def wait(self, timeout=None) -> None:
        if not self._done:
            if self._inner is not None:
                self._inner.wait(timeout)
            self._finish()
            self._done = True

    def is_completed(self) -> bool:
        return self._done


def allreduce_hook(process_group, bucket: Tensor, world: int):
    """Vanilla hook: AllReduce-average — what DDP does natively."""
    return process_group.allreduce(bucket, ReduceOp.AVG, async_op=True)


def fp16_compress_hook(process_group, bucket: Tensor, world: int):
    """Communicate in float16, decompress back into the bucket."""
    compressed = Tensor(bucket.data.astype(np.float16), device=bucket.device)
    work = process_group.allreduce(compressed, ReduceOp.SUM, async_op=True)

    def finish() -> None:
        bucket.data[...] = compressed.data.astype(bucket.data.dtype) / world

    return _HookWork(work, finish)


def quantize8_hook(process_group, bucket: Tensor, world: int):
    """Linear 8-bit quantization with a shared per-bucket scale.

    The scale is the global max-abs (one tiny AllReduce), so every rank
    quantizes onto the same grid and the integer sum is exact.
    """
    scale = Tensor(
        np.array([np.abs(bucket.data).max()], dtype=np.float64), device=bucket.device
    )
    process_group.allreduce(scale, ReduceOp.MAX)
    denom = float(scale.data[0]) or 1.0
    levels = 127.0
    quantized = Tensor(
        np.round(bucket.data / denom * levels).astype(np.int32), device=bucket.device
    )
    work = process_group.allreduce(quantized, ReduceOp.SUM, async_op=True)

    def finish() -> None:
        bucket.data[...] = quantized.data.astype(np.float64) / levels * denom / world

    return _HookWork(work, finish)


class OneBitSGDHook:
    """1-bit SGD: communicate signs, feed quantization error back locally.

    Per-bucket error memory makes the hook stateful; instantiate one per
    DDP instance.  The reconstruction magnitude is the global mean of
    per-rank mean-|g| (a second tiny AllReduce).
    """

    def __init__(self) -> None:
        self._error: Dict[int, np.ndarray] = {}

    def __call__(self, process_group, bucket: Tensor, world: int):
        key = id(bucket.data)  # stable: bucket buffers live for the DDP lifetime
        error = self._error.get(key)
        if error is None:
            error = np.zeros_like(bucket.data)
            self._error[key] = error

        corrected = bucket.data + error
        magnitude = Tensor(
            np.array([np.abs(corrected).mean()], dtype=np.float64), device=bucket.device
        )
        process_group.allreduce(magnitude, ReduceOp.SUM)
        mean_magnitude = float(magnitude.data[0]) / world

        signs = np.where(corrected >= 0, 1.0, -1.0)
        compressed_value = signs * mean_magnitude
        error[...] = corrected - compressed_value

        wire = Tensor(signs.astype(np.int8), device=bucket.device)
        work = process_group.allreduce(wire, ReduceOp.SUM, async_op=True)

        def finish() -> None:
            bucket.data[...] = wire.data.astype(np.float64) * mean_magnitude / world

        return _HookWork(work, finish)


class AdaptivePrecisionHook:
    """Adaptive compression levels (paper §6.2.3).

    "Current DDP implementation always uses the parameter type as the
    gradient type that can become an overkill especially when the model
    is approaching convergence.  DDP would benefit from adaptive
    compression levels by only communicating gradients with the
    necessary precision."

    The hook inspects each bucket's gradient magnitude and picks the
    narrowest wire dtype whose absolute rounding error at that magnitude
    stays below ``tolerance``.  As training converges and gradients
    shrink, narrower dtypes become acceptable and the wire volume drops
    automatically.  All ranks must agree on the wire dtype, so the
    per-bucket choice is made collectively with a tiny MIN-AllReduce
    (the most conservative rank wins).
    """

    #: wire dtypes from widest to narrowest; code == index
    LEVELS = (np.float64, np.float32, np.float16)

    def __init__(self, tolerance: float = 1e-4):
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
        desired = self._desired_level(bucket.data)
        vote = Tensor(np.array([desired], dtype=np.int64), device=bucket.device)
        process_group.allreduce(vote, ReduceOp.MIN)
        level = int(vote.data[0])
        self.chosen_levels[id(bucket.data)] = level
        wire_dtype = self.LEVELS[level]

        if wire_dtype == bucket.data.dtype:
            work = process_group.allreduce(bucket, ReduceOp.SUM, async_op=True)

            def finish_same() -> None:
                bucket.data /= world

            return _HookWork(work, finish_same)

        compressed = Tensor(bucket.data.astype(wire_dtype), device=bucket.device)
        work = process_group.allreduce(compressed, ReduceOp.SUM, async_op=True)

        def finish() -> None:
            bucket.data[...] = compressed.data.astype(bucket.data.dtype) / world

        return _HookWork(work, finish)


class _ResidualStore:
    """Per-bucket error-feedback residuals keyed by buffer identity.

    Bucket buffers live for the DDP lifetime, so ``id(bucket.data)`` is
    a stable key — with a shape check so a recycled id (buffer freed by
    an autotuner relayout, id reused by the allocator) can never
    resurrect a stale residual of the wrong length.
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


class Fp16Hook:
    """float16 on the wire, with optional error feedback.

    The function form (:func:`fp16_compress_hook`) simply drops the
    rounding error; with ``use_error_feedback=True`` this class carries
    each rank's float16 rounding error into its next contribution, so
    the loss does not accumulate over training.
    """

    def __init__(self, use_error_feedback: bool = False):
        self.use_error_feedback = use_error_feedback
        self._residuals = _ResidualStore()

    def __call__(self, process_group, bucket: Tensor, world: int):
        data = bucket.data
        if self.use_error_feedback:
            residual = self._residuals.get(data)
            corrected = data + residual
        else:
            corrected = data
        wire = corrected.astype(np.float16)
        if self.use_error_feedback:
            residual[...] = corrected - wire.astype(data.dtype)
        compressed = Tensor(wire, device=bucket.device)
        work = process_group.allreduce(compressed, ReduceOp.SUM, async_op=True)

        def finish() -> None:
            bucket.data[...] = compressed.data.astype(data.dtype) / world

        return _HookWork(work, finish)

    def reset(self) -> None:
        self._residuals.clear()


class Quantize8Hook:
    """Linear 8-bit quantization (shared global scale), optional error
    feedback.  Same wire format as :func:`quantize8_hook` — int32
    carries the integer sum without overflow — plus the residual carry
    of each rank's local rounding error."""

    LEVELS = 127.0

    def __init__(self, use_error_feedback: bool = False):
        self.use_error_feedback = use_error_feedback
        self._residuals = _ResidualStore()

    def __call__(self, process_group, bucket: Tensor, world: int):
        data = bucket.data
        if self.use_error_feedback:
            residual = self._residuals.get(data)
            corrected = data + residual
        else:
            corrected = data
        scale = Tensor(
            np.array([np.abs(corrected).max()], dtype=np.float64),
            device=bucket.device,
        )
        process_group.allreduce(scale, ReduceOp.MAX)
        denom = float(scale.data[0]) or 1.0
        quantized = np.round(corrected / denom * self.LEVELS)
        if self.use_error_feedback:
            residual[...] = corrected - quantized / self.LEVELS * denom
        wire = Tensor(quantized.astype(np.int32), device=bucket.device)
        work = process_group.allreduce(wire, ReduceOp.SUM, async_op=True)

        def finish() -> None:
            bucket.data[...] = (
                wire.data.astype(data.dtype) / self.LEVELS * denom / world
            )

        return _HookWork(work, finish)

    def reset(self) -> None:
        self._residuals.clear()


class TopKHook:
    """Top-k magnitude sparsification with error feedback.

    Each rank keeps only the ``density`` fraction of largest-|g|
    entries of its residual-corrected contribution and AllGathers a
    compact ``[indices..., values...]`` payload; every rank then
    scatter-adds the world's sparse contributions and averages.  Wire
    volume per rank is ``2 * density * n`` elements versus ``n`` dense
    — a ~10x reduction at the default density.  Entries *not* selected
    stay in the residual (error feedback, on by default: without it
    top-k silently drops most of the gradient).
    """

    def __init__(self, density: float = 0.05, use_error_feedback: bool = True):
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        self.density = density
        self.use_error_feedback = use_error_feedback
        self._residuals = _ResidualStore()

    def __call__(self, process_group, bucket: Tensor, world: int):
        data = bucket.data
        n = data.size
        if self.use_error_feedback:
            residual = self._residuals.get(data)
            corrected = data + residual
        else:
            corrected = data.copy()
        flat = corrected.reshape(-1)
        # All ranks derive k from (n, density) alone, so the payload
        # shape — and therefore the collective signature — matches.
        k = max(1, min(n, int(round(n * self.density))))
        if k >= n:
            indices = np.arange(n, dtype=np.int64)
        else:
            indices = np.argpartition(np.abs(flat), n - k)[n - k :]
            indices.sort()
        values = flat[indices]
        if self.use_error_feedback:
            residual[...] = corrected
            residual.reshape(-1)[indices] = 0.0
        payload = np.concatenate(
            [indices.astype(np.float64), values.astype(np.float64)]
        )
        wire = Tensor(payload, device=bucket.device)
        work = process_group.allgather(wire, async_op=True)

        def finish() -> None:
            gathered = work.result[0]  # (world, 2k)
            out = np.zeros(n, dtype=data.dtype)
            for row in gathered:
                np.add.at(out, row[:k].astype(np.int64), row[k:])
            bucket.data[...] = (out / world).reshape(data.shape)

        return _HookWork(work, finish)

    def reset(self) -> None:
        self._residuals.clear()


def topk_compress_hook(
    density: float = 0.05, use_error_feedback: bool = True
) -> TopKHook:
    """A fresh :class:`TopKHook` (factory — the hook is stateful)."""
    return TopKHook(density=density, use_error_feedback=use_error_feedback)


class PowerSGDHook:
    """PowerSGD low-rank gradient compression (Vogels et al. 2019).

    The bucket is viewed as a near-square matrix ``M`` (zero-padded)
    and approximated as ``P @ Q^T`` with ``rank`` columns: one
    AllReduce of ``P = M @ Q`` is launched asynchronously at hook time;
    at wait time the averaged ``P`` is orthonormalized and a second
    AllReduce of ``Q = M^T @ P̂`` runs synchronously, after which the
    bucket holds ``P̂ (M_avg^T P̂)^T = P̂ P̂^T M_avg`` — the projection of
    the average gradient onto the learned subspace.  ``Q`` is
    warm-started from a seeded Gaussian identical on every rank and
    carried across iterations (power iteration), and the approximation
    error feeds back through the residual.

    Ordering note: the second collective is issued inside ``wait()``.
    The reducer waits buckets in index order on every rank, so the
    P/Q collective sequence stays aligned across the group.
    """

    def __init__(
        self, rank: int = 2, use_error_feedback: bool = True, seed: int = 0
    ):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self.use_error_feedback = use_error_feedback
        self.seed = seed
        self._residuals = _ResidualStore()
        self._q: Dict[int, np.ndarray] = {}

    @staticmethod
    def _matrix_shape(n: int) -> tuple:
        rows = int(np.ceil(np.sqrt(n)))
        cols = -(-n // rows)
        return rows, cols

    def __call__(self, process_group, bucket: Tensor, world: int):
        data = bucket.data
        n = data.size
        if self.use_error_feedback:
            residual = self._residuals.get(data)
            corrected = data + residual
        else:
            corrected = data.copy()
        rows, cols = self._matrix_shape(n)
        matrix = np.zeros(rows * cols, dtype=np.float64)
        matrix[:n] = corrected.reshape(-1)
        M = matrix.reshape(rows, cols)
        r = min(self.rank, rows, cols)
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
            if self.use_error_feedback:
                residual[...] = corrected - approx
            bucket.data[...] = approx

        return _HookWork(work, finish)

    def reset(self) -> None:
        self._residuals.clear()
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


def reset_hook(hook) -> None:
    """Clear a hook's per-bucket state (residuals, warm-started
    factors) if it has any — required after a bucket relayout, where
    buffer identities and shapes change under the hook."""
    reset = getattr(hook, "reset", None)
    if callable(reset):
        reset()


def compression_ratio(
    hook_name: str,
    dtype_bytes: int = 8,
    density: float = 0.05,
    rank: int = 2,
    elements: int = 1 << 20,
) -> float:
    """Wire bytes per gradient element relative to uncompressed.

    ``topk`` and ``powersgd`` ratios depend on configuration:
    ``density`` (fraction of entries kept, doubled for the index
    channel) and ``rank``/``elements`` (low-rank factor volume for a
    near-square ``elements`` matrix) respectively.
    """
    if hook_name == "topk":
        return min(1.0, 2.0 * density)
    if hook_name == "powersgd":
        rows, cols = PowerSGDHook._matrix_shape(elements)
        return min(1.0, (rows + cols) * rank / elements)
    wire_bytes = {
        "allreduce": dtype_bytes,
        "fp16": 2,
        "quantize8": 4,  # int32 on the wire in this implementation
        "onebit": 1,  # int8 signs
    }
    return wire_bytes[hook_name] / dtype_bytes
