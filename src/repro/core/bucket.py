"""Parameter-to-bucket assignment (paper §3.2.2–§3.2.3, §4.2).

DDP communicates gradients in *buckets*: flat buffers that coalesce many
small gradients into one AllReduce.  The assignment rules reproduced
here:

* Parameters are allocated to buckets in the **reverse** order of
  ``model.parameters()``, the paper's approximation of gradient-ready
  order in the backward pass.
* A bucket closes when adding the next parameter would exceed
  ``bucket_cap_bytes`` (the ``bucket_cap_mb`` knob, default 25 MB).  A
  single parameter larger than the cap gets a bucket of its own.
* All parameters in a bucket share a device and dtype ("buckets are
  always created on the same device as the parameters"); a change of
  either closes the current bucket.
* The assignment is a pure function of (parameter shapes, devices,
  dtypes, cap) — identical on every rank, which is what keeps AllReduce
  contents aligned across processes (Fig. 3(a) caveat).  A wrapper
  computes it once, at construction, and never changes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.utils.units import MB

#: Bucket cap for a caller that does not want size-based splitting:
#: large enough that only device/dtype changes close a bucket.
UNBOUNDED_CAP_BYTES = 1 << 62


@dataclass(frozen=True)
class BucketSpec:
    """One bucket's layout.

    ``param_indices`` are indices into the model's parameter list, in
    the order their gradients occupy the flat buffer.  ``offsets[i]`` is
    where parameter ``param_indices[i]`` starts, in elements.
    """

    index: int
    param_indices: tuple
    offsets: tuple
    sizes: tuple
    device: str
    dtype: str

    @property
    def total_elements(self) -> int:
        return sum(self.sizes)


def copy_params_into(spec: BucketSpec, params: Sequence, flat: np.ndarray) -> None:
    """Copy the values of ``spec``'s tensors into its flat buffer."""
    for index, offset, size in zip(spec.param_indices, spec.offsets, spec.sizes):
        flat[offset : offset + size] = params[index].data.reshape(-1)


def scatter_into_params(spec: BucketSpec, params: Sequence, flat: np.ndarray) -> None:
    """Write ``spec``'s flat buffer back into its tensors, in place."""
    for index, offset, size in zip(spec.param_indices, spec.offsets, spec.sizes):
        data = params[index].data
        np.copyto(data, flat[offset : offset + size].reshape(data.shape))


def broadcast_params(
    specs: Sequence[BucketSpec], params: Sequence, process_group, src: int = 0
) -> None:
    """Overwrite every rank's ``params`` with ``src``'s: one broadcast
    per flat bucket — the ``broadcast_coalesced`` of the c10d frontend —
    instead of one per tensor.  ``params`` are any tensors the specs
    index (parameters or buffers); each flat carries its bucket's device
    tag, so a backend still sees where the tensors live."""
    for spec in specs:
        flat = np.empty(spec.total_elements, dtype=np.dtype(spec.dtype))
        copy_params_into(spec, params, flat)
        process_group.broadcast(Tensor(flat, device=spec.device), src=src)
        scatter_into_params(spec, params, flat)


def compute_bucket_assignment(
    params: Sequence,
    bucket_cap_bytes: int = 25 * MB,
) -> List[BucketSpec]:
    """Assign ``params`` (in ``model.parameters()`` order) to buckets.

    Returns bucket specs ordered by expected readiness: bucket 0 holds
    the parameters *last* in the model, whose gradients the backward
    pass produces first.  Reduction must be launched in this order on
    every rank (paper §3.2.3).
    """
    if bucket_cap_bytes <= 0:
        # The 0 MB setting of the paper's Fig. 7/8: every gradient is
        # communicated on its own.
        bucket_cap_bytes = 1  # any positive parameter overflows it

    buckets: List[BucketSpec] = []
    current: List[int] = []
    current_bytes = 0
    current_key: tuple | None = None

    indexed = list(enumerate(params))

    def flush() -> None:
        nonlocal current, current_bytes
        if not current:
            return
        sizes = tuple(params[i].numel() for i in current)
        offsets = []
        offset = 0
        for size in sizes:
            offsets.append(offset)
            offset += size
        device, dtype = current_key
        buckets.append(
            BucketSpec(
                index=len(buckets),
                param_indices=tuple(current),
                offsets=tuple(offsets),
                sizes=sizes,
                device=device,
                dtype=dtype,
            )
        )
        current = []
        current_bytes = 0

    for param_index, param in reversed(indexed):
        key = (getattr(param, "device", "cpu"), str(param.dtype))
        nbytes = param.numel() * param.element_size()
        if current and (key != current_key or current_bytes + nbytes > bucket_cap_bytes):
            flush()
        current_key = key
        current.append(param_index)
        current_bytes += nbytes
    flush()
    return buckets


def describe_assignment(buckets: Sequence[BucketSpec]) -> str:
    """Human-readable bucket table for logging and docs."""
    lines = ["bucket  params  elements  device  dtype"]
    for bucket in buckets:
        lines.append(
            f"{bucket.index:>6}  {len(bucket.param_indices):>6}  "
            f"{bucket.total_elements:>8}  {bucket.device:>6}  {bucket.dtype}"
        )
    return "\n".join(lines)


def validate_assignment(buckets: Sequence[BucketSpec], num_params: int) -> None:
    """Raise if the assignment is not a partition of all parameters."""
    seen: Dict[int, int] = {}
    for bucket in buckets:
        if len(bucket.param_indices) != len(bucket.offsets):
            raise ValueError(f"bucket {bucket.index} has inconsistent layout")
        for param_index in bucket.param_indices:
            if param_index in seen:
                raise ValueError(
                    f"parameter {param_index} assigned to buckets "
                    f"{seen[param_index]} and {bucket.index}"
                )
            seen[param_index] = bucket.index
    missing = set(range(num_params)) - set(seen)
    if missing:
        raise ValueError(f"parameters never bucketed: {sorted(missing)}")
