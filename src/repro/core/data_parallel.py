"""Single-process multi-thread data parallelism (paper §2.2's first tool).

``DataParallel`` is the intra-machine predecessor of DDP: one process,
one parameter set, the input batch scattered across worker threads that
run the forward pass concurrently on shared parameters.  Outputs are
gathered along the batch dimension, so a single ``backward()`` flows
through every replica branch and gradients *accumulate* into the one
model — mathematically identical to running the full batch at once.

The paper lists it for completeness and moves on; so does this module.
Its real-world weaknesses are faithfully present: all replicas contend
for one interpreter (the GIL here, the driver there) and there is no
communication/computation overlap — which is precisely why the paper's
subject is ``DistributedDataParallel``.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn.module import Module


class DataParallel(Module):
    """Scatter the batch across threads, gather outputs, share parameters.

    Parameters
    ----------
    module:
        The model; its parameters are shared (not replicated) across
        worker threads.
    num_replicas:
        Number of concurrent forward workers (the stand-in for
        ``device_ids``).  The batch must be divisible-ish: chunks are
        ``np.array_split`` slices, so ragged batches work.
    """

    def __init__(self, module: Module, num_replicas: int = 2):
        super().__init__()
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.module = module
        self.num_replicas = num_replicas

    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        replicas = min(self.num_replicas, batch)
        if replicas == 1:
            return self.module(x)

        boundaries = np.array_split(np.arange(batch), replicas)
        chunks = [x[idx[0] : idx[-1] + 1] for idx in boundaries]
        outputs: List[Optional[Tensor]] = [None] * replicas
        errors: List[BaseException] = []

        def worker(position: int, chunk: Tensor) -> None:
            try:
                outputs[position] = self.module(chunk)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, chunk), daemon=True)
            for i, chunk in enumerate(chunks)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return ops.cat(outputs, axis=0)

    # transparency helpers, as on DDP
    def state_dict(self):
        return self.module.state_dict()

    def load_state_dict(self, state) -> None:
        self.module.load_state_dict(state)

    def __repr__(self) -> str:
        return f"DataParallel(replicas={self.num_replicas})\n  {self.module!r}"
