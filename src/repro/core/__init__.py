"""The paper's primary contribution: ``DistributedDataParallel``.

Submodules:

* :mod:`~repro.core.bucket` — parameter-to-bucket assignment (reverse
  ``model.parameters()`` order, size cap, device/dtype affinity).
* :mod:`~repro.core.reducer` — the gradient-reduction engine: autograd
  hooks, per-bucket pending counts, in-order asynchronous AllReduce,
  unused-parameter bitmaps (paper §3.2, §4.2; ``reducer.cpp`` analog).
* :mod:`~repro.core.ddp` — the user-facing ``nn.Module`` wrapper with
  state broadcast, buffer sync, and ``no_sync`` (``distributed.py``
  analog).
* :mod:`~repro.core.comm_hooks` — gradient-compression communication
  hooks (paper §6.2.3 future work).
* :mod:`~repro.core.param_avg` — the parameter-averaging baseline the
  paper argues against (§2.2).
* :mod:`~repro.core.taxonomy` — Table 1's categorization of distributed
  training solutions.
"""

from repro.core.bucket import BucketSpec, compute_bucket_assignment
from repro.core.reducer import Reducer, ReducerError
from repro.core.ddp import DistributedDataParallel
from repro.core.data_parallel import DataParallel
from repro.core.param_avg import ParameterAveragingTrainer, average_parameters
from repro.core import comm_hooks
from repro.core.taxonomy import TRAINING_SOLUTIONS, render_table1

__all__ = [
    "BucketSpec",
    "compute_bucket_assignment",
    "Reducer",
    "ReducerError",
    "DistributedDataParallel",
    "DataParallel",
    "ParameterAveragingTrainer",
    "average_parameters",
    "comm_hooks",
    "TRAINING_SOLUTIONS",
    "render_table1",
]
