"""``repro.sharded``: ZeRO-1/2/3 sharded data parallelism.

Past DDP's ceiling — a full replica of parameters, gradients, and
optimizer state per rank — the ZeRO line of work shards each of those in
turn, trading collective traffic for per-rank memory (see
docs/sharding.md for the stage taxonomy, memory model, and knobs):

* :class:`~repro.sharded.optimizer.ShardedOptimizer` — ZeRO-1:
  optimizer state partitioned by flat spans.
* :class:`~repro.sharded.data_parallel.ShardedDataParallel` — ZeRO-2:
  gradients reduce-scattered; each rank keeps only its shard.
* :class:`~repro.sharded.fsdp.FullyShardedDataParallel` — ZeRO-3:
  parameters themselves sharded, gathered per block ahead of use.

All stages share one :class:`~repro.sharded.flat.FlatShardLayout`
(buckets + ``partition_spans`` ownership), DDP's
:class:`~repro.core.reducer.Reducer` for the backward, and the
``reduce_scatter_flat`` / ``all_gather_flat`` collectives of
:class:`~repro.comm.process_group.ProcessGroup`, and every stage is
numerically exact against DDP: elementwise optimizers make span-sharded
updates bit-equal to replicated ones.
"""

from repro.checkpoint import (
    load_shard_payloads,
    load_sharded_training_checkpoint,
    reshard_state_dict,
    save_sharded_training_checkpoint,
    shard_payload,
)
from repro.sharded.data_parallel import ShardedDataParallel
from repro.sharded.flat import FlatShardLayout, select_units, unit_bucket_specs
from repro.sharded.fsdp import FullyShardedDataParallel
from repro.sharded.memory import (
    ShardedStats,
    measure_ddp_bytes,
    module_arrays,
    optimizer_state_arrays,
    storage_bytes,
)
from repro.sharded.optimizer import ShardedOptimizer

__all__ = [
    "FlatShardLayout",
    "FullyShardedDataParallel",
    "ShardedDataParallel",
    "ShardedOptimizer",
    "ShardedStats",
    "load_shard_payloads",
    "load_sharded_training_checkpoint",
    "measure_ddp_bytes",
    "module_arrays",
    "optimizer_state_arrays",
    "reshard_state_dict",
    "save_sharded_training_checkpoint",
    "select_units",
    "shard_payload",
    "storage_bytes",
    "unit_bucket_specs",
]
