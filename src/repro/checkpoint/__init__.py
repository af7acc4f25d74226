"""repro.checkpoint: everything that turns training state into bytes
and back — verified, atomic, optionally async and replicated.

Layers, bottom up:

- :mod:`repro.checkpoint.format` — bytes: magic + CRC32 trailer over an
  ordinary ``.npz`` payload, :class:`ChecksumError` raised before any
  torn byte is interpreted, and the one atomic writer.
- :mod:`repro.checkpoint.manifest` — commits: per-generation manifests
  written last as the atomic multi-file commit record, audit via
  :func:`verify_generation`, generation-numbered retention.
- :mod:`repro.checkpoint.payload` — the schema: the *full* and *sharded*
  array layouts, their builders and parsers, and the single-file
  ``save_*`` / ``load_*`` functions over the full layout.
- :mod:`repro.checkpoint.reshard` — one re-slice core that restores
  either layout into any world size or bucket layout.
- :mod:`repro.checkpoint.engine` — orchestration:
  :class:`CheckpointEngine` does snapshot-then-write async saves, buddy
  replication over the transport hub, and newest-recoverable restore
  with replica fallback.

See ``docs/checkpointing.md`` for the full design.
"""

from repro.checkpoint.format import (
    TRAILER_SIZE,
    ChecksumError,
    crc_of,
    load_verified_npz,
    npz_bytes,
    read_verified,
    write_verified,
)
from repro.checkpoint.manifest import (
    Manifest,
    ManifestFile,
    apply_retention,
    generation_dirname,
    list_generations,
    load_generation_manifest,
    verify_generation,
    write_manifest,
)
from repro.checkpoint.payload import (
    load_checkpoint,
    load_sharded_training_checkpoint,
    load_training_checkpoint,
    save_checkpoint,
    save_sharded_training_checkpoint,
    save_training_checkpoint,
)
from repro.checkpoint.reshard import (
    load_shard_payloads,
    reshard_state_dict,
    shard_payload,
)
from repro.checkpoint.engine import CheckpointEngine

__all__ = [
    "TRAILER_SIZE",
    "ChecksumError",
    "crc_of",
    "load_verified_npz",
    "npz_bytes",
    "read_verified",
    "write_verified",
    "Manifest",
    "ManifestFile",
    "apply_retention",
    "generation_dirname",
    "list_generations",
    "load_generation_manifest",
    "verify_generation",
    "write_manifest",
    "load_checkpoint",
    "load_sharded_training_checkpoint",
    "load_training_checkpoint",
    "save_checkpoint",
    "save_sharded_training_checkpoint",
    "save_training_checkpoint",
    "load_shard_payloads",
    "reshard_state_dict",
    "shard_payload",
    "CheckpointEngine",
]
