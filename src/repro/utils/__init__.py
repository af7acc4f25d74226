"""Shared utilities: seeding, sizes, rank identity, and small helpers."""

from repro.utils.seed import manual_seed, get_rng, fork_rng
from repro.utils.units import MB, KB, format_bytes, format_seconds
from repro.checkpoint.payload import (
    save_checkpoint,
    load_checkpoint,
    save_training_checkpoint,
    load_training_checkpoint,
)
from repro.utils.logging import enable_logging, logger
from repro.utils.rank import get_current_rank, set_current_rank

__all__ = [
    "manual_seed",
    "get_rng",
    "fork_rng",
    "MB",
    "KB",
    "format_bytes",
    "format_seconds",
    "save_checkpoint",
    "load_checkpoint",
    "enable_logging",
    "logger",
    "get_current_rank",
    "set_current_rank",
]
