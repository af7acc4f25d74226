"""The ``REPRO_DEBUG`` gate: OFF / INFO / DETAIL.

Mirrors ``TORCH_DISTRIBUTED_DEBUG``: the debug layer is compiled around
one integer read (``DEBUG.level``) so the hot collective path pays a
single attribute check while debugging is off.

* ``OFF`` (default) — zero extra threads; collective records are
  retained only while telemetry is on.
* ``INFO`` — flight recorder on, hang watch on, DDP construction
  verifies parameter shapes/dtypes across ranks, reducer errors name
  unready parameters.
* ``DETAIL`` — everything above, plus per-rank signature publication
  (cross-rank fingerprint diffs on mismatch) and a post-broadcast
  parameter *value* check at DDP construction.

Beside the level sits the one telemetry flag, ``DEBUG.telemetry``
(``repro.telemetry.enable()`` / ``disable()``; ``REPRO_TELEMETRY=1`` at
import).  Every retention gate reads this one state:
``DEBUG.level or DEBUG.telemetry`` keeps records in the rank's ring.
"""

from __future__ import annotations

import os

OFF = 0
INFO = 1
DETAIL = 2

_LEVEL_NAMES = {OFF: "OFF", INFO: "INFO", DETAIL: "DETAIL"}
_NAME_LEVELS = {
    "OFF": OFF, "0": OFF, "": OFF, "FALSE": OFF, "NO": OFF,
    "INFO": INFO, "1": INFO, "ON": INFO, "TRUE": INFO,
    "DETAIL": DETAIL, "2": DETAIL,
}


class _DebugState:
    """Process-wide debug level and telemetry flag; ``DEBUG.level`` and
    ``DEBUG.telemetry`` are the one-branch gates."""

    __slots__ = ("level", "telemetry")

    def __init__(self, level: int = OFF, telemetry: bool = False):
        self.level = level
        self.telemetry = telemetry


def _parse(value) -> int:
    if isinstance(value, int):
        if value not in _LEVEL_NAMES:
            raise ValueError(f"debug level must be 0/1/2, got {value}")
        return value
    name = str(value).strip().upper()
    if name not in _NAME_LEVELS:
        raise ValueError(
            f"invalid REPRO_DEBUG value {value!r}; expected OFF, INFO, or DETAIL"
        )
    return _NAME_LEVELS[name]


def _parse_env() -> int:
    raw = os.environ.get("REPRO_DEBUG", "")
    try:
        return _parse(raw)
    except ValueError:
        import warnings

        warnings.warn(
            f"ignoring invalid REPRO_DEBUG={raw!r} (expected OFF|INFO|DETAIL)",
            stacklevel=2,
        )
        return OFF


DEBUG = _DebugState(
    _parse_env(),
    os.environ.get("REPRO_TELEMETRY", "").lower() in ("1", "true", "on", "yes"),
)


def set_debug_level(level) -> int:
    """Set the debug level from ``"OFF"|"INFO"|"DETAIL"`` or 0/1/2."""
    DEBUG.level = _parse(level)
    return DEBUG.level


def get_debug_level() -> int:
    return DEBUG.level


def debug_level_name() -> str:
    return _LEVEL_NAMES[DEBUG.level]
