"""Rank identity propagation.

Each logical rank in this library is a thread (see
``repro.comm.distributed.run_distributed``).  Knowing "which rank am I
on?" from arbitrary library code — log formatting, telemetry
attribution — must not rely on thread names.  A :mod:`contextvars`
variable is set at rank spawn and read wherever rank identity is
needed.

``contextvars`` gives every thread its own value by default, so ranks
never observe each other's identity, and code running outside any rank
context simply sees ``None``.
"""

from __future__ import annotations

import contextvars
from typing import Optional

_current_rank: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "repro_current_rank", default=None
)


def set_current_rank(rank: Optional[int]):
    """Bind this thread's rank identity; returns a reset token."""
    return _current_rank.set(rank)


def get_current_rank() -> Optional[int]:
    """The rank bound to the calling thread, or ``None`` outside ranks."""
    return _current_rank.get()


def reset_current_rank(token) -> None:
    """Undo a previous :func:`set_current_rank` (for nested harnesses)."""
    _current_rank.reset(token)
