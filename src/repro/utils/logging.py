"""Library logging.

A single ``repro`` logger, silent by default.  Set ``REPRO_LOG=debug``
(or ``info``) in the environment, or call :func:`enable_logging`, to
see reducer events (bucket launches, finalization) — the first thing
to look at when a distributed run hangs.

Every record carries a ``%(rank)s`` field resolved from the rank
contextvar (:mod:`repro.utils.rank`) that ``run_distributed`` binds at
rank spawn — so records attribute to the *actual* rank rather than whatever the
thread happens to be named.  Records emitted outside any rank context
show ``-``.
"""

from __future__ import annotations

import logging
import os

logger = logging.getLogger("repro")
logger.addHandler(logging.NullHandler())


class RankFilter(logging.Filter):
    """Inject ``record.rank`` from the calling thread's rank contextvar."""

    def filter(self, record: logging.LogRecord) -> bool:
        from repro.utils.rank import get_current_rank

        rank = get_current_rank()
        record.rank = "-" if rank is None else rank
        return True


_FORMAT = "[repro %(levelname).1s rank=%(rank)s] %(message)s"


def enable_logging(level: str = "debug") -> logging.Logger:
    """Attach a stderr handler with rank-aware formatting.

    Idempotent: repeated calls update the level of the existing handler
    instead of stacking duplicates (each would double every line).
    """
    handler = next(
        (h for h in logger.handlers if getattr(h, "_repro_handler", False)), None
    )
    if handler is None:
        handler = logging.StreamHandler()
        handler._repro_handler = True
        handler.setFormatter(logging.Formatter(_FORMAT))
        handler.addFilter(RankFilter())
        logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper()))
    return logger


_warned_keys: set = set()
_warned_lock = __import__("threading").Lock()


def warn_once(key: str, message: str, *args, level: int = logging.WARNING) -> bool:
    """Log ``message`` at most once per ``key`` for the process lifetime.

    Used by periodic machinery (the liveness thread's tick, shutdown
    paths that several owners may drive) where a recurring condition
    should surface exactly once instead of flooding stderr.  Returns
    True if the message was emitted.
    """
    with _warned_lock:
        if key in _warned_keys:
            return False
        _warned_keys.add(key)
    logger.log(level, message, *args)
    return True


_env_level = os.environ.get("REPRO_LOG")
if _env_level:
    enable_logging(_env_level)
