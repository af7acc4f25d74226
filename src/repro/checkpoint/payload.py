"""The payload schema: how training state becomes named arrays and back.

Every checkpoint this package writes is one ``.npz`` array mapping in
one of two layouts, and this module is the only place that spells their
keys.

**full** — a whole replica (``full.npz`` in an engine generation, or a
single file), built from a ``(state_dict, optimizer state_dict)`` pair by
:func:`full_payload` and read back by :func:`install_full`.  Replicas are
identical by construction, so one rank writes and every rank loads::

    state/{name}          module.state_dict() entry
    opt/{index}/{key}     optimizer state of parameter {index}, positional
    meta/iteration        0-d int
    meta/opt_num_params   0-d int, guards the positional restore
    extra/{key}           caller metadata

**sharded** — one rank's spans of a ``repro.sharded`` wrapper
(``shard.npz``), built by :func:`sharded_payload`;
:mod:`repro.checkpoint.reshard` decides what goes in and where it lands::

    param/b{b}            this rank's parameter span of bucket b
    opt/b{b}/{key}        its optimizer-state span (scalars as 0-d)
    buffer/{name}         full module buffers, rank 0 only
    extra/{key}           caller metadata
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.checkpoint.format import load_verified_npz, npz_bytes, write_verified

STATE, OPT, EXTRA = "state/", "opt/", "extra/"
ITERATION, OPT_NUM_PARAMS = "meta/iteration", "meta/opt_num_params"
PARAM_BUCKET, OPT_BUCKET, BUFFER = "param/b", "opt/b", "buffer/"


def _section(data: Dict[str, np.ndarray], prefix: str) -> Dict[str, np.ndarray]:
    return {k[len(prefix):]: v for k, v in data.items() if k.startswith(prefix)}


def _add_extra(payload: Dict[str, np.ndarray], extra: Optional[Dict]) -> None:
    for key, value in (extra or {}).items():
        payload[EXTRA + key] = np.asarray(value)


# -- full layout -------------------------------------------------------------
def full_payload(
    state: Dict,
    opt_state: Optional[Dict] = None,
    iteration: Optional[int] = None,
    extra: Optional[Dict] = None,
    copy: bool = False,
) -> Dict[str, np.ndarray]:
    """The full-layout array mapping of a ``(state_dict, optimizer
    state_dict)`` pair.  ``copy=True`` detaches every array from live
    training state (the checkpoint engine's snapshot step)."""
    take = np.array if copy else np.asarray  # np.array copies
    payload = {STATE + name: take(value) for name, value in state.items()}
    if opt_state is not None:
        # Per-parameter state (momentum buffers, Adam moments), keyed by
        # position: restoring it keeps a resumed run on its trajectory.
        for index, per_param in opt_state["state"].items():
            for key, value in per_param.items():
                payload[f"{OPT}{index}/{key}"] = take(value)
        if "num_params" in opt_state:
            # Loading into an optimizer with a different parameter count
            # fails loudly, not misaligned.
            payload[OPT_NUM_PARAMS] = np.asarray(int(opt_state["num_params"]))
    if iteration is not None:
        payload[ITERATION] = np.asarray(int(iteration))
    _add_extra(payload, extra)
    return payload


def install_full(
    data: Dict[str, np.ndarray],
    load_state: Callable[[Dict], object],
    load_opt_state: Optional[Callable[[Dict], object]] = None,
) -> Dict:
    """Parse a full-layout mapping and hand its sections to the loaders:
    ``load_state(state_dict)`` and, when given, ``load_opt_state`` with
    the positional ``{"state": ..., "num_params": ...}`` dict.  Returns
    ``{"iteration": int, "extra": dict}``."""
    load_state(_section(data, STATE))
    if load_opt_state is not None:
        opt_state: Dict = {"state": {}}
        for name, value in _section(data, OPT).items():
            index, key = name.split("/", 1)
            opt_state["state"].setdefault(int(index), {})[key] = value
        if OPT_NUM_PARAMS in data:
            opt_state["num_params"] = int(data[OPT_NUM_PARAMS])
        load_opt_state(opt_state)
    return {
        "iteration": int(data.get(ITERATION, 0)),
        "extra": _section(data, EXTRA),
    }


# -- single-file checkpoints (full layout) -------------------------------------
def save_checkpoint(path: str, module, extra: Dict | None = None) -> None:
    """Write a model's state_dict (plus optional scalar metadata) as npz."""
    write_verified(path, npz_bytes(full_payload(module.state_dict(), extra=extra)))


def load_checkpoint(path: str, module) -> Dict:
    """Load a checkpoint into ``module``; returns the extra metadata.

    Raises :class:`~repro.checkpoint.format.ChecksumError` on a torn or
    corrupt file.
    """
    return install_full(load_verified_npz(path), module.load_state_dict)["extra"]


def save_training_checkpoint(
    path: str,
    module,
    optimizer=None,
    iteration: int = 0,
    extra: Dict | None = None,
) -> None:
    """Atomically write model + optimizer state + iteration counter."""
    opt_state = None if optimizer is None else optimizer.state_dict()
    write_verified(
        path, npz_bytes(full_payload(module.state_dict(), opt_state, iteration, extra))
    )


def load_training_checkpoint(path: str, module, optimizer=None) -> Dict:
    """Restore a :func:`save_training_checkpoint` file.

    Loads model state into ``module`` and (when given) optimizer state
    into ``optimizer``; returns ``{"iteration": int, "extra": dict}``.
    A partially written or corrupted file raises
    :class:`~repro.checkpoint.format.ChecksumError` before any state is
    touched.
    """
    return install_full(
        load_verified_npz(path),
        module.load_state_dict,
        None if optimizer is None else optimizer.load_state_dict,
    )


def save_sharded_training_checkpoint(
    path: str,
    model,
    iteration: int = 0,
    extra: Optional[Dict] = None,
) -> None:
    """Consolidate a ``repro.sharded`` wrapper's state and write it on
    rank 0.  **Collective**: every rank must call this (consolidation
    all-gathers parameter and optimizer spans).  The file is what
    :func:`load_training_checkpoint` reads, so it restores into plain
    local training, DDP, or any sharding stage at any world size."""
    state = model.state_dict()
    opt_state = model.optimizer.consolidated_state_dict()
    if model.rank == 0:
        write_verified(path, npz_bytes(full_payload(state, opt_state, iteration, extra)))


def load_sharded_training_checkpoint(path: str, model) -> Dict:
    """Restore a full-layout file — from either saver, at any world
    size — into a sharded wrapper.  Local: each rank reads the file, the
    wrapper re-shards the model state and the optimizer slices its spans
    of the positional state.  Returns ``{"iteration", "extra"}``."""
    return install_full(
        load_verified_npz(path),
        model.load_state_dict,
        model.optimizer.load_consolidated_state_dict,
    )


# -- sharded layout -----------------------------------------------------------
def shard_key(bucket: int, key: Optional[str] = None) -> str:
    """Name of bucket ``bucket``'s parameter span, or of its span of
    optimizer-state ``key``, in the sharded layout."""
    return f"{PARAM_BUCKET}{bucket}" if key is None else f"{OPT_BUCKET}{bucket}/{key}"


def sharded_payload(
    params: List[np.ndarray],
    opt_states: List[Dict],
    buffers: Dict[str, np.ndarray],
    extra: Optional[Dict] = None,
) -> Dict[str, np.ndarray]:
    """The sharded-layout array mapping of one rank: its parameter span
    and optimizer-state spans per bucket (copied — this is a snapshot),
    plus whatever full buffers ride along."""
    payload: Dict[str, np.ndarray] = {}
    for bucket, (span, state) in enumerate(zip(params, opt_states)):
        payload[shard_key(bucket)] = np.array(span, copy=True)
        for key in sorted(state):
            payload[shard_key(bucket, key)] = np.array(state[key], copy=True)
    for name, value in buffers.items():
        payload[BUFFER + name] = np.array(value, copy=True)
    _add_extra(payload, extra)
    return payload


def parse_sharded(data: Dict[str, np.ndarray]):
    """``(optimizer-state keys present, buffers, extra)`` of one rank's
    sharded-layout mapping; its spans are looked up by :func:`shard_key`."""
    keys = {name.split("/", 1)[1] for name in _section(data, OPT_BUCKET)}
    return keys, _section(data, BUFFER), _section(data, EXTRA)
