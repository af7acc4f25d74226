"""Optimizer base class: parameter groups, per-parameter state, and the
one step loop every optimizer shares.

A subclass supplies one *kernel* that updates a 1-D parameter array in
place from a 1-D gradient, block by block.  :meth:`Optimizer.step` feeds
it either one parameter at a time or — when consecutive parameters of a
group are views laid end to end in one buffer, gradients likewise, which
is how DDP's reducer lays out a bucket — a whole *run* of parameters as
one array.  Every optimizer here is elementwise, so the two are bitwise
the same update; the run is ~5× fewer numpy calls.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor

#: Elements a kernel updates per pass through its workspace.  Chosen with
#: two rank threads stepping at once (docs/performance.md, "Optimizer
#: layer"): smaller blocks multiply numpy calls that cost ~20 µs each
#: under GIL contention, larger ones push the working set out of L2.
BLOCK_ELEMENTS = 1 << 16


def _locate(array: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """``(owner, offset)`` when ``array`` is a C-contiguous window of a
    C-contiguous ndarray of its own dtype, ``offset`` in elements; else
    None.  Two arrays are neighbours in memory exactly when they share
    an owner and one's offset plus size is the other's offset."""
    if not array.flags.c_contiguous:
        return None
    owner = array
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if owner.dtype != array.dtype or not owner.flags.c_contiguous:
        return None
    start = array.__array_interface__["data"][0]
    origin = owner.__array_interface__["data"][0]
    return owner, (start - origin) // array.itemsize


def _spanning(arrays: List[np.ndarray]) -> Optional[np.ndarray]:
    """The 1-D view that covers ``arrays`` when they lie end to end, in
    order, in one owner; None otherwise."""
    first = _locate(arrays[0])
    if first is None:
        return None
    owner, begin = first
    end = begin
    for array in arrays:
        located = _locate(array)
        if located is None or located[0] is not owner or located[1] != end:
            return None
        end += array.size
    return owner.reshape(-1)[begin:end]


def _state_signature(per_param: Optional[Dict], param: Tensor):
    """What two parameters' states must share to be stepped as one
    array: the same keys, equal scalars (Adam's step count), arrays of
    one dtype shaped like their parameter.  None = not steppable flat."""
    if not per_param:
        return ()
    signature = []
    for key in sorted(per_param):
        value = per_param[key]
        if isinstance(value, np.ndarray):
            if value.shape != param.data.shape:
                return None
            value = value.dtype.str
        signature.append((key, value))
    return tuple(signature)


def _single(param: Tensor) -> tuple:
    data = param.data
    flat = data.reshape(-1) if data.flags.c_contiguous else None
    return param, data, param.grad is not None, flat


def _flat_state(per_param: Dict) -> Dict:
    """A lone parameter's state as the kernel wants it: arrays 1-D."""
    state = {}
    for key, value in per_param.items():
        if isinstance(value, np.ndarray):
            if not value.flags.c_contiguous:
                value = per_param[key] = np.ascontiguousarray(value)
            value = value.reshape(-1)
        state[key] = value
    return state


class _Run:
    """Consecutive parameters of one group stepped as a single array.

    ``p`` / ``g`` span the members' data / gradients; ``state`` is what
    the kernel sees (one flat per array key, scalars as they are), and
    each member's own state dict holds views of those flats, so
    ``state_dict()`` and checkpoints read per-parameter state as ever.
    ``datas`` / ``grads`` / ``states`` / ``views`` are the objects the
    run was built from; :meth:`Optimizer._run_valid` compares them by
    identity before every step.
    """

    __slots__ = ("params", "datas", "grads", "states", "p", "g", "state", "views")


class _Plan:
    """How one param group is stepped: runs, then everything else one
    parameter at a time.  ``singles`` rows are ``(param, data,
    had_grad, p)`` as found at discovery, ``p`` the 1-D view of ``data``
    (None when ``data`` is not C-contiguous)."""

    __slots__ = ("count", "runs", "singles")


class Optimizer:
    """Holds parameter groups and per-parameter state dictionaries.

    Parameters may be passed as an iterable of tensors or of group dicts
    (``{"params": [...], "lr": 0.1}``), as in PyTorch.
    """

    def __init__(self, params: Iterable, defaults: Dict):
        self.defaults = dict(defaults)
        self.param_groups: List[Dict] = []
        self.state: Dict[int, Dict] = {}
        self._params_by_id: Dict[int, Tensor] = {}
        # Step plans by group position, and the kernels' two-block
        # workspace by dtype.  Neither is optimizer *state*: memory
        # meters and checkpoints walk ``self.state`` only.
        self._plans: Dict[int, _Plan] = {}
        self._workspaces: Dict[np.dtype, Tuple[np.ndarray, np.ndarray]] = {}

        params = list(params)
        if not params:
            raise ValueError("optimizer got an empty parameter list")
        if isinstance(params[0], dict):
            groups = params
        else:
            groups = [{"params": params}]
        for group in groups:
            self.add_param_group(group)

    def add_param_group(self, group: Dict) -> None:
        group = dict(group)
        group_params = list(group["params"])
        if not group_params:
            raise ValueError("parameter group is empty")
        for key, value in self.defaults.items():
            group.setdefault(key, value)
        for param in group_params:
            if not isinstance(param, Tensor):
                raise TypeError(f"optimizer parameters must be Tensors, got {type(param)}")
            if id(param) in self._params_by_id:
                raise ValueError("a parameter appears in more than one group")
            self._params_by_id[id(param)] = param
        group["params"] = group_params
        self.param_groups.append(group)

    def zero_grad(self) -> None:
        for group in self.param_groups:
            for param in group["params"]:
                param.grad = None

    def state_for(self, param: Tensor) -> Dict:
        """Per-parameter mutable state dict (momentum buffers etc.)."""
        return self.state.setdefault(id(param), {})

    def _ordered_params(self) -> List[Tensor]:
        return [param for group in self.param_groups for param in group["params"]]

    def state_dict(self) -> Dict:
        """Serializable optimizer state, keyed by parameter position.

        Positions index the flattened ``param_groups`` order, which is
        stable across identically constructed replicas — the property
        checkpoint restore relies on (momentum/Adam moments depend on
        the whole gradient history, so elastic recovery must restore
        them alongside the parameters; see paper §2.2 on why averaged
        parameters do not imply averaged optimizer state).
        """
        state: Dict[int, Dict] = {}
        ordered = self._ordered_params()
        for index, param in enumerate(ordered):
            per_param = self.state.get(id(param))
            if per_param:
                state[index] = {
                    key: np.asarray(value).copy()
                    for key, value in per_param.items()
                }
        return {"state": state, "num_params": len(ordered)}

    def load_state_dict(self, state_dict: Dict) -> None:
        """Restore state captured by :meth:`state_dict` (by position).

        Positional keys silently misalign if the parameter list changed
        between save and load (state would land on the wrong tensors),
        so a recorded ``num_params`` that disagrees with the registered
        count, an out-of-range index, or a state array whose shape does
        not match its parameter all raise ``ValueError``.
        """
        params = self._ordered_params()
        num_params = state_dict.get("num_params")
        if num_params is not None and int(num_params) != len(params):
            raise ValueError(
                f"optimizer state was saved for {int(num_params)} parameters "
                f"but this optimizer has {len(params)}; positional state "
                "cannot be restored across differing parameter lists"
            )
        self.state.clear()
        for index, per_param in state_dict.get("state", {}).items():
            index = int(index)
            if not 0 <= index < len(params):
                raise ValueError(
                    f"optimizer state refers to parameter {index} but only "
                    f"{len(params)} parameters are registered"
                )
            restored = {}
            for key, value in per_param.items():
                array = value.copy() if hasattr(value, "copy") else value
                # Scalars (e.g. Adam's step count) round-trip through
                # 0-d arrays when saved to npz; unwrap them.
                if hasattr(array, "ndim") and array.ndim == 0:
                    array = array.item()
                elif hasattr(array, "shape") and array.shape != params[index].data.shape:
                    raise ValueError(
                        f"optimizer state '{key}' for parameter {index} has "
                        f"shape {array.shape} but the parameter is "
                        f"{params[index].data.shape}; the checkpoint does not "
                        "match this parameter list"
                    )
                restored[key] = array
            self.state[id(params[index])] = restored

    # ------------------------------------------------------------------
    # the step loop
    # ------------------------------------------------------------------
    def _kernel(self, group: Dict, units: List[tuple]) -> None:  # pragma: no cover - abstract
        """Update every ``(p, g, state)`` of ``units`` with the group's
        hyperparameters: the 1-D array ``p`` in place from the gradient
        ``g``.

        ``state`` holds what the optimizer keeps for these elements —
        1-D arrays the size of ``p`` and scalars — and is empty before
        the first update, when the kernel creates its entries.  The
        kernel walks ``p`` in blocks of ``BLOCK_ELEMENTS``, every ufunc
        writing in place or ``out=`` into the two scratch blocks of
        :meth:`_workspace`, so a step allocates nothing larger than a
        block.
        """
        raise NotImplementedError

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient."""
        for position, group in enumerate(self.param_groups):
            plan = self._plans.get(position)
            units = None if plan is None else self._collect(plan, group)
            if units is None:
                plan = self._plans[position] = self._discover(group)
                units = self._collect(plan, group)
            self._kernel(group, units)
            for run in plan.runs:
                self._publish_run(run)
            lone = units[len(plan.runs) :]
            if not lone:
                continue
            stepped = (row for row in plan.singles if row[0].grad is not None)
            for (param, data, _, flat), (p, _, state) in zip(stepped, lone):
                if state:
                    per_param = self.state_for(param)
                    for key, value in state.items():
                        if not isinstance(value, np.ndarray):
                            per_param[key] = value
                        elif key not in per_param:  # created by this step
                            per_param[key] = value.reshape(data.shape)
                if flat is None:
                    data[...] = p.reshape(data.shape)

    def _collect(self, plan: _Plan, group: Dict) -> Optional[List[tuple]]:
        """The ``(p, g, state)`` units of this step — runs first, then
        every lone parameter that has a gradient — or None when an
        object the plan was built from is no longer in place.

        A run holds views; a rebound ``.data``, a gradient that is None
        or lives elsewhere, or a replaced state entry would make it step
        memory nobody reads.  A single is re-examined when its ``.data``
        is rebound (DDP re-homed it) or when it had no gradient at
        discovery and has one now (it may close a gap between runs).
        """
        if plan.count != len(group["params"]):
            return None
        units = []
        for run in plan.runs:
            if not self._run_valid(run):
                return None
            units.append((run.p, run.g, run.state))
        state_of = self.state.get if self.state else None
        for param, data, had_grad, p in plan.singles:
            if param.data is not data:
                return None
            grad = param.grad
            if grad is None:
                continue
            if not had_grad:
                return None
            if p is None:  # not C-contiguous: step a copy, step() writes it back
                p = data.reshape(-1)
            per_param = state_of(id(param)) if state_of else None
            state = _flat_state(per_param) if per_param else {}
            units.append((p, grad.data.reshape(-1), state))
        return units

    def _workspace(self, dtype) -> Tuple[np.ndarray, np.ndarray]:
        work = self._workspaces.get(dtype)
        if work is None:
            work = self._workspaces[dtype] = (
                np.empty(BLOCK_ELEMENTS, dtype=dtype),
                np.empty(BLOCK_ELEMENTS, dtype=dtype),
            )
        return work

    def _publish_run(self, run: _Run) -> None:
        """Carry what the kernel left in the run's state to the members:
        scalars by value, a newly created flat as per-member views."""
        for key, value in run.state.items():
            if not isinstance(value, np.ndarray):
                for per_param in run.states:
                    per_param[key] = value
            elif key not in run.views:
                run.views[key] = self._publish(run, key, value)

    @staticmethod
    def _publish(run: _Run, key: str, flat: np.ndarray) -> List[np.ndarray]:
        """Give each member its window of ``flat`` as ``state[key]``."""
        views, offset = [], 0
        for data, per_param in zip(run.datas, run.states):
            view = flat[offset : offset + data.size].reshape(data.shape)
            per_param[key] = view
            views.append(view)
            offset += data.size
        return views

    # ------------------------------------------------------------------
    # run discovery
    # ------------------------------------------------------------------
    def _run_valid(self, run: _Run) -> bool:
        state = self.state
        for param, data, grad_data, per_param in zip(
            run.params, run.datas, run.grads, run.states
        ):
            grad = param.grad
            if (
                param.data is not data
                or grad is None
                or grad.data is not grad_data
                or state.get(id(param)) is not per_param
            ):
                return False
        for key, views in run.views.items():
            for per_param, view in zip(run.states, views):
                if per_param.get(key) is not view:
                    return False
        return True

    def _discover(self, group: Dict) -> _Plan:
        """Split a group into runs and singles.

        Parameters are sorted by where their data lives; a chain grows
        while the next parameter's data *and* gradient start where the
        previous one's end and its state can share a flat (same keys,
        same step count).  Chains of two or more become runs.
        """
        located, singles = [], []
        for param in group["params"]:
            grad = param.grad
            where = None
            if grad is not None and grad.data.shape == param.data.shape:
                p_at, g_at = _locate(param.data), _locate(grad.data)
                signature = _state_signature(self.state.get(id(param)), param)
                if p_at is not None and g_at is not None and signature is not None:
                    where = (id(p_at[0]), p_at[1], id(g_at[0]), g_at[1], signature)
            if where is None:
                singles.append(_single(param))
            else:
                located.append((where, param))
        located.sort(key=lambda row: row[0][:2])

        plan = _Plan()
        plan.count = len(group["params"])
        plan.runs = []
        chain: List[Tensor] = []
        expected = None
        for where, param in located + [(None, None)]:
            if chain and where != expected:
                if len(chain) > 1:
                    plan.runs.append(self._build_run(chain))
                else:
                    singles.append(_single(chain[0]))
                chain = []
            if param is not None:
                chain.append(param)
                size = param.data.size
                expected = (where[0], where[1] + size, where[2], where[3] + size, where[4])
        plan.singles = singles
        return plan

    def _build_run(self, params: List[Tensor]) -> _Run:
        run = _Run()
        run.params = params
        run.datas = [param.data for param in params]
        run.grads = [param.grad.data for param in params]
        run.states = [self.state_for(param) for param in params]
        run.p = _spanning(run.datas)
        run.g = _spanning(run.grads)
        run.state, run.views = {}, {}
        for key, value in run.states[0].items():
            if not isinstance(value, np.ndarray):
                run.state[key] = value
                continue
            arrays = [per_param[key] for per_param in run.states]
            flat = _spanning(arrays)
            if flat is None:
                # State saved per parameter (a checkpoint, steps taken
                # before DDP wrapped the model): move it into one flat.
                flat = np.concatenate([array.reshape(-1) for array in arrays])
                arrays = self._publish(run, key, flat)
            run.state[key], run.views[key] = flat, arrays
        return run

    def __repr__(self) -> str:
        return f"{type(self).__name__}(groups={len(self.param_groups)})"
