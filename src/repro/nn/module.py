"""``Module`` and ``Parameter``: the layer composition system.

Registration order is load-bearing for the whole library: DDP allocates
parameters to buckets in the *reverse* of ``model.parameters()`` order,
assuming layers are registered roughly in forward-invocation order
(paper §3.2.3).  ``Module`` therefore keeps insertion-ordered dicts for
parameters, buffers, and submodules, and ``parameters()`` walks them
depth-first in definition order — deterministically identical across
ranks given identical model code.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A leaf tensor that a ``Module`` treats as trainable state."""

    def __init__(self, data, requires_grad: bool = True, device: str = "cpu"):
        if isinstance(data, Tensor):
            super().__init__(data.data, requires_grad=requires_grad, device=data.device)
        else:
            arr = np.asarray(data)
            if arr.dtype.kind != "f":
                arr = arr.astype(np.float64)
            super().__init__(arr, requires_grad, device)

    def __repr__(self) -> str:
        return "Parameter containing:\n" + super().__repr__()


class Module:
    """Base class for all layers and models.

    Subclasses define parameters/buffers/submodules as attributes in
    ``__init__`` and implement ``forward``.  Assignment order determines
    iteration order, exactly as in PyTorch.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        # Unified registration order across parameters and submodules —
        # this is the order ``parameters()`` walks, hence the order DDP
        # buckets in reverse.
        object.__setattr__(self, "_order", [])
        object.__setattr__(self, "training", True)

    def _note_order(self, kind: str, name: str) -> None:
        entry = (kind, name)
        if entry not in self._order:
            self._order.append(entry)

    # -- attribute magic ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._note_order("param", name)
            self.__dict__.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._note_order("module", name)
            self.__dict__.pop(name, None)
        elif name in getattr(self, "_buffers", {}):
            # Re-assigning a registered buffer keeps it a buffer.
            self._buffers[name] = value
        else:
            if name in self._parameters:
                del self._parameters[name]
                self._order.remove(("param", name))
            if name in self._modules:
                del self._modules[name]
                self._order.remove(("module", name))
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        # Only called when normal lookup fails.
        for store in ("_parameters", "_buffers", "_modules"):
            registry = self.__dict__.get(store)
            if registry is not None and name in registry:
                return registry[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def register_buffer(self, name: str, tensor: Optional[Tensor]) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats).

        DDP broadcasts buffers from rank 0 before every synchronized
        forward pass (paper §4.1, "Model Buffers").
        """
        self._buffers[name] = tensor
        self.__dict__.pop(name, None)

    def register_parameter(self, name: str, param: Optional[Parameter]) -> None:
        if param is None:
            self._parameters.pop(name, None)
        else:
            self._parameters[name] = param
            self._note_order("param", name)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        self._note_order("module", name)

    # -- iteration -------------------------------------------------------
    def _registered_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Every registration, depth-first, in exact registration order (as
        in PyTorch, where a parameter defined before a submodule also
        iterates before it): a tied parameter once per name."""
        for kind, name in self._order:
            if kind == "param":
                param = self._parameters.get(name)
                if param is not None:
                    yield prefix + name, param
            else:
                module = self._modules.get(name)
                if module is not None:
                    yield from module._registered_parameters(prefix + name + ".")

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Each parameter once, under its first registered name, as in
        PyTorch: a weight tied across two modules is one parameter."""
        seen = set()
        for name, param in self._registered_parameters(prefix):
            if id(param) not in seen:
                seen.add(id(param))
                yield name, param

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, buf in self._buffers.items():
            if buf is not None:
                yield prefix + name, buf
        for mod_name, module in self._modules.items():
            if module is not None:
                yield from module.named_buffers(prefix + mod_name + ".")

    def buffers(self) -> Iterator[Tensor]:
        for _, buf in self.named_buffers():
            yield buf

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            if module is not None:
                yield from module.modules()

    def children(self) -> Iterator["Module"]:
        yield from (m for m in self._modules.values() if m is not None)

    # -- state ------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name → array copy of all parameters and buffers, under
        every registered name (a tied weight appears once per owner)."""
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self._registered_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.data.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self._registered_parameters())
        own.update(dict(self.named_buffers()))
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, tensor in own.items():
            np.copyto(tensor.data, np.asarray(state[name]).reshape(tensor.data.shape))

    # -- training state -----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self.children():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def to(self, device: str) -> "Module":
        """Retag every parameter and buffer onto ``device``."""
        for param in self.parameters():
            param.to(device)
        for buf in self.buffers():
            buf.to(device)
        return self

    # -- call protocol ---------------------------------------------------
    def forward(self, *inputs, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *inputs, **kwargs):
        return self.forward(*inputs, **kwargs)

    def __repr__(self) -> str:
        lines = [type(self).__name__ + "("]
        for name, module in self._modules.items():
            sub = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {sub}")
        lines.append(")")
        return "\n".join(lines)

    def num_parameters(self) -> int:
        """Total trainable element count (used throughout the benchmarks)."""
        return sum(p.numel() for p in self.parameters())
