"""The backward engine and the ``AccumulateGrad`` hook point.

The engine executes the tape in reverse topological order from the root.
Leaf tensors terminate in :class:`AccumulateGrad` nodes; after a leaf's
gradient is written, the node fires its registered **post-hooks**.  This
is the exact mechanism PyTorch's DDP reducer plugs into (paper §3.2.3):
one post-hook per parameter, each hook decrementing its bucket's pending
count and launching an AllReduce when the bucket becomes ready.

Only the sub-graph reachable from the backward root executes, so leaves
not touched by an iteration never fire their hooks — reproducing the
"pluralized graphs" hang scenario of Fig. 3(b) that DDP must handle.
"""

from __future__ import annotations

import contextlib
import heapq
import threading
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

from repro.autograd.tensor import Tensor

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording within the block (e.g. optimizer updates)."""
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


class AccumulateGrad:
    """Terminal tape node that writes gradients into a leaf tensor.

    Hooks registered via :meth:`register_post_hook` run *after* the
    gradient has been accumulated into ``tensor.grad`` — the reducer's
    signal that this parameter's gradient is ready for communication.
    """

    def __init__(self, tensor):
        self.tensor = tensor
        self._post_hooks: List[Callable] = []
        self.seq_nr = -1  # leaves carry no execution order of their own
        # Optional Tensor whose .data is a view of external storage (the
        # reducer's flat bucket buffer).  When set, the first gradient of
        # an iteration is written directly into that storage and the view
        # becomes ``tensor.grad`` — PyTorch's gradient_as_bucket_view.
        self.grad_view = None

    def set_grad_view(self, view) -> None:
        """Install (or clear, with None) a preallocated gradient view.

        The view is adopted lazily: a parameter that never receives a
        gradient keeps ``grad is None``, which the reducer relies on for
        unused-parameter detection.
        """
        self.grad_view = view

    def register_post_hook(self, hook: Callable[["AccumulateGrad"], None]) -> Callable:
        """Register ``hook(node)``; returns a zero-argument remover."""
        self._post_hooks.append(hook)

        def remove() -> None:
            if hook in self._post_hooks:
                self._post_hooks.remove(hook)

        return remove

    def clear_post_hooks(self) -> None:
        self._post_hooks.clear()

    def accumulate(self, grad: np.ndarray) -> None:
        if grad.shape != self.tensor.data.shape:
            raise RuntimeError(
                f"gradient shape {grad.shape} does not match leaf shape "
                f"{self.tensor.data.shape}"
            )
        if self.tensor.grad is None:
            view = self.grad_view
            if view is not None and view.data.shape == grad.shape:
                # View path: one copy lands the gradient in the external
                # (bucket) storage, which is then aliased as .grad — no
                # second copy when the bucket is reduced.
                np.copyto(view.data, grad)
                self.tensor.grad = view
            else:
                # order="C": astype would otherwise keep the producer's
                # memory order, and a transposed gradient would make
                # every later += and optimizer sweep strided.
                self.tensor.grad = Tensor(
                    grad.astype(self.tensor.data.dtype, order="C", copy=True)
                )
        else:
            self.tensor.grad.data += grad
        hooks = self._post_hooks
        if len(hooks) == 1:
            hooks[0](self)
        else:
            for hook in list(hooks):  # a hook may remove itself
                hook(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AccumulateGrad shape={self.tensor.data.shape}>"


def backward(root_tensor, grad: np.ndarray) -> None:
    """Run backpropagation from ``root_tensor`` with initial gradient ``grad``.

    Gradients flowing into the same node from several consumers are summed
    before the node's ``backward`` runs (standard reverse-mode dependency
    counting), so each tape node executes exactly once.
    """
    root = root_tensor.grad_fn
    if root is None:
        if root_tensor.requires_grad:
            root_tensor.accumulator().accumulate(np.asarray(grad))
            return
        raise RuntimeError("tensor does not require grad; backward is a no-op")

    dependencies = _count_dependencies(root)
    pending: Dict[object, np.ndarray] = {root: np.asarray(grad, dtype=np.float64)}
    # Ready queue popped by seq_nr descending (a max-heap on the unique
    # sequence numbers) approximates the reverse of execution order, which
    # keeps gradient-ready order realistic for the overlap experiments
    # (later layers' grads become ready first).  Leaves never enter it:
    # they accumulate below, the moment their last gradient arrives.
    ready = [(-root.seq_nr, root)]

    while ready:
        node = heapq.heappop(ready)[1]
        grad_output = pending.pop(node)

        grads_in = node.backward(node.ctx, grad_output)
        if not isinstance(grads_in, tuple):
            grads_in = (grads_in,)
        # backward may return trailing Nones for non-tensor kwargs; it must
        # cover at least every recorded edge.
        if len(grads_in) < len(node.next_edges):
            raise RuntimeError(
                f"{node.name()}.backward returned {len(grads_in)} gradients "
                f"for {len(node.next_edges)} inputs"
            )
        for edge, grad_in in zip(node.next_edges, grads_in):
            if edge is None or grad_in is None:
                continue
            if not isinstance(grad_in, np.ndarray):
                grad_in = np.asarray(grad_in)
            if edge in pending:
                pending[edge] = pending[edge] + grad_in
            else:
                pending[edge] = grad_in
            dependencies[edge] -= 1
            if dependencies[edge] == 0:
                if isinstance(edge, AccumulateGrad):
                    # Leaves accumulate (and fire their post-hooks) the
                    # moment their gradient is complete — the readiness
                    # signal DDP's bucketing overlap relies on.
                    edge.accumulate(pending.pop(edge))
                else:
                    heapq.heappush(ready, (-edge.seq_nr, edge))

    if pending:
        raise RuntimeError(
            "backward finished with undelivered gradients; the tape is corrupt"
        )


def _count_dependencies(root) -> Dict[object, int]:
    """Number of consumers each node has within the reachable sub-graph."""
    dependencies: Dict[object, int] = defaultdict(int)
    dependencies[root] = 1
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, AccumulateGrad):
            continue
        for edge in node.next_edges:
            if edge is None:
                continue
            dependencies[edge] += 1
            if edge not in seen:
                seen.add(edge)
                stack.append(edge)
    return dependencies
