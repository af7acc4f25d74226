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

A node whose class declares ``grad_destinations`` is offered, before its
``backward`` runs, the grad view of each leaf it alone feeds
(:func:`_offer_views`), so the op writes that gradient straight into
bucket memory and the accumulator has nothing to copy.
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
        # an iteration lands in that storage and the view becomes
        # ``tensor.grad`` — PyTorch's gradient_as_bucket_view.
        self.grad_view = None
        #: Whether the gradient accumulated last was written into the
        #: view by the op that produced it, so no copy was made — what
        #: the post-hooks read to tell a zero-copy gradient from a copy.
        self.in_place = False

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

    def accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Write ``grad`` into ``tensor.grad``, then fire the post-hooks.

        ``owned`` — the producer declared ``grad`` a fresh array nobody
        else references (:attr:`Function.grad_destinations`), so it may
        become ``.grad`` itself instead of being copied.
        """
        tensor = self.tensor
        if grad.shape != tensor.data.shape:
            raise RuntimeError(
                f"gradient shape {grad.shape} does not match leaf shape "
                f"{tensor.data.shape}"
            )
        view = self.grad_view
        self.in_place = tensor.grad is None and view is not None and grad is view.data
        if tensor.grad is not None:
            tensor.grad.data += grad
        elif self.in_place:
            # The op wrote straight into the (bucket) storage the engine
            # offered it: nothing to copy, now or when it is reduced.
            tensor.grad = view
        elif view is not None and view.data.shape == grad.shape:
            # View path, for a gradient no op could write in place (a
            # sum over consumers, an op without destinations): one copy.
            np.copyto(view.data, grad)
            tensor.grad = view
        elif (owned and grad.dtype == tensor.data.dtype and grad.base is None
              and grad.flags.c_contiguous):
            tensor.grad = Tensor(grad)
        else:
            # order="C": astype would otherwise keep the producer's
            # memory order, and a transposed gradient would make
            # every later += and optimizer sweep strided.
            tensor.grad = Tensor(grad.astype(tensor.data.dtype, order="C", copy=True))
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
    # The seed takes the root's floating dtype: a float32 model runs its
    # backward in float32 (integer roots still seed float64).
    dtype = root_tensor.data.dtype if root_tensor.data.dtype.kind == "f" else np.float64
    pending: Dict[object, np.ndarray] = {root: np.asarray(grad, dtype=dtype)}
    # Ready queue popped by seq_nr descending (a max-heap on the unique
    # sequence numbers) approximates the reverse of execution order, which
    # keeps gradient-ready order realistic for the overlap experiments
    # (later layers' grads become ready first).  Leaves never enter it:
    # they accumulate below, the moment their last gradient arrives.
    ready = [(-root.seq_nr, root)]

    while ready:
        node = heapq.heappop(ready)[1]
        grad_output = pending.pop(node)
        destinations = node.grad_destinations
        if destinations:
            node.ctx.grad_out = _offer_views(node, destinations, grad_output.dtype,
                                             dependencies, pending)

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
        for position, (edge, grad_in) in enumerate(zip(node.next_edges, grads_in)):
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
                    # signal DDP's bucketing overlap relies on.  What a
                    # declared position delivers is the op's own fresh
                    # array, or a sum made here: either is owned.
                    edge.accumulate(pending.pop(edge), position in destinations)
                else:
                    heapq.heappush(ready, (-edge.seq_nr, edge))

    if pending:
        raise RuntimeError(
            "backward finished with undelivered gradients; the tape is corrupt"
        )


def _offer_views(node, destinations, dtype, dependencies, pending) -> Dict[int, np.ndarray]:
    """The grad views ``node`` may write its declared gradients into.

    A leaf's view is offered only when ``node`` is its one consumer in
    this graph and nothing arrived for it yet (so no sum follows), the
    leaf has no gradient (so nothing is accumulated on top), and the
    view has the leaf's shape and ``grad_output``'s dtype (so the op
    writes what it would have returned, bit for bit) and is C-contiguous
    (so an op may write through a reshape of it).
    """
    offered = {}
    for position in destinations:
        edge = node.next_edges[position]
        if (isinstance(edge, AccumulateGrad) and dependencies[edge] == 1
                and edge not in pending and edge.tensor.grad is None):
            view = edge.grad_view
            if (view is not None and view.data.shape == edge.tensor.data.shape
                    and view.data.dtype == dtype and view.data.flags.c_contiguous):
                offered[position] = view.data
    return offered


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
