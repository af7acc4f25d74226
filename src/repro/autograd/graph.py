"""Autograd graph traversal utilities.

DDP's forward pass must discover which parameters *participate* in the
current iteration's graph (paper Algorithm 1, line 10): it walks the tape
from the forward outputs and collects every reachable ``AccumulateGrad``
node.  Parameters whose accumulators are unreachable would otherwise hang
the backward pass, because their hooks never fire (Fig. 3(b)).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Set

from repro.autograd.engine import AccumulateGrad
from repro.autograd.tensor import Tensor


def collect_participating_accumulators(outputs) -> Set[AccumulateGrad]:
    """All ``AccumulateGrad`` nodes reachable from ``outputs``: a tensor,
    or lists, tuples and dicts of them nested in any way (a forward's
    result)."""
    found: Set[AccumulateGrad] = set()
    seen: Set[int] = set()
    stack: List[object] = []
    for out in _tensors(outputs):
        node = getattr(out, "grad_fn", None)
        if node is None and getattr(out, "requires_grad", False) and out.is_leaf:
            found.add(out.accumulator())
        elif node is not None:
            stack.append(node)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, AccumulateGrad):
            found.add(node)
            continue
        for edge in node.next_edges:
            if edge is not None and id(edge) not in seen:
                stack.append(edge)
    return found


def _tensors(value) -> Iterator[Tensor]:
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _tensors(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _tensors(item)


def graph_node_count(outputs: Iterable) -> int:
    """Number of distinct tape nodes reachable from ``outputs`` (diagnostics)."""
    seen: Set[int] = set()
    stack = [out.grad_fn for out in outputs if getattr(out, "grad_fn", None) is not None]
    while stack:
        node = stack.pop()
        if id(node) in seen or node is None:
            continue
        seen.add(id(node))
        if isinstance(node, AccumulateGrad):
            continue
        stack.extend(edge for edge in node.next_edges if edge is not None)
    return len(seen)
