"""Backward-engine semantics: hooks, partial graphs, accumulation."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled, randn
from repro.autograd.graph import collect_participating_accumulators, graph_node_count
from repro.utils import manual_seed


class TestAccumulation:
    def test_grad_accumulates_across_backwards(self):
        a = randn(3, requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        assert np.allclose(a.grad.data, 5.0)

    def test_multi_consumer_sums_grads(self):
        a = randn(4, requires_grad=True)
        b = a * 2.0
        loss = (b + b * 3.0).sum()
        loss.backward()
        assert np.allclose(a.grad.data, 8.0)

    def test_diamond_graph(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3.0
        c = a * 4.0
        (b * c).sum().backward()  # d/da (12 a^2) = 24a
        assert np.allclose(a.grad.data, 48.0)

    def test_each_node_executes_once(self):
        calls = []
        a = randn(3, requires_grad=True)
        b = a.exp()  # exp saves its output; count via hook below instead
        acc_calls = []
        a.accumulator().register_post_hook(lambda node: acc_calls.append(1))
        (b + b).sum().backward()
        assert len(acc_calls) == 1  # gradient delivered once, pre-summed


class TestHooks:
    def test_post_hook_fires_after_grad_written(self):
        a = randn(3, requires_grad=True)
        seen = []
        a.accumulator().register_post_hook(
            lambda node: seen.append(node.tensor.grad.data.copy())
        )
        (a * 2.0).sum().backward()
        assert len(seen) == 1
        assert np.allclose(seen[0], 2.0)

    def test_hook_removal(self):
        a = randn(3, requires_grad=True)
        seen = []
        remove = a.accumulator().register_post_hook(lambda node: seen.append(1))
        (a * 1.0).sum().backward()
        remove()
        (a * 1.0).sum().backward()
        assert len(seen) == 1

    def test_accumulator_identity_stable(self):
        a = randn(3, requires_grad=True)
        assert a.accumulator() is a.accumulator()

    def test_hooks_fire_in_backward_order(self):
        """Later layers' hooks fire before earlier layers' hooks."""
        manual_seed(0)
        w1 = randn(4, 4, requires_grad=True)
        w2 = randn(4, 4, requires_grad=True)
        order = []
        w1.accumulator().register_post_hook(lambda n: order.append("w1"))
        w2.accumulator().register_post_hook(lambda n: order.append("w2"))
        x = randn(2, 4)
        ((x @ w1) @ w2).sum().backward()
        assert order == ["w2", "w1"]

    def test_shape_mismatch_raises(self):
        a = randn(3, requires_grad=True)
        acc = a.accumulator()
        with pytest.raises(RuntimeError):
            acc.accumulate(np.zeros((2,)))


class TestPartialGraphs:
    def test_unused_leaf_gets_no_grad_and_no_hook(self):
        used = randn(3, requires_grad=True)
        unused = randn(3, requires_grad=True)
        fired = []
        unused.accumulator().register_post_hook(lambda n: fired.append(1))
        (used * 2.0).sum().backward()
        assert used.grad is not None
        assert unused.grad is None
        assert fired == []

    def test_subgraph_changes_between_iterations(self):
        a = randn(3, requires_grad=True)
        b = randn(3, requires_grad=True)
        (a * 1.0).sum().backward()
        assert a.grad is not None and b.grad is None
        a.zero_grad()
        (b * 1.0).sum().backward()
        assert a.grad is None and b.grad is not None


class TestNoGrad:
    def test_no_grad_blocks_taping(self):
        a = randn(3, requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert b.grad_fn is None
        assert not b.requires_grad

    def test_no_grad_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()


class TestGraphTraversal:
    def test_collect_participating(self):
        a = randn(3, requires_grad=True)
        b = randn(3, requires_grad=True)
        c = randn(3, requires_grad=True)
        out = (a * 2.0 + b).sum()
        found = collect_participating_accumulators([out])
        ids = {id(acc) for acc in found}
        assert id(a.accumulator()) in ids
        assert id(b.accumulator()) in ids
        assert id(c.accumulator()) not in ids

    def test_collect_from_bare_leaf_output(self):
        a = randn(3, requires_grad=True)
        found = collect_participating_accumulators([a])
        assert a.accumulator() in found

    def test_collect_from_multiple_outputs(self):
        a = randn(3, requires_grad=True)
        b = randn(3, requires_grad=True)
        out1, out2 = (a * 1.0), (b * 1.0)
        found = collect_participating_accumulators([out1, out2])
        assert len(found) == 2

    def test_node_count_grows_with_ops(self):
        a = randn(3, requires_grad=True)
        shallow = graph_node_count([a * 1.0])
        deep = graph_node_count([(a * 1.0 + 2.0).exp().sum()])
        assert deep > shallow

    def test_collect_ignores_non_grad_outputs(self):
        a = randn(3)
        found = collect_participating_accumulators([a * 2.0])
        assert found == set()
