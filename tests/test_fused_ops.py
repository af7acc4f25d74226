"""Fused compute kernels: Linear, Gelu, LayerNorm, scaled Softmax.

The composed-primitive formulations these kernels replaced live on here
as the references: each fused op must match its reference to 1e-12 in
value and in every input gradient, pass ``gradcheck``, and hand every
leaf gradient to ``AccumulateGrad`` C-contiguous in the parameter's
layout — locally, under DDP (view and copy mode) and under ZeRO-3.
"""

import heapq
import math

import numpy as np
import pytest

from repro import nn
from repro.autograd import AccumulateGrad, Tensor, gradcheck, ops
from repro.autograd import engine as engine_module
from repro.autograd.function import Context, Function
from repro.autograd.profiler import main as profiler_main
from repro.autograd.profiler import profile_ops
from repro.core import DistributedDataParallel
from repro.models import MLP, TinyTransformer
from repro.optim import SGD
from repro.sharded import FullyShardedDataParallel
from repro.utils import manual_seed

from conftest import run_world

TOL = 1e-12


# -- the composed-primitive references ---------------------------------

def linear_reference(x, weight, bias=None):
    out = x @ weight.T
    return out if bias is None else out + bias


def gelu_reference(x):
    inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + ops.tanh(inner))


def layer_norm_reference(x, weight, bias, eps=1e-5):
    mean = ops.mean(x, axis=-1, keepdims=True)
    centered = x - mean
    var = ops.mean(centered * centered, axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * weight + bias


def scaled_softmax_reference(x, scale):
    scaled = x * scale
    e = ops.exp(scaled - Tensor(scaled.data.max(axis=-1, keepdims=True)))
    return e / ops.sum(e, axis=-1, keepdims=True)


def _value_and_grads(fn, arrays, upstream):
    """``fn(*tensors)`` and the gradient of ``sum(fn * upstream)`` per input."""
    tensors = [None if a is None else Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    (out * Tensor(upstream)).sum().backward()
    return out.data, [None if t is None else t.grad.data for t in tensors]


def _assert_matches_reference(fused, reference, arrays, out_shape, rng):
    upstream = rng.standard_normal(out_shape)
    value, grads = _value_and_grads(fused, arrays, upstream)
    ref_value, ref_grads = _value_and_grads(reference, arrays, upstream)
    assert np.abs(value - ref_value).max() <= TOL
    for grad, ref_grad in zip(grads, ref_grads):
        if ref_grad is not None:
            assert grad.shape == ref_grad.shape
            assert np.abs(grad - ref_grad).max() <= TOL


class TestLinear:
    @pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["2d", "3d"])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    def test_matches_reference_and_gradcheck(self, rng, lead, with_bias):
        x = rng.standard_normal(lead + (4,))
        weight = rng.standard_normal((3, 4))
        bias = rng.standard_normal(3) if with_bias else None
        _assert_matches_reference(
            ops.linear, linear_reference, [x, weight, bias], lead + (3,), rng
        )
        inputs = [x, weight] + ([bias] if with_bias else [])
        assert gradcheck(lambda *t: (ops.linear(*t) ** 2).sum(), inputs)

    def test_one_tape_node_and_contiguous_weight_grad(self, rng):
        layer = nn.Linear(4, 3)
        out = layer(Tensor(rng.standard_normal((2, 5, 4))))
        assert out.grad_fn.name() == "Linear"
        assert all(isinstance(e, AccumulateGrad) for e in out.grad_fn.next_edges[1:])
        out.sum().backward()
        assert layer.weight.grad.data.flags.c_contiguous
        assert layer.weight.grad.data.strides == layer.weight.data.strides


class TestGelu:
    @pytest.mark.parametrize("shape", [(3, 5), (), (40000,)], ids=["2d", "0d", "multi-block"])
    def test_matches_reference(self, rng, shape):
        _assert_matches_reference(
            ops.gelu, gelu_reference, [rng.standard_normal(shape) * 2.0], shape, rng
        )

    def test_gradcheck(self, rng):
        assert gradcheck(lambda t: ops.gelu(t).sum(), [rng.standard_normal((3, 4)) * 2.0])

    def test_non_contiguous_input(self, rng):
        base = rng.standard_normal((6, 8))
        _assert_matches_reference(
            lambda t: ops.gelu(ops.transpose(t, 0, 1)),
            lambda t: gelu_reference(ops.transpose(t, 0, 1)),
            [base], (8, 6), rng,
        )

    def test_backward_leaves_saved_arrays_intact(self, rng):
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        out = ops.gelu(x)
        out.sum().backward()
        first = x.grad.data.copy()
        x.grad = None
        out.sum().backward()  # a second pass over the same tape
        assert np.array_equal(x.grad.data, first)


class TestLayerNorm:
    @pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["2d", "3d"])
    def test_matches_reference_and_gradcheck(self, rng, lead):
        arrays = [rng.standard_normal(lead + (6,)), rng.standard_normal(6), rng.standard_normal(6)]
        _assert_matches_reference(
            ops.layer_norm, layer_norm_reference, arrays, lead + (6,), rng
        )
        weights = Tensor(rng.standard_normal(lead + (6,)))
        assert gradcheck(lambda *t: (ops.layer_norm(*t) * weights).sum(), arrays)

    def test_module_is_one_node_and_honours_eps(self, rng):
        layer = nn.LayerNorm(6, eps=1e-2)
        x = rng.standard_normal((4, 6))
        out = layer(Tensor(x))
        assert out.grad_fn.name() == "LayerNorm"
        expected = layer_norm_reference(Tensor(x), layer.weight, layer.bias, eps=1e-2)
        assert np.abs(out.data - expected.data).max() <= TOL


class TestScaledSoftmax:
    @pytest.mark.parametrize("scale", [1.0, 0.25])
    def test_matches_reference_and_gradcheck(self, rng, scale):
        x = rng.standard_normal((2, 3, 5)) * 3.0
        _assert_matches_reference(
            lambda t: ops.softmax(t, axis=-1, scale=scale),
            lambda t: scaled_softmax_reference(t, scale),
            [x], x.shape, rng,
        )
        weights = Tensor(rng.standard_normal(x.shape))
        assert gradcheck(lambda t: (ops.softmax(t, scale=scale) * weights).sum(), [x])

    def test_attention_uses_the_fused_node(self, rng):
        manual_seed(0)
        model = TinyTransformer()
        with profile_ops() as profile:
            model(rng.integers(0, 64, (2, 16))).sum().backward()
        # Nothing but the two embedding adds and the residual adds is
        # left of the primitive chains: no Mul (score scaling, LayerNorm),
        # no Pow, no Sub.
        assert {"Mul", "Pow", "Sub"}.isdisjoint(op for op, _ in profile.calls)
        assert profile.calls["Softmax", "forward"] == 2  # one per block


# -- the layout contract -----------------------------------------------

def _models():
    manual_seed(3)
    rng = np.random.default_rng(3)
    return [
        (MLP(6, [8, 8], 3), Tensor(rng.standard_normal((4, 6)))),
        (TinyTransformer(vocab_size=16, max_seq_len=8, hidden=8, num_heads=2,
                         num_layers=1, ffn_dim=16, num_classes=3),
         rng.integers(0, 16, (4, 8))),
    ]


def _backward_once(wrap):
    """One forward/backward of each model; per-parameter layout checks."""
    layouts = []
    for model, inputs in _models():
        forward = wrap(model)
        nn.CrossEntropyLoss()(forward(inputs), np.zeros(4, dtype=np.int64)).backward()
        layouts += [
            (p.grad.data.flags.c_contiguous, p.grad.data.strides == p.data.strides)
            for p in model.parameters() if p.grad is not None
        ]
    return layouts


@pytest.fixture
def incoming(monkeypatch):
    """Layout of every gradient as it *reaches* ``accumulate``: is it
    C-contiguous, and do its strides equal the parameter's."""
    seen = []
    original = AccumulateGrad.accumulate

    def recording(self, grad):
        seen.append((grad.flags.c_contiguous, grad.strides == self.tensor.data.strides))
        original(self, grad)

    monkeypatch.setattr(AccumulateGrad, "accumulate", recording)
    return seen


class TestGradientLayout:
    NUM_PARAMS = 6 + 20  # MLP + one-block transformer

    def test_local(self, incoming):
        layouts = _backward_once(lambda model: model)
        assert len(layouts) == len(incoming) == self.NUM_PARAMS
        assert all(c and s for c, s in layouts + incoming)

    @pytest.mark.parametrize("as_view", [True, False], ids=["view", "copy"])
    def test_ddp(self, incoming, as_view):
        def body(rank):
            return _backward_once(
                lambda model: DistributedDataParallel(model, gradient_as_bucket_view=as_view)
            )

        for layouts in run_world(2, body, backend="gloo"):
            assert len(layouts) == self.NUM_PARAMS
            assert all(c and s for c, s in layouts)
        assert len(incoming) == 2 * self.NUM_PARAMS
        assert all(c and s for c, s in incoming)

    def test_zero3(self, incoming):
        # ZeRO-3 frees a unit's gradients the moment they are reduced, so
        # the contract is checked where it matters: on arrival.
        def body(rank):
            _backward_once(
                lambda model: FullyShardedDataParallel(model, lambda ps: SGD(ps, lr=0.1))
            )

        run_world(2, body, backend="gloo")
        assert len(incoming) == 2 * self.NUM_PARAMS
        assert all(c and s for c, s in incoming)

    def test_accumulator_forces_c_order_for_any_producer(self):
        """A user-defined op may still return a transposed gradient."""

        class TransposedGrad(Function):
            @staticmethod
            def forward(ctx, a):
                return a * 2.0

            @staticmethod
            def backward(ctx, grad):
                return (np.asfortranarray(grad * 2.0),)

        leaf = Tensor(np.ones((3, 5)), requires_grad=True)
        TransposedGrad.apply(leaf).sum().backward()
        assert leaf.grad.data.flags.c_contiguous
        assert np.array_equal(leaf.grad.data, np.full((3, 5), 2.0))


# -- readiness order ---------------------------------------------------

def _ready_order(model, inputs):
    """Parameter indices in the order their gradients become ready."""
    order = []
    for index, param in enumerate(model.parameters()):
        param.accumulator().register_post_hook(lambda _, index=index: order.append(index))
    nn.CrossEntropyLoss()(model(inputs), np.zeros(4, dtype=np.int64)).backward()
    return order


class TestReadinessOrder:
    def test_bias_before_weight_and_reverse_of_parameters(self):
        for model, inputs in _models():
            order = _ready_order(model, inputs)
            assert order == list(reversed(range(len(order))))
        layer = nn.Linear(4, 3)
        names = [name for name, _ in layer.named_parameters()]
        order = _ready_order(layer, Tensor(np.ones((4, 4))))
        assert [names[i] for i in order] == ["bias", "weight"]

    def test_order_tracer_observes_the_parents_order_on_mlp(self):
        def body(rank):
            manual_seed(0)
            ddp = DistributedDataParallel(
                MLP(6, [8, 8], 3), trace_backward_order=True, rebucket_after_iterations=100
            )
            x = Tensor(np.random.default_rng(rank).standard_normal((4, 6)))
            nn.CrossEntropyLoss()(ddp(x), np.zeros(4, dtype=np.int64)).backward()
            return ddp.reducer.order_tracer.observed_order()

        # Recorded at the parent commit (composed Add/MatMul/Transpose chain).
        assert run_world(2, body, backend="gloo") == [(5, 4, 3, 2, 1, 0)] * 2


# -- engine: the heap pops what the sort popped ------------------------

def _sorted_list_backward_order(root):
    """Node order of the engine this PR replaced: sort the ready list by
    ``seq_nr`` on every pop and take the last."""
    dependencies = engine_module._count_dependencies(root)
    ready, order = [root], []
    while ready:
        ready.sort(key=lambda n: n.seq_nr)
        node = ready.pop()
        order.append(node)
        for edge in node.next_edges:
            if edge is None:
                continue
            dependencies[edge] -= 1
            if dependencies[edge] == 0 and not isinstance(edge, AccumulateGrad):
                ready.append(edge)
    return order


class TestEngineOrder:
    def test_transformer_backward_runs_nodes_in_the_recorded_order(self, monkeypatch):
        manual_seed(1)
        model = TinyTransformer()
        loss = nn.CrossEntropyLoss()(
            model(np.random.default_rng(1).integers(0, 64, (4, 16))),
            np.zeros(4, dtype=np.int64),
        )
        expected = _sorted_list_backward_order(loss.grad_fn)
        assert len(expected) > 50

        executed = []
        real_pop = heapq.heappop

        def recording_pop(heap):
            item = real_pop(heap)
            executed.append(item[1])
            return item

        monkeypatch.setattr(engine_module.heapq, "heappop", recording_pop)
        loss.backward()
        assert [id(n) for n in executed] == [id(n) for n in expected]


# -- DDP protocols through the fused Linear ----------------------------

class _Branches(nn.Module):
    """Two bias-free heads over 3-D input; a forward uses one of them."""

    def __init__(self):
        super().__init__()
        self.trunk = nn.Linear(4, 4)
        self.heads = nn.ModuleList([nn.Linear(4, 2, bias=False) for _ in range(2)])

    def forward(self, x, head):
        return self.heads[head](self.trunk(x)).sum(axis=1)


class TestDdpThroughFusedLinear:
    def test_no_sync_accumulation_equals_reference_large_batch(self):
        rng = np.random.default_rng(5)
        xs, ys = rng.standard_normal((4, 3, 6)), rng.integers(0, 3, (4, 3))

        def body(rank):
            manual_seed(9)
            model = nn.Sequential(nn.Linear(6, 5), nn.Linear(5, 3))
            ddp = DistributedDataParallel(model)
            loss_fn = nn.CrossEntropyLoss(reduction="sum")
            with ddp.no_sync():
                loss_fn(ddp(Tensor(xs[2 * rank])), ys[2 * rank]).backward()
            loss_fn(ddp(Tensor(xs[2 * rank + 1])), ys[2 * rank + 1]).backward()
            return [p.grad.data.copy() for p in model.parameters()]

        manual_seed(9)
        model = nn.Sequential(nn.Linear(6, 5), nn.Linear(5, 3))
        w0, b0, w1, b1 = model.parameters()
        hidden = linear_reference(Tensor(xs.reshape(12, 6)), w0, b0)
        logits = linear_reference(hidden, w1, b1)
        nn.CrossEntropyLoss(reduction="sum")(logits, ys.reshape(12)).backward()
        for grads in run_world(2, body, backend="gloo"):
            for grad, param in zip(grads, model.parameters()):
                assert np.abs(grad - param.grad.data / 2).max() <= TOL

    def test_find_unused_parameters(self):
        def body(rank):
            manual_seed(4)
            model = _Branches()
            ddp = DistributedDataParallel(model, find_unused_parameters=True)
            x = Tensor(np.random.default_rng(rank).standard_normal((2, 3, 4)))
            nn.CrossEntropyLoss()(ddp(x, head=0), np.zeros(2, dtype=np.int64)).backward()
            return (model.heads[0].weight.grad.data.copy(),
                    model.heads[1].weight.grad, model.trunk.weight.grad.data.copy())

        (used0, unused0, trunk0), (used1, unused1, trunk1) = run_world(2, body, backend="gloo")
        assert unused0 is None and unused1 is None
        assert np.array_equal(used0, used1) and np.array_equal(trunk0, trunk1)
        assert np.abs(used0).max() > 0


# -- the profiler ------------------------------------------------------

class TestProfiler:
    def test_rows_and_restoration(self, rng):
        forward_before = ops.Linear.__dict__["forward"]
        accumulate_before = AccumulateGrad.accumulate
        layer = nn.Linear(4, 3)
        with profile_ops() as profile:
            assert ops.Linear.__dict__["forward"] is not forward_before
            for _ in range(2):
                layer(Tensor(rng.standard_normal((5, 4)))).sum().backward()
        assert ops.Linear.__dict__["forward"] is forward_before
        assert AccumulateGrad.accumulate is accumulate_before

        rows = {(r.op, r.direction): r for r in profile.rows(iters=2)}
        assert rows["Linear", "forward"].calls_per_iter == 1
        assert rows["Linear", "backward"].calls_per_iter == 1
        assert rows["AccumulateGrad", "accumulate"].calls_per_iter == 2
        assert all(r.self_ms_per_iter >= 0 for r in rows.values())
        assert sum(r.share for r in rows.values()) == pytest.approx(1.0)
        ranked = [r.self_ms_per_iter for r in profile.rows(iters=2)]
        assert ranked == sorted(ranked, reverse=True)

    def test_self_time_excludes_ops_run_by_a_post_hook(self):
        class Slow(Function):
            @staticmethod
            def forward(ctx: Context, a):
                sum(range(20000))
                return a

            @staticmethod
            def backward(ctx: Context, grad):
                return (grad,)

        leaf = Tensor(np.ones(3), requires_grad=True)
        leaf.accumulator().register_post_hook(lambda _: Slow.apply(Tensor(np.ones(1))))
        with profile_ops() as profile:
            (leaf * 2.0).sum().backward()
        nested = profile.self_s["Slow", "forward"]
        assert nested > 0
        assert profile.self_s["AccumulateGrad", "accumulate"] < nested

    def test_restores_on_error(self):
        before = ops.Gelu.__dict__["backward"]
        with pytest.raises(RuntimeError):
            with profile_ops():
                raise RuntimeError("boom")
        assert ops.Gelu.__dict__["backward"] is before

    @pytest.mark.parametrize("model", ["transformer", "mlp", "convnet"])
    def test_cli_prints_ranked_table(self, capsys, model):
        assert profiler_main(["--model", model, "--iters", "1"]) == 0
        out = capsys.readouterr().out
        assert "self ms/iter" in out and "op self time" in out
        assert ("Conv2d" if model == "convnet" else "Linear") in out
