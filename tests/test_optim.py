"""Optimizer update rules and schedulers."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.nn.module import Parameter
from repro.optim import SGD, Adam, AdamW, CosineAnnealingLR, LambdaLR, StepLR
from repro.optim.optimizer import BLOCK_ELEMENTS


def param_with_grad(value, grad):
    p = Parameter(np.array(value, dtype=np.float64))
    p.grad = Tensor(np.array(grad, dtype=np.float64))
    return p


class TestSGD:
    def test_vanilla_step(self):
        p = param_with_grad([1.0], [0.5])
        SGD([p], lr=0.1).step()
        assert np.isclose(p.data[0], 1.0 - 0.05)

    def test_momentum_matches_reference(self):
        """v <- mu v + g; p <- p - lr v (torch semantics)."""
        p = param_with_grad([0.0], [1.0])
        opt = SGD([p], lr=0.1, momentum=0.9)
        opt.step()  # v=1, p=-0.1
        p.grad = Tensor(np.array([1.0]))
        opt.step()  # v=1.9, p=-0.29
        assert np.isclose(p.data[0], -0.29)

    def test_nesterov(self):
        p = param_with_grad([0.0], [1.0])
        opt = SGD([p], lr=0.1, momentum=0.9, nesterov=True)
        opt.step()  # v=1, update = g + mu*v = 1.9 -> p = -0.19
        assert np.isclose(p.data[0], -0.19)

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, nesterov=True)

    def test_weight_decay(self):
        p = param_with_grad([2.0], [0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        assert np.isclose(p.data[0], 2.0 - 0.1 * (0.5 * 2.0))

    def test_skips_grad_none(self):
        p = Parameter(np.ones(2))
        SGD([p], lr=1.0).step()
        assert np.array_equal(p.data, np.ones(2))

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=-1.0)

    def test_param_groups_with_different_lrs(self):
        p1 = param_with_grad([0.0], [1.0])
        p2 = param_with_grad([0.0], [1.0])
        opt = SGD([{"params": [p1], "lr": 0.1}, {"params": [p2], "lr": 0.01}], lr=1.0)
        opt.step()
        assert np.isclose(p1.data[0], -0.1)
        assert np.isclose(p2.data[0], -0.01)

    def test_zero_grad(self):
        p = param_with_grad([0.0], [1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_duplicate_param_rejected(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            SGD([{"params": [p]}, {"params": [p]}], lr=0.1)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        """With bias correction the first Adam update ≈ lr * sign(g)."""
        p = param_with_grad([0.0], [3.0])
        Adam([p], lr=0.01).step()
        assert np.isclose(p.data[0], -0.01, atol=1e-6)

    def test_matches_reference_two_steps(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = param_with_grad([1.0], [2.0])
        opt = Adam([p], lr=lr, betas=(b1, b2), eps=eps)
        # manual reference
        m = v = 0.0
        theta = 1.0
        for step, g in enumerate([2.0, -1.0], start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh, vh = m / (1 - b1**step), v / (1 - b2**step)
            theta -= lr * mh / (np.sqrt(vh) + eps)
        opt.step()
        p.grad = Tensor(np.array([-1.0]))
        opt.step()
        assert np.isclose(p.data[0], theta, atol=1e-10)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.9))

    def test_adamw_decoupled_decay(self):
        """AdamW decays weights directly, independent of the gradient."""
        p_adamw = param_with_grad([1.0], [0.0])
        p_adam = param_with_grad([1.0], [0.0])
        AdamW([p_adamw], lr=0.1, weight_decay=0.1).step()
        Adam([p_adam], lr=0.1, weight_decay=0.1).step()
        # With zero gradient AdamW still shrinks the weight multiplicatively.
        assert np.isclose(p_adamw.data[0], 1.0 - 0.1 * 0.1 * 1.0)
        # Coupled Adam turns decay into a gradient and normalizes it to ~lr.
        assert p_adam.data[0] < p_adamw.data[0]

    def test_state_is_per_parameter(self):
        p1 = param_with_grad([0.0], [1.0])
        p2 = param_with_grad([0.0], [1.0])
        opt = Adam([p1, p2], lr=0.1)
        opt.step()
        assert opt.state_for(p1) is not opt.state_for(p2)
        assert opt.state_for(p1)["step"] == 1


class TestSchedulers:
    def _opt(self):
        return SGD([Parameter(np.zeros(1))], lr=1.0)

    def test_step_lr(self):
        opt = self._opt()
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = []
        for _ in range(4):
            sched.step()
            lrs.append(opt.param_groups[0]["lr"])
        assert np.allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_cosine(self):
        opt = self._opt()
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.0)
        for _ in range(10):
            sched.step()
        assert np.isclose(opt.param_groups[0]["lr"], 0.0, atol=1e-12)

    def test_cosine_halfway(self):
        opt = self._opt()
        sched = CosineAnnealingLR(opt, t_max=10)
        for _ in range(5):
            sched.step()
        assert np.isclose(opt.param_groups[0]["lr"], 0.5)

    def test_lambda(self):
        opt = self._opt()
        sched = LambdaLR(opt, lambda epoch: 1.0 / (1 + epoch))
        sched.step()
        assert np.isclose(opt.param_groups[0]["lr"], 0.5)


class TestTrainingDecreasesLoss:
    @pytest.mark.parametrize("make_opt", [
        lambda ps: SGD(ps, lr=0.1),
        lambda ps: SGD(ps, lr=0.05, momentum=0.9),
        lambda ps: Adam(ps, lr=0.01),
        lambda ps: AdamW(ps, lr=0.01, weight_decay=0.01),
    ])
    def test_loss_decreases(self, make_opt):
        from repro.utils import manual_seed
        from repro.autograd import randn

        manual_seed(0)
        net = nn.Sequential(nn.Linear(5, 16), nn.Tanh(), nn.Linear(16, 1))
        x = randn(32, 5)
        y = randn(32, 1)
        opt = make_opt(list(net.parameters()))
        loss_fn = nn.MSELoss()
        first = loss_fn(net(x), y).item()
        for _ in range(100):
            opt.zero_grad()
            loss = loss_fn(net(x), y)
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.6


# ----------------------------------------------------------------------
# The blocked kernels against the loops they replaced.
#
# ``reference_sgd`` / ``reference_adam`` are the per-parameter loop bodies
# ``SGD.step`` / ``Adam.step`` ran before there was one kernel per
# optimizer, kept verbatim as the reference: every layout the optimizer
# can meet (one parameter at a time, a run of parameters stepped as one
# flat array, any mixture) must give their result **bitwise**.
# ----------------------------------------------------------------------
def reference_sgd(params, state, lr, momentum=0.0, weight_decay=0.0, nesterov=False):
    for param in params:
        if param.grad is None:
            continue
        grad = param.grad.data
        if weight_decay:
            grad = grad + weight_decay * param.data
        if momentum:
            per_param = state.setdefault(id(param), {})
            buf = per_param.get("momentum_buffer")
            if buf is None:
                buf = grad.copy()
                per_param["momentum_buffer"] = buf
            else:
                buf *= momentum
                buf += grad
            grad = grad + momentum * buf if nesterov else buf
        param.data -= lr * grad


def reference_adam(params, state, lr, betas, eps, weight_decay=0.0, decoupled=False):
    beta1, beta2 = betas
    for param in params:
        if param.grad is None:
            continue
        grad = param.grad.data
        if weight_decay and not decoupled:
            grad = grad + weight_decay * param.data
        per_param = state.setdefault(id(param), {})
        if "step" not in per_param:
            per_param["step"] = 0
            per_param["exp_avg"] = np.zeros_like(param.data)
            per_param["exp_avg_sq"] = np.zeros_like(param.data)
        per_param["step"] += 1
        step = per_param["step"]
        exp_avg, exp_avg_sq = per_param["exp_avg"], per_param["exp_avg_sq"]
        exp_avg *= beta1
        exp_avg += (1 - beta1) * grad
        exp_avg_sq *= beta2
        exp_avg_sq += (1 - beta2) * grad * grad
        bias1 = 1 - beta1**step
        bias2 = 1 - beta2**step
        denom = np.sqrt(exp_avg_sq / bias2) + eps
        update = lr * (exp_avg / bias1) / denom
        if weight_decay and decoupled:
            param.data -= lr * weight_decay * param.data
        param.data -= update


def _reference_step(optimizer, group, copies, state):
    if isinstance(optimizer, SGD):
        reference_sgd(copies, state, group["lr"], group["momentum"],
                      group["weight_decay"], group["nesterov"])
    else:
        reference_adam(copies, state, group["lr"], group["betas"], group["eps"],
                       group["weight_decay"], decoupled=isinstance(optimizer, AdamW))


class Shadow:
    """Independent copies of an optimizer's parameters, stepped by the
    reference loops with whatever gradients the originals hold.

    :meth:`attach` makes every ``optimizer.step()`` also step the copies
    and assert that originals, copies and both sides' state agree to the
    bit — so a test can drive any training loop (local, DDP, ZeRO's
    inner optimizer) and have each step checked where it happens.
    """

    def __init__(self, optimizer):
        self.optimizer = optimizer
        self.groups = [
            [Parameter(param.data.copy()) for param in group["params"]]
            for group in optimizer.param_groups
        ]
        self.state = {}
        self.steps = 0

    @classmethod
    def attach(cls, optimizer):
        shadow = cls(optimizer)
        real_step = optimizer.step

        def step():
            shadow.pull_gradients()
            real_step()
            shadow.step_and_compare()

        optimizer.step = step
        return shadow

    def pull_gradients(self):
        for group, copies in zip(self.optimizer.param_groups, self.groups):
            for param, copy in zip(group["params"], copies):
                copy.grad = None if param.grad is None else Tensor(param.grad.data.copy())

    def step_and_compare(self):
        self.steps += 1
        for group, copies in zip(self.optimizer.param_groups, self.groups):
            _reference_step(self.optimizer, group, copies, self.state)
            for param, copy in zip(group["params"], copies):
                assert param.data.shape == copy.data.shape
                assert param.data.tobytes() == copy.data.tobytes()
                expected = self.state.get(id(copy), {})
                actual = self.optimizer.state.get(id(param)) or {}
                assert set(actual) == set(expected)
                for key, value in expected.items():
                    if isinstance(value, np.ndarray):
                        assert actual[key].shape == value.shape
                        assert actual[key].tobytes() == value.tobytes()
                    else:
                        assert actual[key] == value


OPTIMIZERS = {
    "sgd": lambda ps: SGD(ps, lr=0.1),
    "sgd_wd": lambda ps: SGD(ps, lr=0.1, weight_decay=0.01),
    "sgd_momentum": lambda ps: SGD(ps, lr=0.05, momentum=0.9),
    "sgd_momentum_wd": lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01),
    "sgd_nesterov_wd": lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=0.01,
                                      nesterov=True),
    "adam": lambda ps: Adam(ps, lr=0.01),
    "adam_wd": lambda ps: Adam(ps, lr=0.01, weight_decay=0.01),
    "adamw_wd": lambda ps: AdamW(ps, lr=0.01, weight_decay=0.01),
}

#: One tensor longer than two blocks, so every kernel runs a full block,
#: another full block and a ragged tail.
SHAPES = [(3, 4), (5,), (2 * BLOCK_ELEMENTS + 17,), (2, 3, 2), (7,)]


def separate_params(rng):
    return [Parameter(rng.standard_normal(shape)) for shape in SHAPES]


def flat_params(rng, order=None):
    """Parameters that are views laid end to end in one array, with
    gradient tensors laid out the same way in a second one — what DDP's
    reducer makes of a bucket.  Returns ``(params, grad_tensors)``."""
    shapes = [SHAPES[i] for i in (order or range(len(SHAPES)))]
    sizes = [int(np.prod(shape)) for shape in shapes]
    p_flat = rng.standard_normal(sum(sizes))
    g_flat = np.zeros(sum(sizes))
    params, grads, offset = [], [], 0
    for shape, size in zip(shapes, sizes):
        params.append(Parameter(p_flat[offset : offset + size].reshape(shape)))
        grads.append(Tensor(g_flat[offset : offset + size].reshape(shape)))
        offset += size
    return params, grads


def fill_gradients(rng, params, grads=None):
    for index, param in enumerate(params):
        value = rng.standard_normal(param.data.shape)
        value[value > 1.5] = -0.0  # signed zeros survive a bitwise comparison only
        if grads is None:
            param.grad = Tensor(value)
        else:
            grads[index].data[...] = value
            param.grad = grads[index]


def runs_of(optimizer):
    return [[len(run.params) for run in plan.runs] for plan in optimizer._plans.values()]


class TestKernelMatchesReferenceLoop:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_one_parameter_at_a_time(self, name, rng):
        params = separate_params(rng)
        optimizer = OPTIMIZERS[name](params)
        shadow = Shadow.attach(optimizer)
        for _ in range(5):
            fill_gradients(rng, params)
            optimizer.step()
        assert shadow.steps == 5
        assert runs_of(optimizer) == [[]]

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_run_of_parameters_as_one_array(self, name, rng):
        params, grads = flat_params(rng)
        optimizer = OPTIMIZERS[name](params)
        shadow = Shadow.attach(optimizer)
        for _ in range(5):
            fill_gradients(rng, params, grads)
            optimizer.step()
        assert shadow.steps == 5
        assert runs_of(optimizer) == [[len(params)]]

    def test_run_state_is_views_of_one_flat(self, rng):
        params, grads = flat_params(rng)
        optimizer = Adam(params, lr=0.01)
        fill_gradients(rng, params, grads)
        optimizer.step()
        (run,) = optimizer._plans[0].runs
        for key in ("exp_avg", "exp_avg_sq"):
            for param in params:
                view = optimizer.state_for(param)[key]
                assert view.shape == param.data.shape
                assert np.shares_memory(view, run.state[key])
        assert optimizer.state_for(params[0])["step"] == 1

    def test_run_order_is_memory_order_not_group_order(self, rng):
        """DDP lays a bucket out in reverse parameter order; the
        optimizer's group lists them forwards."""
        params, grads = flat_params(rng)
        optimizer = Adam(list(reversed(params)), lr=0.01)
        Shadow.attach(optimizer)
        for _ in range(3):
            fill_gradients(rng, params, grads)
            optimizer.step()
        assert runs_of(optimizer) == [[len(params)]]

    @pytest.mark.parametrize("make", [
        lambda groups: SGD(groups, lr=1.0, momentum=0.9, nesterov=True),
        lambda groups: Adam(groups, lr=1.0, weight_decay=0.01),
        lambda groups: AdamW(groups, lr=1.0, weight_decay=0.01),
    ])
    def test_two_groups_sharing_one_flat(self, make, rng):
        """Runs never cross a group boundary: a0 b0 | a1 a2 | b1 b2."""
        params, grads = flat_params(rng, order=[0, 1, 2, 3, 4, 0])
        a = [params[0], params[2], params[3]]
        b = [params[1], params[4], params[5]]
        optimizer = make([{"params": a, "lr": 0.05}, {"params": b, "lr": 0.002}])
        Shadow.attach(optimizer)
        for _ in range(5):
            fill_gradients(rng, params, grads)
            optimizer.step()
        assert runs_of(optimizer) == [[2], [2]]

    def test_float32_run(self, rng):
        params, grads = flat_params(rng)
        flat32 = np.concatenate([p.data.reshape(-1) for p in params]).astype(np.float32)
        grad32 = np.zeros_like(flat32)
        offset = 0
        for param, grad in zip(params, grads):
            size = param.data.size
            param.data = flat32[offset : offset + size].reshape(param.data.shape)
            grad.data = grad32[offset : offset + size].reshape(param.data.shape)
            offset += size
        optimizer = Adam(params, lr=0.01, weight_decay=0.01)
        Shadow.attach(optimizer)
        for _ in range(3):
            fill_gradients(rng, params, grads)
            optimizer.step()
        assert runs_of(optimizer) == [[len(params)]]
        assert all(p.data.dtype == np.float32 for p in params)


class TestRunFallbacks:
    def test_gradient_none_splits_the_run_and_its_return_heals_it(self, rng):
        params, grads = flat_params(rng)
        optimizer = Adam(params, lr=0.01)
        shadow = Shadow.attach(optimizer)
        fill_gradients(rng, params, grads)
        optimizer.step()
        assert runs_of(optimizer) == [[5]]
        before = params[2].data.copy()
        fill_gradients(rng, params, grads)
        params[2].grad = None  # unused this iteration
        optimizer.step()
        assert runs_of(optimizer) == [[2, 2]]
        assert np.array_equal(params[2].data, before)
        assert optimizer.state_for(params[2])["step"] == 1
        fill_gradients(rng, params, grads)
        optimizer.step()
        # The returned parameter is one step behind its neighbours: the
        # gap is closed in memory, but equal step counts are a condition.
        assert runs_of(optimizer) == [[2, 2]]
        assert shadow.steps == 3

    def test_stateless_run_heals_completely(self, rng):
        params, grads = flat_params(rng)
        optimizer = SGD(params, lr=0.1)
        Shadow.attach(optimizer)
        for missing in (None, 2, None):
            fill_gradients(rng, params, grads)
            if missing is not None:
                params[missing].grad = None
            optimizer.step()
        assert runs_of(optimizer) == [[5]]

    def test_data_rebound_mid_run(self, rng):
        params, grads = flat_params(rng)
        optimizer = Adam(params, lr=0.01)
        shadow = Shadow.attach(optimizer)
        for step in range(4):
            if step == 2:
                params[1].data = params[1].data.copy()
            fill_gradients(rng, params, grads)
            optimizer.step()
        assert shadow.steps == 4
        assert runs_of(optimizer) == [[3]]
        assert optimizer.state_for(params[1])["step"] == 4

    def test_gradients_elsewhere_means_no_run(self, rng):
        """DDP copy mode: parameters could be adjacent, gradients are
        fresh arrays every backward."""
        params, _ = flat_params(rng)
        optimizer = SGD(params, lr=0.1, momentum=0.9)
        Shadow.attach(optimizer)
        for _ in range(3):
            fill_gradients(rng, params)
            optimizer.step()
        assert runs_of(optimizer) == [[]]

    def test_non_contiguous_parameter_is_updated_in_place(self, rng):
        data = np.asfortranarray(rng.standard_normal((4, 3)))
        param = Parameter(data)
        optimizer = Adam([param], lr=0.01)
        Shadow.attach(optimizer)
        for _ in range(3):
            fill_gradients(rng, [param])
            optimizer.step()
        assert param.data is data

    def test_replaced_state_entry_is_picked_up(self, rng):
        params, grads = flat_params(rng)
        optimizer = SGD(params, lr=0.1, momentum=0.9)
        fill_gradients(rng, params, grads)
        optimizer.step()
        optimizer.state[id(params[0])] = {
            "momentum_buffer": np.ones_like(params[0].data)
        }
        fill_gradients(rng, params, grads)
        expected = params[0].data - 0.1 * (0.9 * 1.0 + params[0].grad.data)
        optimizer.step()
        assert np.array_equal(params[0].data, expected)

    def test_added_param_group_is_stepped(self, rng):
        params = separate_params(rng)
        optimizer = SGD(params[:2], lr=0.1)
        fill_gradients(rng, params)
        optimizer.step()
        optimizer.add_param_group({"params": params[2:], "lr": 0.01})
        before = params[3].data.copy()
        optimizer.step()
        assert not np.array_equal(params[3].data, before)


class TestStateAcrossLayouts:
    """``state_dict()`` is per parameter whatever the layout, so a state
    saved from one layout continues bitwise in the other."""

    @pytest.mark.parametrize("name", ["sgd_nesterov_wd", "adam_wd", "adamw_wd"])
    @pytest.mark.parametrize("saved_flat", [True, False])
    def test_save_in_one_layout_continue_in_the_other(self, name, saved_flat, rng):
        values = [rng.standard_normal(shape) for shape in SHAPES]
        gradients = [[rng.standard_normal(shape) for shape in SHAPES] for _ in range(5)]

        def build(flat):
            params, grads = flat_params(rng) if flat else (separate_params(rng), None)
            for param, value in zip(params, values):
                param.data[...] = value
            return params, grads, OPTIMIZERS[name](params)

        def train(params, grads, optimizer, steps):
            for step in steps:
                for index, param in enumerate(params):
                    if grads is None:
                        param.grad = Tensor(gradients[step][index].copy())
                    else:
                        grads[index].data[...] = gradients[step][index]
                        param.grad = grads[index]
                optimizer.step()

        straight = build(saved_flat)
        train(*straight, range(5))

        first = build(saved_flat)
        train(*first, range(3))
        saved = first[2].state_dict()
        assert saved["num_params"] == len(SHAPES)
        for index, shape in enumerate(SHAPES):
            for key, value in saved["state"][index].items():
                assert np.ndim(value) == 0 or value.shape == shape

        second = build(not saved_flat)
        for param, source in zip(second[0], first[0]):
            param.data[...] = source.data
        second[2].load_state_dict(saved)
        train(*second, range(3, 5))
        assert runs_of(second[2]) == [[] if saved_flat else [len(SHAPES)]]
        for resumed, reference in zip(second[0], straight[0]):
            assert resumed.data.tobytes() == reference.data.tobytes()
        resumed_state, reference_state = second[2].state_dict(), straight[2].state_dict()
        for index in reference_state["state"]:
            for key, value in reference_state["state"][index].items():
                assert np.asarray(resumed_state["state"][index][key]).tobytes() == \
                    np.asarray(value).tobytes()

    def test_loading_into_a_live_run_replaces_its_state(self, rng):
        params, grads = flat_params(rng)
        optimizer = Adam(params, lr=0.01)
        fill_gradients(rng, params, grads)
        optimizer.step()
        saved = optimizer.state_dict()
        fill_gradients(rng, params, grads)
        optimizer.step()
        optimizer.load_state_dict(saved)
        assert optimizer.state_for(params[0])["step"] == 1
        shadow_values = [p.data.copy() for p in params]
        optimizer.step()
        assert optimizer.state_for(params[0])["step"] == 2
        assert runs_of(optimizer) == [[len(params)]]
        assert not np.array_equal(params[0].data, shadow_values[0])


class TestStepAllocations:
    @pytest.mark.parametrize("name", ["sgd_nesterov_wd", "adam_wd", "adamw_wd"])
    @pytest.mark.parametrize("flat", [True, False])
    def test_steady_state_step_allocates_less_than_one_block(self, name, flat, rng):
        import tracemalloc

        params, grads = flat_params(rng) if flat else (separate_params(rng), None)
        optimizer = OPTIMIZERS[name](params)
        for _ in range(2):  # first step creates state, second finds it in place
            fill_gradients(rng, params, grads)
            optimizer.step()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            optimizer.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = BLOCK_ELEMENTS * params[0].data.itemsize
        assert max(p.data.nbytes for p in params) > 2 * block_bytes
        assert peak - before < block_bytes

    def test_workspace_is_not_optimizer_state(self, rng):
        from repro.sharded.memory import optimizer_state_arrays, storage_bytes

        params, grads = flat_params(rng)
        optimizer = Adam(params, lr=0.01)
        fill_gradients(rng, params, grads)
        optimizer.step()
        param_bytes = sum(p.data.nbytes for p in params)
        assert storage_bytes(optimizer_state_arrays(optimizer)) == 2 * param_bytes


class TestSchedulerArguments:
    def _opt(self):
        return SGD([Parameter(np.zeros(1))], lr=1.0)

    @pytest.mark.parametrize("step_size", [0, -1])
    def test_step_lr_rejects_non_positive_step_size(self, step_size):
        with pytest.raises(ValueError, match="step_size"):
            StepLR(self._opt(), step_size=step_size)

    @pytest.mark.parametrize("t_max", [0, -3])
    def test_cosine_rejects_non_positive_t_max(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            CosineAnnealingLR(self._opt(), t_max=t_max)
