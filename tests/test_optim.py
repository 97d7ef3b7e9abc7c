import numpy as np
import pytest

from audiocap import autodiff as ad
from audiocap.autodiff import Tensor
from audiocap.optim import BETA1, BETA2, EPSILON, Adam


def test_first_step_moves_by_lr_sign():
    # bias-corrected first step: delta = -lr * g / (|g| + eps)
    for g in (0.3, -2.0, 1e-3):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad[...] = g
        Adam([p]).step(lr=0.01)
        delta = p.data[0] - 1.0
        tol = abs(0.01 * EPSILON / (abs(g) + EPSILON))
        assert abs(delta - (-0.01 * np.sign(g))) <= tol + 1e-15


def test_zero_grad_leaves_params_unchanged():
    p = Tensor(np.arange(4.0), requires_grad=True)
    opt = Adam([p])
    opt.step(lr=0.1)
    np.testing.assert_array_equal(p.data, np.arange(4.0))
    assert opt.t == 1


def test_two_steps_reduce_convex_quadratic():
    target = np.array([0.7, -1.2, 0.1])
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([p])

    def loss():
        diff = ad.sub(p, target)
        return ad.sum_(ad.mul(diff, diff))

    values = [loss().item()]
    for _ in range(2):
        opt.zero_grad()
        ad.backward(loss())
        opt.step(lr=0.05)
        values.append(loss().item())
    assert values[1] < values[0] and values[2] < values[1]


def test_nonpositive_lr_rejected():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([p])
    for lr in (0.0, -1e-3):
        with pytest.raises(ValueError):
            opt.step(lr)


def test_step_counter_and_grads_untouched():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad[...] = 1.5
    opt = Adam([p])
    opt.step(0.01)
    opt.step(0.01)
    assert opt.t == 2
    np.testing.assert_array_equal(p.grad, [1.5, 1.5])  # caller resets grads


def test_in_place_step_equals_expression_form():
    # the update written as one expression, with its temporaries, is the
    # oracle: the in-place step must give the same bytes in p, m and v
    rng = np.random.default_rng(3)
    params = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((4, 3), (5,), (2, 3, 2))]
    ref_p = [p.data.copy() for p in params]
    ref_m = [np.zeros_like(p) for p in ref_p]
    ref_v = [np.zeros_like(p) for p in ref_p]
    opt = Adam(params)
    for t, lr in enumerate((1e-3, 3e-2, 7e-4), start=1):
        grads = [rng.normal(scale=10.0 ** -t, size=p.shape) for p in ref_p]
        for p, g in zip(params, grads):
            p.grad[...] = g
        opt.step(lr)
        bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
        for p, m, v, g in zip(ref_p, ref_m, ref_v, grads):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
        for got, ref in ((opt.m, ref_m), (opt.v, ref_v),
                         ([p.data for p in params], ref_p)):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
