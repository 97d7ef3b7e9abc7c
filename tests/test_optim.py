import numpy as np
import pytest

from audiocap import autodiff as ad
from audiocap.autodiff import Tensor
from audiocap.optim import EPSILON, Adam


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
