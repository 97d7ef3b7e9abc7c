import numpy as np
import pytest

from audiocap import autodiff as ad
from audiocap.autodiff import Tensor
from audiocap.optim import BETA1, BETA2, CHUNK, EPSILON, Adam


def set_grad(p, g):
    """Give leaf `p` the gradient `g` (a float or p's shape) through one
    backward: d sum(p * g) / dp is g, byte for byte."""
    p.zero_grad()
    ad.backward(ad.sum_(ad.mul(p, g)))


def test_first_step_moves_by_lr_sign():
    # bias-corrected first step: delta = -lr * g / (|g| + eps)
    for g in (0.3, -2.0, 1e-3):
        p = Tensor(np.array([1.0]), requires_grad=True)
        set_grad(p, g)
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
    set_grad(p, 1.5)
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
            set_grad(p, g)
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


def adam_oracle(data, grads_per_step, lrs):
    """The whole-array update, as one expression per moment and parameter;
    a grad of None is all zeros. Returns p, m and v after the steps."""
    p, m, v = data.copy(), np.zeros_like(data), np.zeros_like(data)
    for t, (g, lr) in enumerate(zip(grads_per_step, lrs), start=1):
        g = np.zeros_like(data) if g is None else g
        bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
    return p, m, v


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, 2 * CHUNK + 1])
def test_chunked_step_equals_whole_array_update(size):
    # the update runs CHUNK elements at a time, with scratch buffers shared
    # by every tensor; per element it is the whole-array update's bytes
    rng = np.random.default_rng(size)
    shapes = [(size,), (3, 5), (size, 1)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    start = [p.data.copy() for p in params]
    grads = [[rng.normal(scale=10.0 ** -t, size=s) for s in shapes] for t in range(3)]
    lrs = (1e-3, 3e-2, 7e-4)
    opt = Adam(params)
    for step_grads, lr in zip(grads, lrs):
        for p, g in zip(params, step_grads):
            set_grad(p, g)
        opt.step(lr)
    for i, (p, data) in enumerate(zip(params, start)):
        ref = adam_oracle(data, [step[i] for step in grads], lrs)
        for got, want in zip((p.data, opt.m[i], opt.v[i]), ref):
            assert got.tobytes() == want.tobytes()


def test_unreached_leaf_steps_as_with_zero_grad():
    # step 2's backward does not reach `p`: its grad stays None, and p, m
    # and v get the bytes a zero-filled grad gives, so its momentum decays
    rng = np.random.default_rng(5)
    data = rng.normal(size=(4, 3))
    g1 = rng.normal(size=(4, 3))
    p, other = Tensor(data.copy(), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
    opt = Adam([p, other])
    set_grad(p, g1)
    opt.step(1e-2)
    m1 = opt.m[0].copy()
    opt.zero_grad()
    ad.backward(ad.sum_(other))
    assert p.grad is None
    opt.step(1e-2)
    zero = Tensor(data.copy(), requires_grad=True)
    zero_opt = Adam([zero])
    set_grad(zero, g1)
    zero_opt.step(1e-2)
    set_grad(zero, np.zeros((4, 3)))
    zero_opt.step(1e-2)
    for got, want in ((p.data, zero.data), (opt.m[0], zero_opt.m[0]),
                      (opt.v[0], zero_opt.v[0])):
        assert got.tobytes() == want.tobytes()
    assert not np.array_equal(opt.m[0], m1)  # the momentum still moves
    ref = adam_oracle(data, [g1, None], (1e-2, 1e-2))
    assert all(a.tobytes() == b.tobytes() for a, b in zip((p.data, opt.m[0], opt.v[0]), ref))
