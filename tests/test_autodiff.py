import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import autodiff as ad
from audiocap.autodiff import NumericError, Tensor
from finite_diff import finite_diff_check


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform_input():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_oracle_123():
    # frozen from a high-precision exp/sum evaluation
    out = ad.softmax(Tensor([1.0, 2.0, 3.0]), axis=0)
    np.testing.assert_allclose(
        out.data, [0.09003057317, 0.24472847105, 0.66524095577], atol=1e-10)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
       st.floats(min_value=-100, max_value=100))
def test_softmax_shift_invariance(values, c):
    x = np.array(values)
    a = ad.softmax(Tensor(x), axis=0).data
    b = ad.softmax(Tensor(x + c), axis=0).data
    np.testing.assert_allclose(a, b, atol=1e-9)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_softmax_rows_on_simplex(rows, cols, seed):
    x = np.random.default_rng(seed).normal(scale=30, size=(rows, cols))
    out = ad.softmax(Tensor(x), axis=-1).data
    assert np.all(out >= 0) and np.all(out <= 1)
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(rows), atol=1e-6)


def test_softmax_axis_out_of_range():
    with pytest.raises(ValueError):
        ad.softmax(Tensor([1.0, 2.0]), axis=3)


def test_softmax_handles_large_logits():
    out = ad.softmax(Tensor([1000.0, 1000.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5])


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm(Tensor([[5.0, 5.0, 5.0, 5.0]]),
                        Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
    np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-10)


def test_layer_norm_two_point_row():
    # mean 2, population std 1 -> normalized to [-1, 1]
    out = ad.layer_norm(Tensor([[1.0, 3.0]]),
                        Tensor(np.ones(2)), Tensor(np.zeros(2)), 1e-14)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_gamma_zero_collapses_to_beta():
    beta = np.array([7.0, -1.0, 0.5])
    out = ad.layer_norm(Tensor(rand((4, 3))), Tensor(np.zeros(3)), Tensor(beta), 1e-5)
    np.testing.assert_allclose(out.data, np.broadcast_to(beta, (4, 3)))


def test_layer_norm_standardizes_rows():
    x = rand((6, 16), seed=3)
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), 1e-10).data
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(6), atol=1e-9)
    np.testing.assert_allclose(out.var(axis=-1), np.ones(6), atol=1e-6)


def test_layer_norm_empty_axis_rejected():
    with pytest.raises(ValueError):
        ad.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)),
                      Tensor(np.zeros(0)), 1e-5)


@pytest.mark.parametrize("stack", ["gamma", "beta", "both"])
def test_stacked_layer_norm_from_one_row_equals_repeated_rows(stack):
    # a (1, T, d) input against a (K, 1, d) gain or shift gives the bytes of
    # the input repeated K times, and row k those of copy k alone
    x = rand((1, 3, 5), 1)
    gamma = rand((4, 1, 5), 2) if stack != "beta" else rand((5,), 2)
    beta = rand((4, 1, 5), 3) if stack != "gamma" else rand((5,), 3)
    with ad.no_grad():
        broadcast = ad.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        repeated = ad.layer_norm(Tensor(np.repeat(x, 4, axis=0)), Tensor(gamma),
                                 Tensor(beta)).data
        for k in range(4):
            one = ad.layer_norm(Tensor(x), Tensor(gamma[k, 0] if gamma.ndim == 3 else gamma),
                                Tensor(beta[k, 0] if beta.ndim == 3 else beta)).data
            assert broadcast[k:k + 1].tobytes() == one.tobytes()
    assert broadcast.shape == (4, 3, 5)
    assert broadcast.tobytes() == repeated.tobytes()


def test_stacked_layer_norm_rejected_under_grad():
    x, gamma, beta = rand((2, 3, 4), 1), rand((4,), 2), rand((4,), 3)
    stacked = rand((2, 1, 4), 4)
    for args in ((x, Tensor(stacked, requires_grad=True), beta),
                 (x, gamma, Tensor(stacked, requires_grad=True)),
                 (Tensor(x, requires_grad=True), stacked, beta)):
        with pytest.raises(ValueError, match="no_grad"):
            ad.layer_norm(*args)
        with ad.no_grad():
            assert ad.layer_norm(*args).shape == (2, 3, 4)


def composite_layer_norm(x, gamma, beta, eps):
    """layer_norm as nine primitive nodes, the reference for the fused op."""
    mu = ad.mean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ad.power(ad.add(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), gamma), beta)


LN_CASES = [((5, 8), 1e-5), ((2, 7, 16), 1e-5), ((5, 8), 1e-14), ((2, 7, 16), 1e-14)]


@pytest.mark.parametrize("shape,eps", LN_CASES)
def test_layer_norm_forward_bytes_equal_composite(shape, eps):
    x = Tensor(rand(shape, seed=4) * 3.0 + 1.0)
    gamma, beta = Tensor(rand(shape[-1:], 5)), Tensor(rand(shape[-1:], 6))
    fused = ad.layer_norm(x, gamma, beta, eps).data
    assert fused.tobytes() == composite_layer_norm(x, gamma, beta, eps).data.tobytes()


@pytest.mark.parametrize("shape,eps", LN_CASES)
def test_layer_norm_backward_matches_composite(shape, eps):
    probe = Tensor(rand(shape, seed=7))
    grads = []
    for op in (ad.layer_norm, composite_layer_norm):
        x = Tensor(rand(shape, seed=4) * 3.0 + 1.0, requires_grad=True)
        gamma = Tensor(rand(shape[-1:], 5), requires_grad=True)
        beta = Tensor(rand(shape[-1:], 6), requires_grad=True)
        ad.backward(ad.sum_(ad.mul(op(x, gamma, beta, eps), probe)))
        grads.append((x.grad, gamma.grad, beta.grad))
    for fused, ref in zip(*grads):
        assert np.abs(fused - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

CAUSAL = np.triu(np.full((3, 3), -np.inf), 1)


def attend(q, k, v, mask=None):
    """ad.attention at d_k 3 (a scale that is not a power of two)."""
    return ad.attention(q, k, v, 1.0 / np.sqrt(3.0), mask)


def attention_weights(q, k, scale, mask=None):
    """ad.attention's weights: the node on identity values, w @ I = w."""
    tk = k.shape[-2]
    with ad.no_grad():
        return ad.attention(q, k, Tensor(np.broadcast_to(np.eye(tk), k.shape[:-2] + (tk, tk))),
                            scale, mask).data


def fused_attention(q, k, v, scale, mask):
    return ad.attention(q, k, v, scale, mask), attention_weights(q, k, scale, mask)


def composite_attention(q, k, v, scale, mask):
    """Attention as the five-node chain the fused op replaced: its reference."""
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)
    if mask is not None:
        scores = ad.add(scores, mask)
    weights = ad.softmax(scores, axis=-1)
    return ad.matmul(weights, v), weights.data


# (q shape, k and v shape, mask)
ATTN_CASES = {
    "self_causal": ((2, 2, 3, 3), (2, 2, 3, 3), CAUSAL),
    "cross_unmasked": ((2, 2, 3, 3), (2, 2, 5, 3), None),
    "cross_kv_batch_1": ((2, 2, 3, 3), (1, 2, 5, 3), None),
    "rows_one_query": ((4, 2, 1, 3), (4, 2, 5, 3), None),
}


@pytest.mark.parametrize("name", sorted(ATTN_CASES))
def test_attention_bytes_equal_composite(name):
    # forward output, weights and every input's gradient, byte for byte
    q_shape, kv_shape, mask = ATTN_CASES[name]
    probe = Tensor(rand(q_shape, seed=9))
    results = []
    for op in (fused_attention, composite_attention):
        q = Tensor(rand(q_shape, seed=1) * 2.0, requires_grad=True)
        k = Tensor(rand(kv_shape, seed=2) * 2.0, requires_grad=True)
        v = Tensor(rand(kv_shape, seed=3), requires_grad=True)
        out, weights = op(q, k, v, 1.0 / np.sqrt(3.0), mask)
        ad.backward(ad.sum_(ad.mul(out, probe)))
        results.append((out.data, weights, q.grad, k.grad, v.grad))
    for fused, ref in zip(*results):
        assert fused.shape == ref.shape
        assert fused.tobytes() == ref.tobytes()


def test_attention_causal_mask_zeroes_future_weights():
    x = Tensor(rand((1, 1, 3, 3)))
    weights = attention_weights(x, x, 1.0, CAUSAL)
    assert np.all(weights[..., CAUSAL == -np.inf] == 0.0)
    np.testing.assert_allclose(weights.sum(axis=-1), np.ones((1, 1, 3)), atol=1e-15)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x_shape,d_out", [((2, 5, 4), 3), ((1, 6, 3), 5), ((3, 4, 8), 6),
                                           ((2, 157, 16), 64)])
def test_linear_bytes_equal_matmul_add(x_shape, d_out):
    # for T > 1 the folded GEMM gives the bytes of the batched matmul + add
    # chain; so do the input and bias gradients, and at B = 1 the weight's
    probe = Tensor(rand(x_shape[:-1] + (d_out,), seed=4))
    results = []
    for op in (ad.linear, lambda x, w, b: ad.add(ad.matmul(x, w), b)):
        x = Tensor(rand(x_shape, seed=1), requires_grad=True)
        w = Tensor(rand((x_shape[-1], d_out), seed=2), requires_grad=True)
        b = Tensor(rand((d_out,), seed=3), requires_grad=True)
        out = op(x, w, b)
        ad.backward(ad.sum_(ad.mul(out, probe)))
        results.append((out.data, x.grad, b.grad) + ((w.grad,) if x_shape[0] == 1 else ()))
    for fused, ref in zip(*results):
        assert fused.shape == ref.shape
        assert fused.tobytes() == ref.tobytes()


@pytest.mark.parametrize("t", [1, 4])
def test_stacked_linear_equals_separate_products(t):
    # batch row k of x (K, T, in) uses weight copy k, or bias copy k
    x, w, b = rand((3, t, 5), 1), rand((3, 5, 6), 2), rand((3, 1, 6), 3)
    with ad.no_grad():
        by_weight = ad.linear(Tensor(x), Tensor(w), Tensor(b[0, 0])).data
        by_bias = ad.linear(Tensor(x), Tensor(w[0]), Tensor(b)).data
        for k in range(3):
            one = ad.linear(Tensor(x[k:k + 1]), Tensor(w[k]), Tensor(b[0, 0])).data
            assert by_weight[k:k + 1].tobytes() == one.tobytes()
            one = ad.linear(Tensor(x[k:k + 1]), Tensor(w[0]), Tensor(b[k, 0])).data
            assert by_bias[k:k + 1].tobytes() == one.tobytes()
    assert by_weight.shape == by_bias.shape == (3, t, 6)


def test_stacked_linear_rejected_under_grad():
    x, w, b = rand((2, 3, 4), 1), rand((4, 5), 2), rand((5,), 3)
    stacked_w, stacked_b = rand((2, 4, 5), 4), rand((2, 1, 5), 5)
    for args in ((x, Tensor(stacked_w, requires_grad=True), b),
                 (x, w, Tensor(stacked_b, requires_grad=True)),
                 (Tensor(x, requires_grad=True), stacked_w, b)):
        with pytest.raises(ValueError, match="no_grad"):
            ad.linear(*args)
        with ad.no_grad():
            assert ad.linear(*args).shape == (2, 3, 5)


# ---------------------------------------------------------------------------
# gelu
# ---------------------------------------------------------------------------

def test_gelu_values():
    out = ad.gelu(Tensor([0.0, 10.0, 1.0])).data
    assert out[0] == 0.0
    assert abs(out[1] - 10.0) < 1e-6
    # frozen from a high-precision erf evaluation: 1 * Phi(1)
    assert abs(out[2] - 0.8413447460685429) < 1e-12
    # x / sqrt(2) in each of fdlibm's erf regions: < 0.84375, < 1.25,
    # < 1 / 0.35, < 6 and past 6
    x = np.array([0.5, -1.5, 2.5, 5.0, 9.0])
    expected = [v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]
    np.testing.assert_allclose(ad.gelu(Tensor(x)).data, expected, rtol=1e-15, atol=0)


def test_gelu_takes_its_limits_at_infinity_without_a_warning():
    x = Tensor(np.array([-np.inf, np.inf, -3.0, -0.5, 0.0, 2.0, np.nan]),
               requires_grad=True)
    finite = Tensor(x.data[2:6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.gelu(x)
        ad.backward(ad.sum_(out))
        reference = ad.gelu(finite).data
    assert out.data[0] == 0.0 and np.signbit(out.data[0])
    assert out.data[1] == np.inf and np.isnan(out.data[6])
    np.testing.assert_array_equal(x.grad[:2], [0.0, 1.0])
    assert np.isnan(x.grad[6])
    # the finite elements keep the bits they have in an all-finite array
    assert out.data[2:6].tobytes() == reference.tobytes()
    lone = Tensor(finite.data, requires_grad=True)
    ad.backward(ad.sum_(ad.gelu(lone)))
    assert x.grad[2:6].tobytes() == lone.grad.tobytes()


def test_gelu_bytes_do_not_depend_on_chunking():
    # gelu runs erf CHUNK elements at a time; tail values, ±inf and NaN sit
    # in every chunk, and the input may be a strided view
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 2.0, 2 * ad.CHUNK + 3)
    x[[0, ad.CHUNK - 1, ad.CHUNK, 2 * ad.CHUNK + 2]] = [np.inf, -np.inf, np.nan, 9.0]
    pieces = np.concatenate([ad.gelu(Tensor(x[i:i + 1000])).data
                             for i in range(0, x.size, 1000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = ad.gelu(Tensor(x)).data
    assert whole.tobytes() == pieces.tobytes()
    strided = np.stack([x, x])[:, ::-1].T  # (n, 2), neither C nor F order
    assert ad.gelu(Tensor(strided)).data[::-1, 0].tobytes() == pieces.tobytes()


# ---------------------------------------------------------------------------
# erf
# ---------------------------------------------------------------------------

def ulp_distance(a, b) -> np.ndarray:
    """Elementwise distance in units in the last place between two float64
    arrays: bit patterns mapped to integers in the order of their values
    (-0 and +0 both to 0)."""
    ordered = []
    for v in (a, b):
        bits = np.asarray(v, dtype=np.float64).view(np.int64)
        ordered.append(np.where(bits < 0, np.int64(-2**63) - bits, bits))
    return np.abs(ordered[0] - ordered[1])


def erf_of(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return ad._erf(x, np.empty_like(x))


def math_erf(x) -> np.ndarray:
    return np.array([math.erf(v) for v in np.asarray(x, dtype=np.float64).ravel()])


def test_erf_within_one_ulp_of_math_erf():
    x = np.concatenate([np.linspace(-7.0, 7.0, 140_001),
                        np.random.default_rng(0).normal(0.0, 3.0, 100_000)])
    assert ulp_distance(erf_of(x), math_erf(x)).max() <= 1


def test_erf_region_boundaries_within_one_ulp():
    # fdlibm's branch points: 0.84375, 1.25, 1 / 0.35 and 6
    edges = np.array([0.84375, 1.25, 1 / 0.35, 6.0])
    x = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    x = np.concatenate([x, -x])
    assert ulp_distance(erf_of(x), math_erf(x)).max() <= 1


def test_erf_special_values():
    out = erf_of([0.0, -0.0, np.inf, -np.inf, np.nan])
    assert out[0] == 0.0 and not np.signbit(out[0])
    assert out[1] == 0.0 and np.signbit(out[1])
    assert out[2] == 1.0 and out[3] == -1.0
    assert np.isnan(out[4])
    tiny = np.finfo(np.float64).smallest_normal
    subnormals = np.array([5e-324, 1e-320, np.nextafter(tiny, 0.0), -5e-324, -1e-315])
    assert ulp_distance(erf_of(subnormals), math_erf(subnormals)).max() <= 1


def test_erf_raises_no_warning():
    x = np.array([np.inf, -np.inf, np.nan, 1e300, -1e300, np.finfo(np.float64).max,
                  5e-324, -1e-310, 0.5, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        erf_of(x)


def test_erf_element_bits_do_not_depend_on_the_array():
    x = np.concatenate([np.linspace(-7.0, 7.0, 301), [0.84375, -1.25, np.inf, np.nan, -0.0]])
    alone = np.array([erf_of([v])[0] for v in x])
    assert erf_of(x).tobytes() == alone.tobytes()
    assert erf_of(x.reshape(2, 3, -1)).tobytes() == alone.tobytes()


def test_erf_in_place_matches_fresh_output():
    x = np.random.default_rng(1).normal(0.0, 2.0, (4, 5, 6))
    fresh = erf_of(x)
    same = x.copy()
    assert ad._erf(same, same) is same
    assert same.tobytes() == fresh.tobytes()


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

def test_stable_sigmoid_and_gradients_at_extremes():
    x = np.array([-1000.0, -40.0, -0.0, 0.0, 40.0, 1000.0])

    def three_exp_sigmoid(v):  # the formula stable_sigmoid replaced
        return np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                        np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))

    def grad_of(primitive):
        t = Tensor(x, requires_grad=True)
        ad.backward(ad.sum_(primitive(t)))
        return t.grad

    s = three_exp_sigmoid(x)
    cases = {
        "stable_sigmoid": (ad.stable_sigmoid(x), s, 0.5),
        "sigmoid grad": (grad_of(ad.sigmoid), s * (1.0 - s), 0.25),
        "logsigmoid grad": (grad_of(ad.logsigmoid), three_exp_sigmoid(-x), 0.5),
    }
    for name, (got, oracle, at_zero) in cases.items():
        assert np.all(np.isfinite(got)) and np.all((got >= 0.0) & (got <= 1.0)), name
        assert got[2] == got[3] == at_zero, name
        assert got.tobytes() == oracle.tobytes(), name


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(rand((3, 4)), requires_grad=True)
    ad.backward(ad.sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_requires_scalar():
    x = Tensor(rand((3,)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, 2.0))


def test_backward_accumulates_across_calls():
    # one backward per graph: two graphs on the same leaf add up in its grad
    x = Tensor(rand((3,)), requires_grad=True)
    ad.backward(ad.sum_(x))
    ad.backward(ad.sum_(x))
    np.testing.assert_allclose(x.grad, 2 * np.ones(3))


def test_second_backward_through_a_released_graph_raises():
    x = Tensor(rand((3,)), requires_grad=True)
    hidden = ad.mul(x, 2.0)
    loss = ad.sum_(hidden)
    ad.backward(loss)
    with pytest.raises(ValueError, match="released"):
        ad.backward(loss)
    # a new graph that reaches the released part is refused whole, before
    # any rule runs: the leaf's grad keeps the first backward's value
    with pytest.raises(ValueError, match="released"):
        ad.backward(ad.add(ad.sum_(x), ad.sum_(hidden)))
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_backward_unused_tensor_grad_stays_zero():
    x = Tensor(rand((3,)), requires_grad=True)
    unused = Tensor(rand((5,), seed=1), requires_grad=True)
    ad.backward(ad.sum_(x))
    # no gradient at all: Adam steps a leaf with none as with zeros
    assert unused.grad is None


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    z = Tensor(rand((5,), seed=2), requires_grad=True)
    target = 3

    def ce(t):
        logp = ad.log_softmax(t, axis=0)
        return ad.neg(logp[target])

    ad.backward(ce(z))
    expected = ad.softmax(Tensor(z.data), axis=0).data.copy()
    expected[target] -= 1.0
    np.testing.assert_allclose(z.grad, expected, atol=1e-12)
    assert finite_diff_check(ce, Tensor(z.data, requires_grad=True), 1e-4) < 1e-5


def test_matmul_product_gradient_matches_finite_differences():
    b = Tensor(rand((4, 2), seed=5))
    a = Tensor(rand((3, 4), seed=6), requires_grad=True)
    err = finite_diff_check(lambda t: ad.sum_(ad.matmul(t, b)), a, 1e-4)
    assert err < 1e-5


def test_backward_grads_only_on_leaves():
    x = Tensor(rand((2, 3)), requires_grad=True)
    w = Tensor(rand((3, 4), seed=1), requires_grad=True)
    hidden = ad.matmul(x, w)
    ad.backward(ad.add(ad.sum_(ad.mul(hidden, hidden)), ad.sum_(ad.mul(x, 5.0))))
    assert hidden.grad is None
    # x is reached by two paths: d/dx = 2 (xw) w^T + 5, d/dw = 2 x^T (xw)
    np.testing.assert_allclose(x.grad, 2 * hidden.data @ w.data.T + 5.0, rtol=1e-12)
    np.testing.assert_allclose(w.grad, 2 * x.data.T @ hidden.data, rtol=1e-12)


def test_backward_shared_gradient_array_is_not_mutated():
    # add hands its incoming gradient, one array, to both of its inputs. Here
    # the outer add gives the same array to `c` and to the inner add, which
    # gives it to the leaves a and b; b then gets a second gradient through
    # mul. Summing that into the shared array in place would also change
    # what c receives: c.grad would read 4 instead of 1.
    a, b, c = (Tensor(np.zeros(3), requires_grad=True) for _ in range(3))
    ad.backward(ad.sum_(ad.add(ad.add(ad.add(a, b), ad.mul(b, 3.0)), c)))
    np.testing.assert_array_equal(a.grad, np.ones(3))
    np.testing.assert_array_equal(b.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(c.grad, np.ones(3))


def test_first_gradient_through_add_is_each_leafs_own_copy():
    # add's rules hand one array to both inputs, and sum_'s is a read-only
    # broadcast view: a leaf's first gradient must be its own array
    a, b = (Tensor(np.zeros(3), requires_grad=True) for _ in range(2))
    ad.backward(ad.sum_(ad.add(a, b)))
    assert not np.shares_memory(a.grad, b.grad)
    ad.backward(ad.sum_(ad.mul(a, 2.0)))
    np.testing.assert_array_equal(a.grad, np.full(3, 3.0))
    np.testing.assert_array_equal(b.grad, np.ones(3))
    # p feeding two branches, and add(p, p): both contributions, one array
    p, q = (Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
    ad.backward(ad.add(ad.sum_(ad.add(p, p)), ad.sum_(ad.add(ad.mul(p, 3.0), q))))
    np.testing.assert_array_equal(p.grad, np.full(2, 5.0))
    assert not np.shares_memory(p.grad, q.grad)
    ad.backward(ad.sum_(q))
    np.testing.assert_array_equal(p.grad, np.full(2, 5.0))
    np.testing.assert_array_equal(q.grad, np.full(2, 2.0))


def test_first_gradient_keeps_zero_sign_of_zero_filled_accumulator():
    # a leaf's first gradient is g + 0.0: -0.0 reads +0.0, as it did when
    # backward added into a zero-filled buffer
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(x, np.array([-0.0, -1.0]))))
    assert x.grad.tobytes() == (np.zeros(2) + np.array([-0.0, -1.0])).tobytes()


def test_no_grad_in_another_thread_leaves_recording_on():
    # grad mode is per thread: each layer of the graph is recorded while
    # another thread sits inside no_grad, which it then leaves; the graph
    # is whole and its grads equal a single-threaded run's
    import threading

    layers = 6
    entered, release, left = threading.Event(), threading.Event(), threading.Event()

    def other():
        for _ in range(layers):
            with ad.no_grad():
                entered.set()
                release.wait(10)
                release.clear()
            left.set()

    def grads(in_lockstep):
        x = Tensor(rand((3, 4)), requires_grad=True)
        w = Tensor(rand((4, 4), seed=1) * 0.5, requires_grad=True)
        h = x
        for _ in range(layers):
            if in_lockstep:
                assert entered.wait(10)
                entered.clear()
            h = ad.gelu(ad.matmul(h, w))
            if in_lockstep:
                release.set()
                assert left.wait(10)
                left.clear()
        ad.backward(ad.sum_(h))
        return x.grad, w.grad

    worker = threading.Thread(target=other)
    worker.start()
    try:
        threaded = grads(in_lockstep=True)
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    single = grads(in_lockstep=False)
    for got, want in zip(threaded, single):
        assert got is not None and got.tobytes() == want.tobytes()


# (shape of the input that requires grad, op with one constant input)
CONSTANT_INPUT_CASES = {
    "mul_by_scale": ((2, 3, 4), lambda t: ad.mul(t, 0.125)),
    "matmul_constant_patches": ((6, 4), lambda t: ad.matmul(Tensor(rand((2, 5, 6), 1)), t)),
    "add_causal_mask": ((2, 3, 4, 4), lambda t: ad.add(
        t, Tensor(np.triu(np.full((4, 4), -1e9), 1)))),
    "attention_constant_keys_values": ((2, 2, 3, 3), lambda t: attend(
        t, Tensor(rand((1, 2, 5, 3), 1)), Tensor(rand((1, 2, 5, 3), 2)))),
    "linear_constant_rows": ((4, 5), lambda t: ad.linear(
        Tensor(rand((2, 3, 4), 1)), t, Tensor(rand((5,), 2)))),
    "linear_constant_weight": ((2, 3, 4), lambda t: ad.linear(
        t, Tensor(rand((4, 5), 1)), Tensor(rand((5,), 2)))),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_INPUT_CASES))
def test_constant_input_gets_no_edge_and_no_gradient(name):
    # the op's node holds one rule, the input's, and backward runs only it:
    # each rule the node holds records the shape of the gradient it made
    shape, f = CONSTANT_INPUT_CASES[name]
    x = Tensor(rand(shape), requires_grad=True)
    out = f(x)
    assert [node for node, _ in out.node.edges] == [x.node]
    seen = []

    def recording(rule):
        def run(g):
            grad = rule(g)
            seen.append(grad.shape)
            return grad
        return run

    out.node.edges = tuple((node, recording(rule)) for node, rule in out.node.edges)
    ad.backward(ad.sum_(out))
    assert seen == [shape]


# (shape of h, op on an intermediate h, whether a rule reads h's array,
# whether a rule reads the op's output array). `LEAF` requires grad, so its
# rule reads the other input of a product.
LEAF_SEED = 8
SAVED_CASES = {
    "add": ((2, 3), lambda h: ad.add(h, Tensor(rand((2, 3), 1))), False, False),
    "sub": ((2, 3), lambda h: ad.sub(Tensor(rand((2, 3), 1)), h), False, False),
    "neg": ((2, 3), lambda h: ad.neg(h), False, False),
    "mul_constant": ((2, 3), lambda h: ad.mul(h, 0.5), False, False),
    "mul_leaf": ((2, 3), lambda h: ad.mul(h, leaf((2, 3))), True, False),
    "matmul_constant": ((2, 3), lambda h: ad.matmul(h, Tensor(rand((3, 4), 1))),
                        False, False),
    "matmul_leaf": ((2, 3), lambda h: ad.matmul(h, leaf((3, 4))), True, False),
    "reshape": ((2, 3), lambda h: ad.reshape(h, (3, 2)), False, False),
    "transpose": ((2, 3), lambda h: ad.transpose(h), False, False),
    "getitem": ((2, 3), lambda h: h[1:, :2], False, False),
    "concat": ((2, 3), lambda h: ad.concat([h, Tensor(rand((2, 3), 1))]), False, False),
    "sum_": ((2, 3), lambda h: ad.sum_(h, axis=0), False, False),
    "mean": ((2, 3), lambda h: ad.mean(h, axis=-1, keepdims=True), False, False),
    "exp": ((2, 3), lambda h: ad.exp(h), False, True),
    "log": ((2, 3), lambda h: ad.log(h), True, False),
    "power": ((2, 3), lambda h: ad.power(h, -0.5), True, False),
    "sigmoid": ((2, 3), lambda h: ad.sigmoid(h), False, True),
    "logsigmoid": ((2, 3), lambda h: ad.logsigmoid(h), True, False),
    "gelu": ((2, 3), lambda h: ad.gelu(h), True, False),
    "softmax": ((2, 3), lambda h: ad.softmax(h), False, True),
    "log_softmax": ((2, 3), lambda h: ad.log_softmax(h), False, True),
    "attention_constant_keys_values": ((2, 3), lambda h: attend(
        h, Tensor(rand((4, 3), 1)), Tensor(rand((4, 3), 2))), False, False),
    "attention_leaf_keys": ((2, 3), lambda h: attend(
        h, leaf((4, 3)), Tensor(rand((4, 3), 2))), True, False),
    "linear_constant": ((2, 3), lambda h: ad.linear(
        h, Tensor(rand((3, 4), 1)), Tensor(rand((4,), 2))), False, False),
    "linear_leaf_weight": ((2, 3), lambda h: ad.linear(h, leaf((3, 4)), leaf((4,))),
                           True, False),
    "linear_as_weight": ((3, 4), lambda h: ad.linear(Tensor(rand((2, 3), 1)), h),
                         False, False),
    "dropout": ((2, 3), lambda h: ad.dropout(h, 0.5, np.random.default_rng(0)),
                False, False),
    "embedding": ((5, 3), lambda h: ad.embedding(h, np.array([[0, 4], [2, 2]])),
                  False, False),
    "layer_norm": ((2, 3), lambda h: ad.layer_norm(h, leaf((3,)), leaf((3,))),
                   False, False),
}


def leaf(shape):
    return Tensor(rand(shape, LEAF_SEED), requires_grad=True)


@pytest.mark.parametrize("name", sorted(SAVED_CASES))
def test_rules_keep_only_the_arrays_they_read(name):
    # an intermediate's array lives on only when a rule reads it, and
    # backward drops every rule, so no saved array outlives it
    shape, f, reads_input, reads_output = SAVED_CASES[name]
    x = Tensor(np.abs(rand(shape)) + 0.5, requires_grad=True)
    h = ad.mul(x, 1.0)
    out = f(h)
    loss = ad.sum_(out)
    arrays = weakref.ref(h.data), weakref.ref(out.data)
    del h, out
    assert [r() is not None for r in arrays] == [reads_input, reads_output]
    ad.backward(loss)
    assert [r() is not None for r in arrays] == [False, False]
    assert np.all(np.isfinite(x.grad)) and np.any(x.grad != 0.0)


def test_backward_same_tensor_used_twice():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(x, x)))  # d/dx sum(x^2) = 2x
    np.testing.assert_allclose(x.grad, [4.0, 6.0])


def test_repeated_forward_is_bit_identical():
    x = Tensor(rand((4, 4), seed=9))
    a = ad.softmax(ad.matmul(x, x), axis=-1).data
    b = ad.softmax(ad.matmul(x, x), axis=-1).data
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# finite_diff_check
# ---------------------------------------------------------------------------

def test_finite_diff_quadratic():
    x = Tensor(rand((6,), seed=7), requires_grad=True)
    err = finite_diff_check(lambda t: ad.mul(ad.sum_(ad.mul(t, t)), 0.5), x, 1e-4)
    assert err < 1e-7


def test_finite_diff_zero_step_rejected():
    x = Tensor(rand((2,)), requires_grad=True)
    with pytest.raises(NumericError):
        finite_diff_check(lambda t: ad.sum_(t), x, 0.0)


# ---------------------------------------------------------------------------
# every primitive passes a finite-difference check on random small shapes
# ---------------------------------------------------------------------------

FD_CASES = {
    "add": ((2, 3), lambda t: ad.sum_(ad.add(t, Tensor(rand((2, 3), 1))))),
    "add_broadcast": ((3,), lambda t: ad.sum_(ad.add(Tensor(rand((2, 3), 1)), t))),
    "sub": ((2, 3), lambda t: ad.sum_(ad.sub(t, Tensor(rand((2, 3), 1))))),
    "mul": ((2, 3), lambda t: ad.sum_(ad.mul(t, Tensor(rand((2, 3), 1))))),
    "mul_both_inputs": ((2, 3), lambda t: ad.sum_(ad.mul(
        ad.exp(t), ad.sum_(t, axis=0, keepdims=True)))),
    "neg": ((4,), lambda t: ad.sum_(ad.neg(t))),
    "matmul": ((3, 4), lambda t: ad.sum_(ad.matmul(t, Tensor(rand((4, 2), 1))))),
    "matmul_batched": ((2, 3, 4), lambda t: ad.sum_(
        ad.matmul(t, Tensor(rand((2, 4, 2), 1))))),
    "matmul_bcast_rhs": ((4, 2), lambda t: ad.sum_(
        ad.matmul(Tensor(rand((2, 3, 4), 1)), t))),
    "matmul_both_inputs": ((3, 4), lambda t: ad.sum_(ad.mul(
        ad.matmul(ad.transpose(t), ad.exp(t)), Tensor(rand((4, 4), 1))))),
    "reshape": ((2, 6), lambda t: ad.sum_(ad.mul(ad.reshape(t, (3, 4)),
                                                 Tensor(rand((3, 4), 1))))),
    "transpose": ((2, 3, 4), lambda t: ad.sum_(ad.mul(
        ad.transpose(t, (2, 0, 1)), Tensor(rand((4, 2, 3), 1))))),
    "getitem": ((5, 3), lambda t: ad.sum_(t[1:4])),
    "getitem_int": ((2, 3, 4), lambda t: ad.sum_(ad.mul(
        t[:, 1], Tensor(rand((2, 4), 1))))),
    "getitem_ellipsis": ((2, 4, 3), lambda t: ad.sum_(ad.mul(
        t[..., :2, :], Tensor(rand((2, 2, 3), 1))))),
    "concat": ((2, 3), lambda t: ad.sum_(ad.mul(
        ad.concat([t, t], axis=0), Tensor(rand((4, 3), 1))))),
    "concat_negative_axis_constant_middle": ((2, 3), lambda t: ad.sum_(ad.mul(
        ad.concat([t, Tensor(rand((2, 2), 1)), ad.exp(t)], axis=-1),
        Tensor(rand((2, 8), 2))))),
    "sum_axis": ((3, 4), lambda t: ad.sum_(ad.mul(
        ad.sum_(t, axis=1), Tensor(rand((3,), 1))))),
    "mean_axis": ((3, 4), lambda t: ad.sum_(ad.mul(
        ad.mean(t, axis=0, keepdims=True), Tensor(rand((1, 4), 1))))),
    "exp": ((2, 3), lambda t: ad.sum_(ad.exp(t))),
    "log": ((2, 3), lambda t: ad.sum_(ad.log(ad.add(ad.mul(t, t), 1.0)))),
    "power": ((2, 3), lambda t: ad.sum_(ad.power(ad.add(ad.mul(t, t), 0.5), -0.5))),
    "sigmoid": ((2, 3), lambda t: ad.sum_(ad.sigmoid(t))),
    "logsigmoid": ((2, 3), lambda t: ad.sum_(ad.logsigmoid(t))),
    "gelu": ((2, 3), lambda t: ad.sum_(ad.gelu(t))),
    "softmax": ((2, 5), lambda t: ad.sum_(ad.mul(
        ad.softmax(t, axis=-1), Tensor(rand((2, 5), 1))))),
    "log_softmax": ((2, 5), lambda t: ad.sum_(ad.mul(
        ad.log_softmax(t, axis=-1), Tensor(rand((2, 5), 1))))),
    "layer_norm": ((3, 6), lambda t: ad.sum_(ad.mul(
        ad.layer_norm(t, Tensor(rand((6,), 1)), Tensor(rand((6,), 2)), 1e-5),
        Tensor(rand((3, 6), 3))))),
    "embedding": ((5, 3), lambda t: ad.sum_(ad.mul(
        ad.embedding(t, np.array([[0, 2], [4, 2]])), Tensor(rand((2, 2, 3), 1))))),
    "dropout": ((4, 4), lambda t: ad.sum_(
        ad.dropout(t, 0.3, np.random.default_rng(11)))),
    "attention_q_causal": ((2, 2, 3, 3), lambda t: ad.sum_(ad.mul(attend(
        t, Tensor(rand((2, 2, 3, 3), 1)), Tensor(rand((2, 2, 3, 3), 2)), CAUSAL),
        Tensor(rand((2, 2, 3, 3), 3))))),
    "attention_k_causal": ((2, 2, 3, 3), lambda t: ad.sum_(ad.mul(attend(
        Tensor(rand((2, 2, 3, 3), 1)), t, Tensor(rand((2, 2, 3, 3), 2)), CAUSAL),
        Tensor(rand((2, 2, 3, 3), 3))))),
    "attention_v_causal": ((2, 2, 3, 3), lambda t: ad.sum_(ad.mul(attend(
        Tensor(rand((2, 2, 3, 3), 1)), Tensor(rand((2, 2, 3, 3), 2)), t, CAUSAL),
        Tensor(rand((2, 2, 3, 3), 3))))),
    "attention_q_kv_batch_1": ((2, 2, 3, 3), lambda t: ad.sum_(ad.mul(attend(
        t, Tensor(rand((1, 2, 5, 3), 1)), Tensor(rand((1, 2, 5, 3), 2))),
        Tensor(rand((2, 2, 3, 3), 3))))),
    "attention_k_batch_1": ((1, 2, 5, 3), lambda t: ad.sum_(ad.mul(attend(
        Tensor(rand((2, 2, 3, 3), 1)), t, Tensor(rand((1, 2, 5, 3), 2))),
        Tensor(rand((2, 2, 3, 3), 3))))),
    "attention_v_batch_1": ((1, 2, 5, 3), lambda t: ad.sum_(ad.mul(attend(
        Tensor(rand((2, 2, 3, 3), 1)), Tensor(rand((1, 2, 5, 3), 2)), t),
        Tensor(rand((2, 2, 3, 3), 3))))),
    "attention_qkv_one_tensor_causal": ((2, 2, 3, 3), lambda t: ad.sum_(ad.mul(
        attend(t, t, t, CAUSAL), Tensor(rand((2, 2, 3, 3), 3))))),
    "linear_x": ((2, 3, 4), lambda t: ad.sum_(ad.mul(ad.linear(
        t, Tensor(rand((4, 5), 1)), Tensor(rand((5,), 2))), Tensor(rand((2, 3, 5), 3))))),
    "linear_w": ((4, 5), lambda t: ad.sum_(ad.mul(ad.linear(
        Tensor(rand((2, 3, 4), 1)), t, Tensor(rand((5,), 2))), Tensor(rand((2, 3, 5), 3))))),
    "linear_b": ((5,), lambda t: ad.sum_(ad.mul(ad.linear(
        Tensor(rand((2, 3, 4), 1)), Tensor(rand((4, 5), 2)), t), Tensor(rand((2, 3, 5), 3))))),
    "linear_rows_no_bias": ((3, 4), lambda t: ad.sum_(ad.mul(ad.linear(
        t, Tensor(rand((4, 5), 1))), Tensor(rand((3, 5), 3))))),
    "linear_x_and_w_one_tensor": ((4, 4), lambda t: ad.sum_(ad.mul(ad.linear(
        ad.exp(t), t, Tensor(rand((4,), 2))), Tensor(rand((4, 4), 3))))),
}


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_primitive_gradients(name):
    shape, f = FD_CASES[name]
    for seed in (0, 7):
        x = Tensor(rand(shape, seed=seed), requires_grad=True)
        assert finite_diff_check(f, x, 1e-4) < 1e-4, name


def test_layer_norm_gamma_beta_gradients():
    x = Tensor(rand((3, 6)))
    probe = Tensor(rand((3, 6), 3))
    gamma = Tensor(rand((6,), 1), requires_grad=True)
    beta = Tensor(rand((6,), 2), requires_grad=True)
    fg = lambda t: ad.sum_(ad.mul(ad.layer_norm(x, t, beta, 1e-5), probe))
    fb = lambda t: ad.sum_(ad.mul(ad.layer_norm(x, gamma, t, 1e-5), probe))
    assert finite_diff_check(fg, gamma, 1e-4) < 1e-4
    assert finite_diff_check(fb, beta, 1e-4) < 1e-4


# ---------------------------------------------------------------------------
# misc op semantics
# ---------------------------------------------------------------------------

def test_dropout_inference_rate_zero_is_identity():
    x = Tensor(rand((5, 5)))
    out = ad.dropout(x, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_deterministic_per_seed():
    x = Tensor(np.ones((8, 8)))
    a = ad.dropout(x, 0.5, np.random.default_rng(4)).data
    b = ad.dropout(x, 0.5, np.random.default_rng(4)).data
    np.testing.assert_array_equal(a, b)
    assert (a == 0).any() and (a == 2.0).any()  # inverted scaling


def test_embedding_out_of_range_rejected():
    w = Tensor(rand((4, 2)))
    with pytest.raises(ValueError):
        ad.embedding(w, np.array([0, 4]))


def test_stacked_embedding_equals_separate_lookups():
    tables = rand((3, 5, 4))
    ids = np.array([[0, 4, 2], [3, 3, 1], [2, 0, 4]])
    with ad.no_grad():
        stacked = ad.embedding(Tensor(tables, requires_grad=True), ids).data
        for k in range(3):
            one = ad.embedding(Tensor(tables[k]), ids[k:k + 1]).data
            assert stacked[k:k + 1].tobytes() == one.tobytes()
    assert stacked.shape == (3, 3, 4)


def test_stacked_embedding_from_one_row_of_ids_equals_repeated_ids():
    # ids (1, T) against a (K, V, d) table read every table, as the ids
    # repeated K times do
    tables = rand((3, 5, 4))
    ids = np.array([[0, 4, 2, 4]])
    with ad.no_grad():
        broadcast = ad.embedding(Tensor(tables), ids).data
        repeated = ad.embedding(Tensor(tables), np.repeat(ids, 3, axis=0)).data
    assert broadcast.shape == (3, 4, 4)
    assert broadcast.tobytes() == repeated.tobytes()


def test_stacked_embedding_rejects_misuse():
    tables = Tensor(rand((2, 5, 4)), requires_grad=True)
    with pytest.raises(ValueError, match="no_grad"):
        ad.embedding(tables, np.zeros((2, 1), dtype=int))
    with ad.no_grad():
        with pytest.raises(ValueError, match="do not match"):
            ad.embedding(tables, np.zeros((3, 1), dtype=int))
        with pytest.raises(ValueError, match="out of range"):
            ad.embedding(tables, np.full((2, 1), 5))


def test_getitem_rejects_index_arrays():
    t = Tensor(rand((4, 2)))
    for idx in (np.array([0, 0]), [1, 2], (slice(None), np.array([1])), True,
                (Ellipsis, np.array([1]))):
        with pytest.raises(TypeError):
            ad.getitem(t, idx)
    assert ad.getitem(t, (np.int64(1), slice(None))).shape == (2,)
    assert ad.getitem(t, (Ellipsis, slice(None, 3), slice(None))).shape == (3, 2)


def test_no_grad_blocks_recording():
    x = Tensor(rand((3,)), requires_grad=True)
    with ad.no_grad():
        y = ad.sum_(x)
        z = ad.mul(x, x)
    assert not y.requires_grad and not z.requires_grad
    assert y.node is None and z.node is None
