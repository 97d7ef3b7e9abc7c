"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Only the primitives the captioning model needs: elementwise arithmetic with
broadcasting, (batched) matmul, a linear layer folded into one 2-D GEMM,
reductions, indexing, softmax/log-softmax, scaled dot-product attention,
layer norm, GELU, sigmoid forms, dropout and embedding lookup. GELU's erf is
`_erf`, in numpy: fdlibm's `s_erf.c` (after Cody 1969) for |x| < 0.84375 and
`math.erf` past it, so numpy is the only dependency. A graph is built and
run on one thread; grad mode (`no_grad`) is per thread.

The graph is kept apart from the data. A recorded output's `Node` keeps
one edge, an (input node, rule) pair, per input that requires grad:
rule(g) maps the output's gradient g to that input's. Inputs that need no
gradient get no edge, so their gradient is never computed. A rule keeps
only the arrays and shapes it reads, never a `Tensor`, so an intermediate
array that no rule reads is freed as soon as the model code drops it. Only
leaves (tensors made with requires_grad=True, whose node has no edges) hold
a `.grad`, in their node: None until a backward reaches the leaf, then
accumulated across backwards until `zero_grad` drops it. There is one
`backward` per graph: it drops each node's edges, and with them the saved
arrays, once it has run them.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable

import numpy as np


class _GradMode(threading.local):
    """Whether primitives record the graph, per thread."""

    enabled = True


_grad_mode = _GradMode()

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# fdlibm s_erf.c (Sun Microsystems, after W. J. Cody, "Rational Chebyshev
# approximations for the error function", Math. Comp. 23, 1969): for
# |x| < 0.84375, erf(x) = x + x * P(x^2) / Q(x^2). Held as 0-d arrays: an
# in-place op dispatches faster with one than with a float, to the same bits.
_ERF_PP = tuple(np.array(c) for c in (
    1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
    -5.77027029648944159157e-03, -2.37630166566501626084e-05))
_ERF_QQ = tuple(np.array(c) for c in (
    1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
    5.08130628187576562776e-03, 1.32494738004321644526e-04, -3.96022827877536812320e-06))
# x * x >= 0.84375 ** 2 (exact: 729 / 1024) exactly when |x| >= 0.84375
_ERF_TAIL_SQ = 0.84375 ** 2

# elements per slice of elementwise work that makes many passes (GELU's erf,
# Adam's update): a slice's arrays stay in L2 cache across the passes
CHUNK = 16384


# maps an output's gradient to one input's
Rule = Callable[[np.ndarray], np.ndarray]


class NumericError(RuntimeError):
    """Non-finite values (or an unusable step size) in a numeric check."""


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / probing), on
    the calling thread only."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Node:
    """A tensor's place in the graph, apart from its data. A leaf's node
    has no edges and holds the leaf's `grad`, None until a backward reaches
    it. A recorded output's node holds `edges`, one (input node, rule) pair
    per input that requires grad (so at least one), until `backward` runs
    them and sets `edges` to None."""

    __slots__ = ("edges", "grad")

    def __init__(self, edges: tuple[tuple[Node, Rule], ...] = (),
                 grad: np.ndarray | None = None):
        self.edges = edges
        self.grad = grad


class Tensor:
    """Dense n-d float64 array; `node` is None unless it requires grad."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        """A leaf's gradient, None until a backward reaches it and after
        `zero_grad`; None on every other tensor."""
        return None if self.node is None else self.node.grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        """Drop the gradient, so the next backward starts from none."""
        if self.node is not None:
            self.node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, *edges: tuple[Tensor, Rule]) -> Tensor:
    """A primitive's output, with a node that links the nodes of the inputs
    that require grad to their rules; the other rules are dropped."""
    out = Tensor(data)
    if _grad_mode.enabled:
        kept = tuple((t.node, rule) for t, rule in edges if t.node is not None)
        if kept:
            out.node = Node(kept)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    a_shape, b_shape = a.shape, b.shape
    return _make(a.data + b.data,
                 (a, lambda g: _unbroadcast(g, a_shape)),
                 (b, lambda g: _unbroadcast(g, b_shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    a_shape, b_shape = a.shape, b.shape
    return _make(a.data - b.data,
                 (a, lambda g: _unbroadcast(g, a_shape)),
                 (b, lambda g: _unbroadcast(-g, b_shape)))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.data, (a, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a_data.shape, b_data.shape
    return _make(a_data * b_data,
                 (a, lambda g: _unbroadcast(g * b_data, a_shape)),
                 (b, lambda g: _unbroadcast(g * a_data, b_shape)))


def matmul(a, b) -> Tensor:
    """Matrix product on the last two axes; leading axes broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a_data.shape, b_data.shape
    return _make(
        np.matmul(a_data, b_data),
        (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape)),
        (b, lambda g: _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape)),
    )


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b) over x's last axis: one node that folds x's leading axes
    into rows, so the product and each gradient (g2 @ w^T, x2^T @ g2,
    g2.sum(0)) is one 2-D GEMM or sum whatever the layout. Under no_grad a
    stacked weight (K, in, out) or bias (K, 1, out) serves x (K, T, in):
    batch row k uses copy k, through batched np.matmul."""
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    if w.ndim != 2 or (b is not None and b.ndim != 1):
        if _grad_mode.enabled and any(t is not None and t.requires_grad for t in (x, w, b)):
            raise ValueError("a stacked linear weight or bias is used only under no_grad")
        y = np.matmul(x.data, w.data)
        return Tensor(y if b is None else y + b.data)
    w_data, x_shape = w.data, x.shape
    x2 = x.data.reshape(-1, x_shape[-1])
    y = x2 @ w_data
    if b is not None:
        y += b.data

    def rows(g):
        return g.reshape(-1, g.shape[-1])

    edges = [(x, lambda g: (rows(g) @ w_data.T).reshape(x_shape)),
             (w, lambda g: x2.T @ rows(g))]
    if b is not None:
        edges.append((b, lambda g: rows(g).sum(0)))
    return _make(y.reshape(x_shape[:-1] + (w_data.shape[1],)), *edges)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    a_shape = a.shape
    return _make(a.data.reshape(shape), (a, lambda g: g.reshape(a_shape)))


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    return _make(np.transpose(a.data, axes),
                 (a, lambda g: np.transpose(g, None if axes is None else np.argsort(axes))))


def getitem(a, idx) -> Tensor:
    """a[idx] for a basic index of ints, slices and `...`; gathers by an
    index array go through `embedding`."""
    a = _as_tensor(a)
    for i in idx if isinstance(idx, tuple) else (idx,):
        if isinstance(i, bool) or not (i is Ellipsis
                                       or isinstance(i, (int, np.integer, slice))):
            raise TypeError(f"getitem takes ints, slices and ..., got {idx!r}")

    a_shape = a.shape

    def rule(g):
        ga = np.zeros(a_shape)
        ga[idx] = g  # a basic index selects each element at most once
        return ga

    return _make(a.data[idx], (a, rule))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    out = np.concatenate([p.data for p in parts], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)

    def part(start, stop):
        return lambda g: g[lead + (slice(start, stop),)]

    stops = np.cumsum([p.shape[axis] for p in parts])
    return _make(out, *((p, part(stop - p.shape[axis], stop))
                        for p, stop in zip(parts, stops)))


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    a_shape = a.shape

    def rule(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a_shape)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a, rule))


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    a_shape = a.shape
    n = a.data.size if axis is None else math.prod(
        [a_shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def rule(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a_shape) / n

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a, rule))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)
    return _make(out_data, (a, lambda g: g * out_data))


def log(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return _make(np.log(x), (a, lambda g: g / x))


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a constant real exponent."""
    a = _as_tensor(a)
    x = a.data
    return _make(x ** p, (a, lambda g: g * p * x ** (p - 1.0)))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) on a numpy array, without overflow: exp is only
    taken of -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = stable_sigmoid(a.data)
    return _make(out_data, (a, lambda g: g * out_data * (1.0 - out_data)))


def logsigmoid(a) -> Tensor:
    """log(sigmoid(x)) = -softplus(-x), computed without overflow."""
    a = _as_tensor(a)
    x = a.data
    out_data = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    # d/dx log sigmoid(x) = sigmoid(-x)
    return _make(out_data, (a, lambda g: g * stable_sigmoid(-x)))


def _erf(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """erf(x) into `out` (`x` itself to compute in place), at most 1 ulp
    from `math.erf`. Every element runs fdlibm's first branch,
    x + x * P(x^2) / Q(x^2), Horner in place; those with |x| >= 0.84375
    (±inf included) are gathered first and then set from `math.erf`. NaN
    stays NaN through the first branch. An element's bits depend only on
    its value, not on the array around it."""
    pp0, pp1, pp2, pp3, pp4 = _ERF_PP
    qq0, qq1, qq2, qq3, qq4, qq5 = _ERF_QQ
    # x * x overflows, and inf / inf makes NaN, only in the tail, reset below
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.multiply(x, x)
        tail = (z >= _ERF_TAIL_SQ).ravel().nonzero()[0]
        if tail.size:
            tail_x = x.ravel()[tail].tolist()
        r = np.multiply(z, pp4)
        r += pp3
        r *= z
        r += pp2
        r *= z
        r += pp1
        r *= z
        r += pp0
        s = np.multiply(z, qq5)
        s += qq4
        s *= z
        s += qq3
        s *= z
        s += qq2
        s *= z
        s += qq1
        s *= z
        s += qq0
        r /= s
        r *= x
        np.add(x, r, out=out)
    if tail.size:
        out.flat[tail] = np.fromiter(map(math.erf, tail_x), np.float64, tail.size)
    return out


def all_finite(x: np.ndarray) -> bool:
    """Whether no element of `x` is ±inf or NaN: two reductions, no
    temporary array."""
    return x.size == 0 or bool(x.min() > -np.inf and x.max() < np.inf)


def gelu(a) -> Tensor:
    """Exact-erf GELU: x * Phi(x), Phi(x) = (1 + erf(x / sqrt(2))) / 2, with
    erf from `_erf` (fdlibm's `s_erf.c`, after Cody 1969), CHUNK elements
    at a time, which its per-element bits allow. At ±inf it takes its
    limits, without a warning: gelu(-inf) = -0.0 and gelu(inf) = inf, with
    gradients 0 and 1."""
    a = _as_tensor(a)
    x = a.data
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty(x.shape))
    flat = cdf.reshape(-1)
    for start in range(0, flat.size, CHUNK):
        part = flat[start:start + CHUNK]
        _erf(part, part)
    cdf += 1.0
    cdf *= 0.5

    def rule(g):
        # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi)
        out = np.multiply(x, -0.5)
        out *= x
        np.exp(out, out=out)
        out *= _INV_SQRT2PI
        if all_finite(x):
            out *= x
        else:  # x * pdf is 0 * inf at ±inf; its limit 0 is there already
            np.multiply(out, x, out=out, where=~np.isinf(x))
        out += cdf
        out *= g
        return out

    if x.size == 0 or x.min() > -np.inf:
        y = x * cdf
    else:  # -inf * 0 at -inf (NaN lands here too)
        y = np.multiply(x, cdf, out=np.full_like(x, -0.0), where=x != -np.inf)
    return _make(y, (a, rule))


def _softmax(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted softmax of `x` along `axis`, written into `out` (a new
    array when None, `x` itself to compute in place)."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(g: np.ndarray, w: np.ndarray, axis: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The gradient w * (g - sum(g * w)) through softmax weights `w`, written
    into `out` (a new array when None; `g` itself when the caller owns it)."""
    gw = np.multiply(g, w)
    dot = gw.sum(axis=axis, keepdims=True)
    out = np.subtract(g, dot, out=gw if out is None else out)
    out *= w
    return out


def softmax(a, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; -inf entries get weight 0."""
    a = _as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(f"softmax axis {axis} out of range for shape {a.shape}")
    out_data = _softmax(a.data, axis)
    return _make(out_data, (a, lambda g: _softmax_grad(g, out_data, axis)))


def attention(q, k, v, scale: float, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q @ k^T * scale + mask) @ v on the last two axes, leading axes
    broadcast: one node that keeps only the weights, one (..., Tq, Tk) array
    whose scores are scaled, masked and normalised in place. The same ufuncs
    run in the same order as the chain matmul, mul, add, softmax, matmul, so
    the bytes equal that chain's. (Identity values, v = I, give the weights:
    w @ I = w.)"""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    q_data, k_data, v_data = q.data, k.data, v.data
    q_shape, k_shape, v_shape = q_data.shape, k_data.shape, v_data.shape
    w = np.matmul(q_data, np.swapaxes(k_data, -1, -2))
    w *= scale
    if mask is not None:
        w += mask  # -inf logits never receive weight
    _softmax(w, -1, out=w)
    # q's rule leaves the score gradient here when k's rule also reads it
    both = q.node is not None and k.node is not None
    shared: list[np.ndarray] = []

    def score_grad(g):
        gs = np.matmul(g, np.swapaxes(v_data, -1, -2))
        _softmax_grad(gs, w, -1, out=gs)
        gs *= scale
        return gs

    def q_rule(g):
        gs = score_grad(g)
        if both:
            shared.append(gs)
        return _unbroadcast(np.matmul(gs, k_data), q_shape)

    def k_rule(g):
        gs = shared.pop() if both else score_grad(g)
        gk = _unbroadcast(np.matmul(np.swapaxes(q_data, -1, -2), gs),
                          k_shape[:-2] + (k_shape[-1], k_shape[-2]))
        return np.swapaxes(gk, -1, -2)

    return _make(np.matmul(w, v_data), (q, q_rule), (k, k_rule),
                 (v, lambda g: _unbroadcast(np.matmul(np.swapaxes(w, -1, -2), g),
                                            v_shape)))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(f"log_softmax axis {axis} out of range for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return _make(out_data,
                 (a, lambda g: g - np.exp(out_data) * g.sum(axis=axis, keepdims=True)))


def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale the rest up."""
    a = _as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return _make(a.data * keep, (a, lambda g: g * keep))


def embedding(weight, ids: np.ndarray) -> Tensor:
    """Row lookup: weight (V, d), ids int array of any shape -> (*ids, d).
    Under no_grad a stacked table (K, V, d) serves ids (K, ...), batch row k
    reading table k, or ids (1, ...), read from every table."""
    weight = _as_tensor(weight)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[-2]):
        raise ValueError("embedding id out of range")
    if weight.ndim == 3:
        if _grad_mode.enabled and weight.requires_grad:
            raise ValueError("a stacked embedding table is looked up only under no_grad")
        if ids.shape[:1] not in ((1,), weight.shape[:1]):
            raise ValueError(f"ids {ids.shape} do not match stacked table {weight.shape}")
        rows = np.arange(weight.shape[0]).reshape((-1,) + (1,) * (ids.ndim - 1))
        return Tensor(weight.data[rows, ids])

    table_shape = weight.shape

    def rule(g):
        gw = np.zeros(table_shape)
        np.add.at(gw, ids.reshape(-1), g.reshape(-1, table_shape[1]))
        return gw

    return _make(weight.data[ids], (weight, rule))


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then affine with gamma/beta. One node
    with a closed-form backward. Under no_grad a stacked gamma or beta
    (K, 1, d) serves x (K, T, d) or (1, T, d): batch row k uses copy k."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.shape[-1] == 0:
        raise ValueError("layer_norm over an empty last axis")
    stacked = gamma.ndim > 1 or beta.ndim > 1
    if stacked and _grad_mode.enabled and any(t.requires_grad for t in (x, gamma, beta)):
        raise ValueError("a stacked layer_norm gain or shift is used only under no_grad")
    n = x.shape[-1]
    gamma_data, gamma_shape, beta_shape = gamma.data, gamma.shape, beta.shape
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / n
    out = np.multiply(xhat, xhat)
    inv = (out.sum(axis=-1, keepdims=True) / n + eps) ** -0.5
    xhat *= inv

    def x_rule(g):
        gx = g * gamma_data
        gxhat = np.multiply(gx, xhat)
        np.multiply(xhat, gxhat.sum(axis=-1, keepdims=True) / n, out=gxhat)
        gx -= gx.sum(axis=-1, keepdims=True) / n
        gx -= gxhat
        gx *= inv
        return gx

    if stacked:  # the output takes the stacked rows; no graph to record
        return Tensor(xhat * gamma_data + beta.data)
    np.multiply(xhat, gamma_data, out=out)
    out += beta.data
    return _make(out, (x, x_rule),
                 (gamma, lambda g: _unbroadcast(g * xhat, gamma_shape)),
                 (beta, lambda g: _unbroadcast(g, beta_shape)))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Add d(loss)/d(leaf) into .grad of every leaf feeding `loss`; a leaf
    without one gets its own copy.

    Calls on separate graphs accumulate until `zero_grad` drops the grads.
    Intermediate tensors keep .grad None. Each node's edges, and the arrays
    their rules saved, are dropped once run, so a graph serves one backward:
    a second one through it raises ValueError.
    """
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    root = loss.node
    if root is None:
        return

    # post-order walk; a define-by-run graph has no cycle, since _make only
    # links a new node to nodes that already exist. It checks the whole
    # graph before any rule runs, so a released graph changes no grad.
    topo: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.edges is None:
            raise ValueError("backward through a graph that an earlier backward "
                             "released; build the graph again")
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node.edges:
            if id(p) not in seen:
                stack.append((p, False))

    # each node but the root is an edge's input of a node before it, so
    # each has a gradient by the time it is reached
    flowing: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flowing.pop(id(node))
        if not node.edges:  # a leaf
            if node.grad is None:
                # a copy, since a rule may hand one array to several inputs;
                # + 0.0 writes -0.0 as +0.0, as adding into zeros did
                node.grad = np.add(g, 0.0, out=np.empty(g.shape))
            else:
                node.grad += g
            continue
        edges, node.edges = node.edges, None
        for parent, rule in edges:
            pg = rule(g)
            acc = flowing.get(id(parent))
            # never in place: a rule may hand its incoming array to an input
            flowing[id(parent)] = pg if acc is None else acc + pg
