"""Scalar-loop finite-difference check: the reference the primitive tests use
and the oracle that `audiocap.gradcheck`'s stacked probing is compared with."""

from typing import Callable

import numpy as np

from audiocap import autodiff as ad
from audiocap.autodiff import NumericError, Tensor


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float) -> float:
    """Max relative error between f's analytic gradient at x and central
    finite differences with step h, two forward passes per scalar. Probes
    x.data in place and restores it."""
    if h <= 0:
        raise NumericError(f"finite-difference step must be positive, got {h}")
    if not x.requires_grad:
        raise ValueError("finite_diff_check needs a tensor with requires_grad")

    x.zero_grad()
    loss = f(x)
    ad.backward(loss)
    analytic = x.grad.copy()
    if not np.all(np.isfinite(analytic)):
        raise NumericError("non-finite analytic gradient")

    worst = 0.0
    flat = x.data.reshape(-1)
    with ad.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(f(x).data)
            flat[i] = orig - h
            lo = float(f(x).data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError("non-finite loss during finite differences")
            central = (hi - lo) / (2.0 * h)
            a = analytic.reshape(-1)[i]
            err = abs(a - central) / max(1e-12, abs(a) + abs(central))
            worst = max(worst, err)
    return worst
