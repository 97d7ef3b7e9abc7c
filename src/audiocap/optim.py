"""Adam with bias correction, over lists of autodiff tensors."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Per-parameter first and second moments `m` and `v`, and the step
    count `t` they share."""

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr: float) -> None:
        """One in-place update from the grads currently on the parameters.

        Grads are left untouched; the caller resets them between steps.
        """
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + EPSILON), with two temporaries
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            tmp = np.multiply(g, 1.0 - BETA1)
            m *= BETA1
            m += tmp
            np.multiply(g, 1.0 - BETA2, out=tmp)
            tmp *= g
            v *= BETA2
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPSILON
            step = np.divide(m, bc1)
            step *= lr
            step /= tmp
            p.data -= step

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
