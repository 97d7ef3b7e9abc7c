"""Adam with bias correction, over lists of autodiff tensors."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import CHUNK, Tensor

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Per-parameter first and second moments `m` and `v`, and the step
    count `t` they share."""

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        self.t = 0
        self._tmp = np.empty(CHUNK)
        self._step = np.empty(CHUNK)

    def step(self, lr: float) -> None:
        """One in-place update from the grads currently on the parameters;
        a parameter with no grad (backward did not reach it) steps as with
        an all-zero one, so its moments still decay.

        Grads are left untouched; `zero_grad` drops them between steps.
        Each tensor is updated CHUNK elements at a time, each element by
        the same operations as a whole-array update, so the bytes are the
        same.
        """
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if not p.data.flags.c_contiguous:  # its flat view must not be a copy
                p.data = np.ascontiguousarray(p.data)
            flat_p, flat_m, flat_v = p.data.reshape(-1), m.reshape(-1), v.reshape(-1)
            flat_g = None if p.grad is None else p.grad.reshape(-1)
            for start in range(0, flat_p.size, CHUNK):
                part = slice(start, start + CHUNK)
                n = min(CHUNK, flat_p.size - start)
                self._update(flat_p[part], 0.0 if flat_g is None else flat_g[part],
                             flat_m[part], flat_v[part], lr, bc1, bc2,
                             self._tmp[:n], self._step[:n])

    @staticmethod
    def _update(p, g, m, v, lr, bc1, bc2, tmp, step) -> None:
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + EPSILON), in two scratch buffers
        np.multiply(g, 1.0 - BETA1, out=tmp)
        m *= BETA1
        m += tmp
        np.multiply(g, 1.0 - BETA2, out=tmp)
        tmp *= g
        v *= BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPSILON
        np.divide(m, bc1, out=step)
        step *= lr
        step /= tmp
        p -= step

    def zero_grad(self) -> None:
        """Drop every parameter's grad (set it to None)."""
        for p in self.params:
            p.zero_grad()
