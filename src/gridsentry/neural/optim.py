"""Adam parameter updates over the flat parameters() view of a model."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adaptive moment estimation with bias correction."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, parameters) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, params, grads, k in parameters:
            g = grads[k]
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            params[k] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

