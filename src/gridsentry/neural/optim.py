"""Adam parameter updates over a model's flat parameter vector."""

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
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the flat `params` in place from the aligned flat `grads`
        (see train.flatten_parameters)."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        if self.m is None:
            self.m = np.zeros_like(grads)
            self.v = np.zeros_like(grads)
        m, v = self.m, self.v
        m *= b1
        m += (1 - b1) * grads
        v *= b2
        v += (1 - b2) * grads * grads
        mhat = m / (1 - b1 ** self.t)
        vhat = v / (1 - b2 ** self.t)
        params -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

