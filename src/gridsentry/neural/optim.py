"""Adam parameter updates over a model's flat parameter vector."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9    # decay of the first-moment (mean) estimate
BETA2 = 0.999  # decay of the second-moment (uncentred variance) estimate
EPS = 1e-8     # added to the root of the second moment before dividing


class Adam:
    """Adaptive moment estimation with bias correction."""

    def __init__(self, learning_rate: float):
        if learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        self.lr = learning_rate
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the flat `params` in place from the aligned flat `grads`
        (see train.flatten_parameters)."""
        self.t += 1
        if self.m is None:
            self.m = np.zeros_like(grads)
            self.v = np.zeros_like(grads)
        m, v = self.m, self.v
        m *= BETA1
        m += (1 - BETA1) * grads
        v *= BETA2
        v += (1 - BETA2) * grads * grads
        mhat = m / (1 - BETA1 ** self.t)
        vhat = v / (1 - BETA2 ** self.t)
        params -= self.lr * mhat / (np.sqrt(vhat) + EPS)

