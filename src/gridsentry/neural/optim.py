"""Adam parameter updates over a model's flat parameter vector."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9    # decay of the first-moment (mean) estimate
BETA2 = 0.999  # decay of the second-moment (uncentred variance) estimate
EPS = 1e-8     # added to the root of the second moment before dividing


class Adam:
    """Adaptive moment estimation with bias correction; __init__ makes the
    moments and two scratch vectors, zeroed, like the flat `params`."""

    def __init__(self, learning_rate: float, params: np.ndarray):
        self.lr = learning_rate
        self.t = 0
        self.m, self.v, self._a, self._b = (np.zeros_like(params)
                                            for _ in range(4))

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the flat `params` in place from the aligned flat `grads`
        (see train.flatten_parameters).

        The two scratch vectors hold each out-of-place term; the order of
        operations is that of
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        params -= lr * m_hat / (sqrt(v_hat) + eps).
        """
        self.t += 1
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= BETA1
        np.multiply(grads, 1 - BETA1, out=a)
        m += a
        v *= BETA2
        np.multiply(grads, 1 - BETA2, out=a)
        a *= grads
        v += a
        np.divide(m, 1 - BETA1 ** self.t, out=a)
        a *= self.lr
        np.divide(v, 1 - BETA2 ** self.t, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        params -= a
