"""Minimal dense/recurrent layer library with reverse-mode gradients.

Single-threaded per model instance: forward caches activations that the
matching backward consumes. All arrays are float64, batch-first.
"""

from __future__ import annotations

import numpy as np

LEAKY_SLOPE = 0.01  # LeakyReLU's slope below zero


class NumericalError(FloatingPointError):
    """A layer produced NaN/Inf."""


def _check(name: str, arr: np.ndarray) -> np.ndarray:
    """Finite check at layer boundaries; cheap at the scales used here."""
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values out of {name}")
    return arr


def _sigmoid(x):
    """Overflow-free logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below.

    min(x, -x) is -|x| but passes a NaN through with its sign bit.
    """
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-stabilized softmax over the last axis."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Layer:
    """Base: parameters and gradients are aligned name -> array dicts.

    backward(dy) adds the parameter gradients into `grads` and returns the
    gradient w.r.t. the layer input. Dense, LSTM and Sequential take
    input_grad=False to skip that last product and return None; Sequential
    passes it on to its first layer only.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for _, params, grads, k in self.parameters():
            if k in grads:
                grads[k].fill(0.0)
            else:
                grads[k] = np.zeros_like(params[k])

    def parameters(self):
        """(name, params-dict, grads-dict, key) entries, one per parameter."""
        return [(k, self.params, self.grads, k) for k in self.params]


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        bound = 1.0 / np.sqrt(in_dim)
        self.params["W"] = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        self.params["b"] = np.zeros(out_dim)
        self.zero_grad()

    def forward(self, x):
        if x.shape[-1] != self.params["W"].shape[0]:
            raise ValueError(f"Dense expects width {self.params['W'].shape[0]}, "
                             f"got {x.shape[-1]}")
        self._x = x
        return _check("Dense", x @ self.params["W"] + self.params["b"])

    def backward(self, dy, input_grad=True):
        x2 = self._x.reshape(-1, self._x.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        self.grads["W"] += x2.T @ dy2
        self.grads["b"] += dy2.sum(axis=0)
        return dy @ self.params["W"].T if input_grad else None


class ReLU(Layer):
    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        return dy * self._mask


class LeakyReLU(Layer):
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, LEAKY_SLOPE * x)

    def backward(self, dy):
        return np.where(self._mask, dy, LEAKY_SLOPE * dy)


class Sigmoid(Layer):
    def forward(self, x):
        self._y = _sigmoid(x)
        return self._y

    def backward(self, dy):
        return dy * self._y * (1.0 - self._y)


class Sequential(Layer):
    def __init__(self, layers: list[Layer]):
        super().__init__()
        self.layers = layers

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy, input_grad=True):
        first, *rest = self.layers
        for layer in reversed(rest):
            dy = layer.backward(dy)
        return first.backward(dy, input_grad=input_grad)

    def parameters(self):
        """Flat (name, params-dict, grads-dict, key) view, recursing into
        nested containers."""
        out = []
        for i, layer in enumerate(self.layers):
            for name, params, grads, k in layer.parameters():
                out.append((f"layer{i}.{type(layer).__name__}.{name}",
                            params, grads, k))
        return out


class LSTM(Layer):
    """Full-sequence LSTM: (B, T, D) -> hidden states (B, T, H).

    Gate order i, f, g, o. Every forward starts from zero hidden and cell
    states.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        bound = 1.0 / np.sqrt(in_dim + hidden)
        self.params["Wx"] = rng.uniform(-bound, bound, size=(in_dim, 4 * hidden))
        self.params["Wh"] = rng.uniform(-bound, bound, size=(hidden, 4 * hidden))
        self.params["b"] = np.zeros(4 * hidden)
        self.zero_grad()

    def forward(self, x):
        B, T, D = x.shape
        if D != self.in_dim:
            raise ValueError(f"LSTM expects width {self.in_dim}, got {D}")
        H = self.hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        self._x = x
        self._cache = []
        hs = np.empty((B, T, H))
        Wx, Wh, b = self.params["Wx"], self.params["Wh"], self.params["b"]
        # input products for every step at once: (T, B, 4H)
        xw = np.matmul(x.transpose(1, 0, 2), Wx)
        for t in range(T):
            z = xw[t] + h @ Wh + b
            s = _sigmoid(z)
            i, f, o = s[:, :H], s[:, H:2 * H], s[:, 3 * H:]
            g = np.tanh(z[:, 2 * H:3 * H])
            h_prev, c_prev = h, c
            c = f * c_prev + i * g
            tc = np.tanh(c)
            h = o * tc
            hs[:, t] = h
            self._cache.append((s, g, c_prev, tc, h_prev))
        return _check("LSTM", hs)

    def backward(self, dhs, input_grad=True):
        B, T, H = dhs.shape
        x = self._x
        Wx, Wh = self.params["Wx"], self.params["Wh"]
        dzs = np.zeros((T, B, 4 * H))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            s, g, c_prev, tc, h_prev = self._cache[t]
            i, f, o = s[:, :H], s[:, H:2 * H], s[:, 3 * H:]
            dh = dhs[:, t] + dh_next
            dc = dh * o * (1.0 - tc * tc) + dc_next
            dz = dzs[t]
            # d(gate) for i, f and o, times the sigmoid slope s * (1 - s)
            # over the whole row; the g slot (zero until now) then gets
            # its tanh slope
            np.multiply(dc, g, out=dz[:, :H])
            np.multiply(dc, c_prev, out=dz[:, H:2 * H])
            np.multiply(dh, tc, out=dz[:, 3 * H:])
            dz *= s
            dz *= 1.0 - s
            dz[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
            self.grads["Wh"] += h_prev.T @ dz
            self.grads["b"] += dz.sum(axis=0)
            dh_next = dz @ Wh.T
            dc_next = dc * f
        # the per-step input products, summed from the last step back
        xdz = np.matmul(x.transpose(1, 2, 0), dzs)
        self.grads["Wx"] += xdz[::-1].sum(axis=0)
        if not input_grad:
            return None
        return np.matmul(dzs, Wx.T).transpose(1, 0, 2)
