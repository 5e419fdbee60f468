"""Minimal dense/recurrent layer library with reverse-mode gradients.

Layers hold parameters and gradients only. forward(x) returns (y, cache):
the cache is what the matching backward(cache, dy) reads, and a caller
that only infers drops it. No layer keeps an array of a call after it
returns, so forwards on one model may interleave, each backward taking its
own forward's cache. Arrays are batch-first, and dtype-preserving:
every array a call makes takes the dtype of the parameters and inputs it
comes from, so a model whose parameters and inputs are float32 computes in
float32 and one whose are float64 in float64.

No call writes into an array its caller passed in, or into a cache, and
every call returns a fresh array. Callers must not write into a returned
array either: the matching backward may read it.
"""

from __future__ import annotations

import numpy as np

LEAKY_SLOPE = 0.01  # LeakyReLU's slope below zero


class NumericalError(FloatingPointError):
    """A layer produced NaN/Inf."""


def _check(name: str, arr: np.ndarray) -> np.ndarray:
    """Finite check at layer boundaries; cheap at the scales used here."""
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values out of {name}")
    return arr


def _sigmoid(x, out=None):
    """Overflow-free logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below.

    min(x, -x) is -|x| but passes a NaN through with its sign bit. Its
    exponential e is at most 1, so max(e, x >= 0) is the numerator: 1 where
    x >= 0 and e below, chosen without a branch per element. `out`, when
    given, receives the result and must not overlap x.
    """
    e = np.negative(x, out=out)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    e /= d
    return e


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True) as np.maximum folded over the columns:
    several times faster on the classifier's 9-wide rows. NaN propagates as
    in x.max; where +0.0 and -0.0 tie for the max, the sign may differ."""
    m = x[..., 0]
    for j in range(1, x.shape[-1]):
        m = np.maximum(m, x[..., j])
    return m[..., None]


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-stabilized softmax over the last axis."""
    e = x - _row_max(x)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


class Layer:
    """Base: parameters and gradients are aligned name -> array dicts.

    forward(x) returns (y, cache). backward(cache, dy) adds the parameter
    gradients into `grads`, empty until a fit binds it
    (train.flatten_parameters), and returns the gradient w.r.t. the layer
    input. Dense, LSTM and Sequential take input_grad=False to skip that
    last product and return None; Sequential passes it on to its first
    layer only.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the (first) parameter: the one a caller casts the
        layer's inputs to."""
        _, params, _, k = self.parameters()[0]
        return params[k].dtype

    def parameters(self):
        """(name, params-dict, grads-dict, key) entries, one per parameter."""
        return [(k, self.params, self.grads, k) for k in self.params]


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        bound = 1.0 / np.sqrt(in_dim)
        self.params["W"] = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        self.params["b"] = np.zeros(out_dim, dtype=self.params["W"].dtype)

    def forward(self, x):
        if x.shape[-1] != self.params["W"].shape[0]:
            raise ValueError(f"Dense expects width {self.params['W'].shape[0]}, "
                             f"got {x.shape[-1]}")
        y = x @ self.params["W"]
        y += self.params["b"]
        return _check("Dense", y), x

    def backward(self, x, dy, input_grad=True):
        x2 = x.reshape(-1, x.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        self.grads["W"] += x2.T @ dy2
        self.grads["b"] += dy2.sum(axis=0)
        return dy @ self.params["W"].T if input_grad else None


class ReLU(Layer):
    def forward(self, x):
        mask = x > 0
        return x * mask, mask

    def backward(self, mask, dy):
        return dy * mask


class LeakyReLU(Layer):
    """x above zero, LEAKY_SLOPE * x elsewhere: max(x, LEAKY_SLOPE * x).

    The backward pass multiplies by an array of slopes, 1 above zero. Both
    give the bits of choosing x or LEAKY_SLOPE * x per element.
    """

    def forward(self, x):
        y = LEAKY_SLOPE * x
        return np.maximum(x, y, out=y), x > 0

    def backward(self, mask, dy):
        slopes = mask.astype(dy.dtype)
        np.maximum(slopes, LEAKY_SLOPE, out=slopes)
        slopes *= dy
        return slopes


class Sigmoid(Layer):
    def forward(self, x):
        y = _sigmoid(x)
        return y, y

    def backward(self, y, dy):
        dx = dy * y
        dx *= 1.0 - y
        return dx


class Sequential(Layer):
    def __init__(self, layers: list[Layer]):
        super().__init__()
        self.layers = layers

    def forward(self, x):
        """(y, the list of the layers' caches)."""
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, caches, dy, input_grad=True):
        for layer, cache in zip(self.layers[:0:-1], caches[:0:-1]):
            dy = layer.backward(cache, dy)
        return self.layers[0].backward(caches[0], dy, input_grad=input_grad)

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
    """Full-sequence LSTM: (*lead, B, T, D) -> hidden states (*lead, B, T, H).

    Gate order i, f, g, o. Every forward starts from zero hidden and cell
    states. Leading axes stack independent batches: each (B, T, D) block
    takes the same products, so the same bits, as on its own. backward
    takes (B, T, H) only.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        bound = 1.0 / np.sqrt(in_dim + hidden)
        self.params["Wx"] = rng.uniform(-bound, bound, size=(in_dim, 4 * hidden))
        self.params["Wh"] = rng.uniform(-bound, bound, size=(hidden, 4 * hidden))
        self.params["b"] = np.zeros(4 * hidden, dtype=self.params["Wx"].dtype)

    def forward(self, x):
        *lead, T, D = x.shape
        if D != self.in_dim:
            raise ValueError(f"LSTM expects width {self.in_dim}, got {D}")
        H = self.hidden
        Wx, Wh, b = self.params["Wx"], self.params["Wh"], self.params["b"]
        # input products for every step at once: (T, *lead, 4H); step t's
        # row is overwritten by its gates, with tanh(g) in the g slot. The
        # cache carries them, the cell states cs and the hidden states,
        # h_prev for the backward pass. Every state takes the dtype of these
        # products.
        gates = np.matmul(np.moveaxis(x, -2, 0), Wx)
        h = np.zeros((*lead, H), dtype=gates.dtype)
        cs = np.empty((T, *lead, H), dtype=gates.dtype)
        hs = np.empty((*lead, T, H), dtype=gates.dtype)
        c = h
        for t in range(T):
            z = gates[t] + h @ Wh
            z += b
            s = _sigmoid(z, out=gates[t])
            np.tanh(z[..., 2 * H:3 * H], out=s[..., 2 * H:3 * H])
            i, f, g, o = (s[..., :H], s[..., H:2 * H], s[..., 2 * H:3 * H],
                          s[..., 3 * H:])
            c = np.multiply(f, c, out=cs[t])
            c += i * g
            h = np.multiply(o, np.tanh(c), out=hs[..., t, :])
        return _check("LSTM", hs), (x, gates, cs, hs)

    def backward(self, cache, dhs, input_grad=True):
        B, T, H = dhs.shape
        x, gates, cs, hs = cache
        Wx, Wh = self.params["Wx"], self.params["Wh"]
        # the factors that need no recurrence, for every step at once: the
        # slopes 1 - tanh(c)^2, 1 - s of each gate and 1 - g^2 of the g slot
        tcs = np.tanh(cs)
        dtanh = tcs * tcs
        np.subtract(1.0, dtanh, out=dtanh)
        one_minus_s = 1.0 - gates
        g_all = gates[..., 2 * H:3 * H]
        gslope = g_all * g_all
        np.subtract(1.0, gslope, out=gslope)
        dzs = np.zeros_like(gates)  # (T, B, 4H)
        h0 = np.zeros_like(cs[0])
        dh_next = np.zeros_like(h0)
        dc_next = np.zeros_like(h0)
        for t in range(T - 1, -1, -1):
            s, tc = gates[t], tcs[t]
            i, f, g, o = (s[:, :H], s[:, H:2 * H], s[:, 2 * H:3 * H],
                          s[:, 3 * H:])
            c_prev = cs[t - 1] if t else h0
            h_prev = hs[:, t - 1] if t else h0
            dh = dhs[:, t] + dh_next
            dc = dh * o
            dc *= dtanh[t]
            dc += dc_next
            dz = dzs[t]
            # d(gate) for i, f and o, times the sigmoid slope s * (1 - s)
            # over the whole row; the g slot (zero until now) then gets
            # its tanh slope
            np.multiply(dc, g, out=dz[:, :H])
            np.multiply(dc, c_prev, out=dz[:, H:2 * H])
            np.multiply(dh, tc, out=dz[:, 3 * H:])
            dz *= s
            dz *= one_minus_s[t]
            dg = np.multiply(dc, i, out=dz[:, 2 * H:3 * H])
            dg *= gslope[t]
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
