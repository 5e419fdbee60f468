"""Mini-batch training loop, deterministic under a fixed seed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import NumericalError
from .losses import mse, softmax_cross_entropy
from .optim import Adam


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int


def flatten_parameters(model) -> tuple[np.ndarray, np.ndarray]:
    """Move a model's parameters into one flat vector and bind its
    gradients to a second, zeroed and of their dtype: the only code that
    makes gradient arrays.

    Every params[k] and grads[k] entry is rebound to a C-contiguous reshaped
    view of its vector, in parameters() order, so that an optimizer step or
    a gradient reset is one operation on one array. Returns (params, grads).
    """
    entries = model.parameters()
    params = np.concatenate([p[k].ravel() for _, p, _, k in entries])
    grads = np.zeros_like(params)
    start = 0
    for _, p, g, k in entries:
        shape, stop = p[k].shape, start + p[k].size
        p[k] = params[start:stop].reshape(shape)
        g[k] = grads[start:stop].reshape(shape)
        start = stop
    return params, grads


def train(model, x: np.ndarray, y: np.ndarray, config: TrainConfig,
          seed: int, loss: str = "mse",
          mask: np.ndarray | None = None) -> list[float]:
    """Train in place; returns the per-epoch mean loss history.

    seed draws every epoch's mini-batch order. x may be (N, D) frames or
    (N, T, D) sequences; mask, when given for sequences, is (N, T) and
    selects which time steps count toward the loss.
    loss is "mse" or "cross_entropy" (integer labels, fused with softmax).
    x, a float y and mask must have the parameters' dtype: one array of
    another would silently carry every step into the wider of the two.
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty training data")
    params, grads = flatten_parameters(model)
    for name, arr in (("x", x), ("y", y), ("mask", mask)):
        if (arr is not None and (name != "y" or arr.dtype.kind == "f")
                and arr.dtype != params.dtype):
            raise ValueError(f"{name} is {arr.dtype} but the model's "
                             f"parameters are {params.dtype}")
    rng = np.random.default_rng(seed)
    opt = Adam(config.learning_rate, params)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            mb = mask[idx] if mask is not None else None
            grads.fill(0.0)
            total += _batch_gradients(model, x[idx], y[idx], mb, loss, epoch)
            opt.step(params, grads)
            batches += 1
        history.append(total / batches)
    return history


def _batch_gradients(model, xb, yb, mb, loss, epoch) -> float:
    """One batch's loss, its parameter gradients added into the model's
    grads; a fit holds one batch's forward cache, for this call only."""
    try:
        out, cache = model.forward(xb)
    except NumericalError as exc:
        raise RuntimeError(f"training diverged at epoch {epoch}: {exc}")
    if loss == "mse":
        value, grad = mse(out, yb, mask=mb)
    elif loss == "cross_entropy":
        value, grad = softmax_cross_entropy(out, yb)
    else:
        raise ValueError(f"unknown loss '{loss}'")
    if not np.isfinite(value):
        raise RuntimeError(f"NaN loss at epoch {epoch}; "
                           "inspect the first non-finite layer output")
    model.backward(cache, grad, input_grad=False)
    return value
