"""Losses paired with their gradients w.r.t. the model output."""

from __future__ import annotations

import numpy as np

from .layers import softmax

EPS = 1e-12


def mse(pred: np.ndarray, target: np.ndarray,
        mask: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean squared error over unmasked elements; grad w.r.t. pred."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    if mask is not None:
        diff *= mask[..., None]  # in place, so diff keeps its dtype
        count = int(mask.sum()) * pred.shape[-1]
    else:
        count = diff.size
    loss = float(np.sum(diff * diff) / count)
    return loss, 2.0 * diff / count


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Fused softmax + cross entropy for integer class labels.

    Returns (mean loss, grad w.r.t. logits = (p - onehot) / batch); the
    gradient is built in place in the softmax output.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("logits must be (batch, classes), labels (batch,)")
    p = softmax(logits)
    n = logits.shape[0]
    rows = np.arange(n)
    picked = np.maximum(p[rows, labels], EPS)
    loss = float(-np.log(picked).mean())
    p[rows, labels] -= 1.0
    p /= n
    return loss, p
