"""First-difference standardization shared by every detector variant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import InputError
from ..grid import N_SENSORS

EPSILON = 1e-6


@dataclass(frozen=True)
class PreprocessStats:
    """Per-sensor standard deviation of first-differenced training data.

    Also carries the per-sensor mean/std of the raw (undifferenced) training
    observations; the classifier's observation half is standardized with
    these so persistent level shifts stay visible to it.
    """

    std: np.ndarray
    raw_mean: np.ndarray
    raw_std: np.ndarray

    def __post_init__(self):
        for name in ("std", "raw_mean", "raw_std"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (N_SENSORS,) or not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be {N_SENSORS} finite values")
            object.__setattr__(self, name, value)
        for name in ("std", "raw_std"):
            if np.any(getattr(self, name) < EPSILON):
                raise ValueError(f"{name} below the epsilon floor")

    def standardize_raw(self, values: np.ndarray) -> np.ndarray:
        return (values - self.raw_mean) / self.raw_std


def fit_preprocess(frames: np.ndarray) -> PreprocessStats:
    """Std of first differences per sensor, floored at EPSILON, and the raw
    frames' per-sensor mean and std; differences never cross series."""
    raw = frames.reshape(-1, N_SENSORS)
    if len(raw) < 100:
        raise InputError(f"need at least 100 training frames, got {len(raw)}")
    diffs = np.diff(frames, axis=1).reshape(-1, N_SENSORS)
    std = np.maximum(diffs.std(axis=0, ddof=1), EPSILON)
    raw_std = np.maximum(raw.std(axis=0, ddof=1), EPSILON)
    return PreprocessStats(std=std, raw_mean=raw.mean(axis=0), raw_std=raw_std)


def preprocess(frames: np.ndarray, stats: PreprocessStats) -> np.ndarray:
    """Standardized first differences: z_t = (y_t - y_{t-1}) / std.

    Returns (S, T-1, 39); row j of a series corresponds to its frame j+1.
    """
    return np.diff(frames, axis=1) / stats.std
