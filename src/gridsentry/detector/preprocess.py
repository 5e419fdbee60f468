"""First-difference standardization shared by every detector variant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
            if value.shape != (N_SENSORS,):
                raise ValueError(f"{name} must have length {N_SENSORS}")
            object.__setattr__(self, name, value)
        for name in ("std", "raw_std"):
            if np.any(getattr(self, name) < EPSILON):
                raise ValueError(f"{name} below the epsilon floor")

    def standardize_raw(self, values: np.ndarray) -> np.ndarray:
        return (values - self.raw_mean) / self.raw_std


def _frames(series) -> np.ndarray:
    values = getattr(series, "values", series)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != N_SENSORS:
        raise ValueError(f"expected (T, {N_SENSORS}) sensor frames")
    return values


def fit_preprocess(series_list) -> PreprocessStats:
    """Std of first differences per sensor, floored at EPSILON.

    series_list is an iterable of ScenarioSeries (or raw (T, 39) arrays);
    differences never cross series boundaries.
    """
    diffs = []
    raws = []
    total = 0
    for series in series_list:
        values = _frames(series)
        total += values.shape[0]
        raws.append(values)
        if values.shape[0] >= 2:
            diffs.append(np.diff(values, axis=0))
    if total < 100:
        raise ValueError(f"need at least 100 training frames, got {total}")
    stacked = np.concatenate(diffs, axis=0)
    std = np.maximum(stacked.std(axis=0, ddof=1), EPSILON)
    raw = np.concatenate(raws, axis=0)
    raw_std = np.maximum(raw.std(axis=0, ddof=1), EPSILON)
    return PreprocessStats(std=std, raw_mean=raw.mean(axis=0), raw_std=raw_std)


def preprocess(series, stats: PreprocessStats) -> np.ndarray:
    """Standardized first differences: z_t = (y_t - y_{t-1}) / std.

    Returns (T-1, 39); row j corresponds to original frame j+1.
    """
    values = _frames(series)
    if values.shape[0] < 2:
        raise ValueError("need at least 2 frames to difference")
    return np.diff(values, axis=0) / stats.std


def assert_normal_lineage(series_list) -> None:
    """Data hygiene check: reconstruction/prediction training sees only
    frames labeled normal."""
    for i, series in enumerate(series_list):
        labels = getattr(series, "labels", None)
        if labels is None:
            continue
        bad = {lbl for lbl in labels if lbl != "normal"}
        if bad:
            raise ValueError(
                f"series {i} carries non-normal labels {sorted(bad)}; "
                "autoencoder/predictor training must only see normal data")
