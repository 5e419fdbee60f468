"""Classical chi-square detector on the sum of squared residuals."""

from __future__ import annotations

import numpy as np


def chi_square_detect(residuals: np.ndarray, window: int,
                      alpha: float) -> np.ndarray:
    """Per-window alarm booleans over non-overlapping windows.

    residuals is (T, m), standardized so each entry is N(0, 1) under the
    no-anomaly hypothesis; the SSR over a window is then chi-square with
    window*m degrees of freedom, and the alarm threshold is its 1-alpha
    quantile. Trailing frames that do not fill a window are dropped.
    """
    from scipy.stats import chi2  # slow to import; no CLI stage needs it
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim == 1:
        residuals = residuals[:, None]
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    t, m = residuals.shape
    n_windows = t // window
    if n_windows == 0:
        return np.zeros(0, dtype=bool)
    ssr = (residuals[:n_windows * window] ** 2).reshape(
        n_windows, window * m).sum(axis=1)
    threshold = chi2.ppf(1.0 - alpha, df=window * m)
    return ssr > threshold
