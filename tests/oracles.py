"""Reference oracles that only the tests use.

The pipeline runs none of these; they check it from outside:
- `chi_square_detect`: the classical chi-square detector on the sum of
  squared residuals (criterion 4, tests/test_detector.py).
- The linear state-space toy system (`LinearSystem`, `random_system`,
  `simulate`, `linear_mask_bias`, `covert_attack_run`) for exact covertness
  checks (criteria 2 and 4, tests/test_scenario.py).
- `grad_check`: the central-difference gradient oracle for every
  differentiable model (criterion 5, tests/test_neural.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridsentry.neural import mse, softmax_cross_entropy

# ------------------------------------------------------------ chi square

def chi_square_detect(residuals: np.ndarray, window: int,
                      alpha: float) -> np.ndarray:
    """Per-window alarm booleans over non-overlapping windows.

    residuals is (T, m), standardized so each entry is N(0, 1) under the
    no-anomaly hypothesis; the SSR over a window is then chi-square with
    window*m degrees of freedom, and the alarm threshold is its 1-alpha
    quantile. Trailing frames that do not fill a window are dropped.
    """
    from scipy.stats import chi2  # slow to import; only this uses it
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


# ------------------------------------------------------------ linear toy

@dataclass(frozen=True)
class LinearSystem:
    A: np.ndarray  # (n, n)
    B: np.ndarray  # (n, p)
    C: np.ndarray  # (m, n)
    x0: np.ndarray  # (n,)

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n or self.C.shape[1] != n:
            raise ValueError("B and C must be dimensioned against A")
        if self.x0.shape != (n,):
            raise ValueError("x0 has wrong length")
        if np.linalg.matrix_rank(self.C) < min(self.C.shape):
            raise ValueError("C must have full rank")


def random_system(rng: np.random.Generator, n=3, p=2, m=3,
                  spectral_radius=0.9) -> LinearSystem:
    A = rng.standard_normal((n, n))
    A *= spectral_radius / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    B = rng.standard_normal((n, p))
    C = rng.standard_normal((m, n))
    return LinearSystem(A=A, B=B, C=C, x0=rng.standard_normal(n))


def simulate(sys: LinearSystem, controls: np.ndarray,
             noise: np.ndarray | None = None) -> np.ndarray:
    """Outputs y_1..y_T for x_t = A x_{t-1} + B u_{t-1}, y_t = C x_t (+ noise)."""
    T = controls.shape[0]
    x = sys.x0.copy()
    ys = np.empty((T, sys.C.shape[0]))
    for t in range(T):
        x = sys.A @ x + sys.B @ controls[t]
        ys[t] = sys.C @ x
    if noise is not None:
        ys = ys + noise
    return ys


def linear_mask_bias(sys: LinearSystem, a: np.ndarray) -> np.ndarray:
    """One-step output bias of an additive control manipulation."""
    a = np.asarray(a)
    if a.shape != (sys.B.shape[1],):
        raise ValueError(f"attack vector must have length {sys.B.shape[1]}")
    return sys.C @ (sys.B @ a)


def covert_attack_run(sys: LinearSystem, controls: np.ndarray,
                      attacks: np.ndarray, noise: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nominal, attacked, masked) output sequences under a covert attack.

    The attacker tracks the accumulated state deviation d_t = A d_{t-1}
    + B a_{t-1} and subtracts the output bias C d_t from the attacked
    measurements, so the masked sequence reproduces the nominal one. Both
    sequences share the same measurement noise.
    """
    if attacks.shape != controls.shape:
        raise ValueError("attack sequence must match the control sequence shape")
    T = controls.shape[0]
    nominal = simulate(sys, controls, noise)
    attacked = simulate(sys, controls + attacks, noise)
    masked = attacked.copy()
    d = np.zeros_like(sys.x0)
    for t in range(T):
        d = sys.A @ d + sys.B @ attacks[t]
        masked[t] = attacked[t] - sys.C @ d
    return nominal, attacked, masked


# ------------------------------------------------------------ gradients

def _loss_value(model, x, target, loss, mask):
    out = model.forward(x)
    if loss == "mse":
        return mse(out, target, mask=mask)[0]
    if loss == "cross_entropy":
        return softmax_cross_entropy(out, target)[0]
    raise ValueError(f"unknown loss '{loss}'")


def grad_check(model, x: np.ndarray, target: np.ndarray, loss: str = "mse",
               mask: np.ndarray | None = None, step: float = 1e-5) -> float:
    """Max relative error between analytic and numeric parameter gradients.

    relative error = |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    O(#params) loss evaluations; intended for small test instances.
    """
    out = model.forward(x)
    if loss == "mse":
        _, grad = mse(out, target, mask=mask)
    else:
        _, grad, _ = softmax_cross_entropy(out, target)
    model.zero_grad()
    model.backward(grad)
    analytic = {name: grads[k].copy()
                for name, _, grads, k in model.parameters()}

    worst = 0.0
    for name, params, _, k in model.parameters():
        flat = params[k].ravel()
        num = np.empty_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = _loss_value(model, x, target, loss, mask)
            flat[j] = orig - step
            down = _loss_value(model, x, target, loss, mask)
            flat[j] = orig
            num[j] = (up - down) / (2 * step)
        ana = analytic[name].ravel()
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-8)
        worst = max(worst, float(np.max(np.abs(ana - num) / denom)))
    return worst
