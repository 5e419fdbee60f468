"""Reference oracles that only the tests use.

The pipeline runs none of these; they check it from outside:
- `chi_square_detect`: the classical chi-square detector on the sum of
  squared residuals (criterion 4, tests/test_detector.py).
- `step_controlled_estimate`: the AC WLS fit of one noisy or attacked
  frame, Gauss-Newton with step halving finished by Newton steps, with
  `power_hessian` and `se_hessian_index` for its Newton phase; the
  chi-square tests and criterion 8's reason rest on it
  (tests/test_grid.py). The program's own fit, `estimate_state`, is plain
  Gauss-Newton, which the small-residual fit of a mean normal frame needs.
- The linear state-space toy system (`LinearSystem`, `random_system`,
  `simulate`, `linear_mask_bias`, `covert_attack_run`) for exact covertness
  checks (criteria 2 and 4, tests/test_scenario.py).
- `grad_check`: the central-difference gradient oracle for every
  differentiable model (criterion 5, tests/test_neural.py).
- `write_weakened_case`: a case file on which some solves fail, for the
  gap-hour and template-fallback paths of `gen-data`; a test patches
  `gridsentry.grid.case.DEFAULT_CASE` with it.
- `read_dataset`: a dataset's values and status arrays as save wrote
  them, read without `ScenarioSeries.load`'s checks (tests/test_cli.py).
- `named_group`, `frame_labels` and `series_stack`: a series' condition
  and level from its name, its frame labels, and rows of a values array as
  the `(frames, labels, levels)` stack, which `cli.load_dataset` takes
  from each series' job instead (tests/test_cli.py,
  tests/test_scenario.py).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridsentry.grid.case import DEFAULT_CASE, VOLT_OFFSET
from gridsentry.grid.estimation import (DEC_TOL, MAX_ITER, RankDeficientError,
                                        StateEstimate, _evaluate, _linearize)
from gridsentry.neural import mse, softmax_cross_entropy
from gridsentry.neural.train import flatten_parameters
from gridsentry.scenario import LABEL_INDEX

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


# ------------------------------------------------------------ AC WLS

# Gauss-Newton with step halving on the weighted SSR, finished by Newton,
# since Gauss-Newton alone converges only linearly on a large-residual fit.
# After a Gauss-Newton step whose decrement g^T G^-1 g is below NEWTON_DEC,
# the fit solves the SSR's full Hessian instead, and takes that step if it
# is a finite descent direction; otherwise it takes the Gauss-Newton step
# and goes on by the same rule. It stops converged when the decrement
# g^T dx of its step is below DEC_TOL (on a Newton step only where the full
# Hessian is positive definite, so that the point is a minimum); and
# unconverged after MAX_ITER linearizations, or when MAX_HALVINGS halvings
# of a step find no point whose SSR falls by ARMIJO t g^T dx. DEC_TOL and
# MAX_ITER are estimate_state's.
NEWTON_DEC = 0.1
ARMIJO = 1e-4
MAX_HALVINGS = 20


def power_hessian(M: np.ndarray, anchor: np.ndarray, V: np.ndarray,
                  lam: np.ndarray) -> np.ndarray:
    """The (2n, 2n) Hessian of sum_k lam_k Re S_k, S = complex_power(M,
    anchor, V), by [every bus angle | every bus magnitude]: the real part of
    MATPOWER's d2Sbr_dV2 (Zimmerman, Technical Note 2),

        Haa = F - D - E,  Hva = 1j G (B - B^T - D + E),  Hvv = G F G,

    where B = conj(diag V) M^H diag(lam) C diag V, C picks each row's anchor
    bus, F = B + B^T, D and E hold B's row and column sums on the diagonal,
    and G = diag(1 / |V|). B^T is formed from power_derivatives'
    V[anchor_k] * conj(M_kj V_j)."""
    n, rows = len(V), np.arange(len(anchor))
    L = np.zeros((n, len(anchor)))  # (diag(lam) C)^T
    L[anchor, rows] = lam
    P = V[anchor, None] * np.conj(M * V)
    Br, Bi = L @ P.real, L @ P.imag  # B^T, in real products
    inv_vm = 1.0 / np.abs(V)
    H = np.empty((2 * n, 2 * n))
    # Re(D + E) and Im(D - E) are the column sums of Re F and Im(B^T - B)
    Haa = Br + Br.T
    H[n:, n:] = Haa * (inv_vm[:, None] * inv_vm)
    Haa.ravel()[::n + 1] -= Haa.sum(axis=0)
    H[:n, :n] = Haa
    Hva = Bi - Bi.T
    Hva.ravel()[::n + 1] += Hva.sum(axis=0)
    Hva *= inv_vm[:, None]
    H[n:, :n] = Hva
    H[:n, n:] = Hva.T
    return H


def se_hessian_index(topo) -> np.ndarray:
    """Positions of the second derivatives by the estimator's state
    x = [va(nonslack) | vm] in a flat (2n, 2n) Hessian by [va | vm]."""
    n = len(topo.buses)
    cols = np.concatenate([topo.nonslack, n + topo.buses])
    return 2 * n * cols[:, None] + cols


def _newton_step(topo, V: np.ndarray, Wr: np.ndarray, gain: np.ndarray,
                 grad: np.ndarray):
    """The Newton step at V, whose weighted residual is Wr, and its
    decrement; None unless the step is a finite descent direction and, if
    its decrement is below DEC_TOL, the Hessian is positive definite.

    The SSR's Hessian, halved, is the gain H^T W H less the residual-weighted
    curvature of h, in which only the power rows are curved."""
    curvature = power_hessian(topo.power_rows, topo.power_anchor, V,
                              Wr[:len(topo.power_anchor)])
    hessian = gain - curvature.take(se_hessian_index(topo))
    try:
        dx = np.linalg.solve(hessian, grad)
        decrement = grad @ dx
        if not 0.0 < decrement < np.inf:
            return None
        if decrement < DEC_TOL:
            np.linalg.cholesky(hessian)  # raises unless positive definite
    except np.linalg.LinAlgError:
        return None
    return dx, decrement


def step_controlled_estimate(case, values: np.ndarray,
                             weights: np.ndarray) -> StateEstimate:
    """Step-controlled Gauss-Newton WLS fit of (voltage magnitudes, angles)
    to one frame, finished by Newton steps near the minimum, with
    estimate_state's measurement model, cold start and StateEstimate.

    It takes only steps that lower the weighted SSR, and returns the last
    point it accepted: its state, predictions and objective. It raises
    RankDeficientError on a singular gain or a Gauss-Newton step that is
    not a finite descent direction.
    """
    topo = case.topology
    nonslack = topo.nonslack
    ns = len(nonslack)
    W = 1.0 / weights

    vm = np.clip(values[VOLT_OFFSET:], 0.5, 1.5)
    va = np.zeros(case.n_bus)
    V, S, h, r, objective = _evaluate(topo, values, W, va, vm)

    step_va = np.zeros_like(va)  # the slack's angle stays 0
    converged = newton = False
    for iterations in range(1, MAX_ITER + 1):
        H = _linearize(topo, V, S)
        HtW = H.T * W
        grad = HtW @ r
        gain = HtW @ H
        step = _newton_step(topo, V, W * r, gain, grad) if newton else None
        if step is not None:
            dx, decrement = step
        else:
            try:
                dx = np.linalg.solve(gain, grad)
            except np.linalg.LinAlgError as exc:
                raise RankDeficientError(
                    "WLS gain matrix is singular") from exc
            decrement = grad @ dx
            if not 0.0 <= decrement < np.inf:
                raise RankDeficientError(
                    "WLS step is not a finite descent direction")
            newton = decrement < NEWTON_DEC
        if decrement < DEC_TOL:
            converged = True
            break
        if iterations == MAX_ITER:
            break
        step_va[nonslack] = dx[:ns]
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial_va, trial_vm = va + t * step_va, vm + t * dx[ns:]
            trial = _evaluate(topo, values, W, trial_va, trial_vm)
            if trial[-1] <= objective - ARMIJO * t * decrement:
                break
            t *= 0.5
        else:
            break  # no step along dx lowers the SSR enough
        va, vm = trial_va, trial_vm
        V, S, h, r, objective = trial

    return StateEstimate(
        voltage_magnitude=vm, voltage_angle=va,
        predicted_measurements=h, objective=objective,
        converged=converged, iterations=iterations)


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
    out, _ = model.forward(x)
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
    out, cache = model.forward(x)
    if loss == "mse":
        _, grad = mse(out, target, mask=mask)
    else:
        _, grad = softmax_cross_entropy(out, target)
    flatten_parameters(model)
    model.backward(cache, grad)
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


# ------------------------------------------------------------ weakened grid

def write_weakened_case(path: Path) -> Path:
    """Write the packaged case with every branch reactance tripled to
    `path`, a case to patch grid.case.DEFAULT_CASE with: power flow fails
    at some hours of a series on it, and the attacker's nominal solve at
    others."""
    lines = []
    for line in Path(DEFAULT_CASE).read_text().splitlines():
        tok = line.split()
        if tok and tok[0] == "branch":
            tok[4] = repr(3 * float(tok[4]))  # from to r x b limit
            line = " ".join(tok)
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")
    return path


# ------------------------------------------------------------ datasets

def read_dataset(data_dir) -> tuple[np.ndarray, np.ndarray]:
    """The values and status arrays of the dataset in data_dir, as np.load
    reads them."""
    return (np.load(Path(data_dir) / "values.npy"),
            np.load(Path(data_dir) / "status.npy"))


def named_group(name: str) -> tuple[str, int]:
    """The (condition, level) that the name of a series of gen-data
    spells: <condition>_l<level>_sNN, or normal_sNN at level 0."""
    condition, level = re.fullmatch(r"(.+?)(?:_l(\d))?_s\d+", name).groups()
    return condition, int(level or 0)


def frame_labels(condition: str, window, horizon: int) -> list[str]:
    """condition inside the window's hours, normal elsewhere, for each hour
    of horizon."""
    start, end = window
    return [condition if start <= t < end else "normal"
            for t in range(horizon)]


def series_stack(frames, names, window):
    """The (frames, labels, levels) stack of the series named names, whose
    values are the rows of frames, as cli.load_dataset returns a dataset's
    part: the frames, the LABEL_INDEX of the frame labels of the condition
    each name gives (named_group) inside window, and the level each name
    gives, 0 for a normal series."""
    groups = [named_group(name) for name in names]
    return (frames,
            np.array([[LABEL_INDEX[label] for label in frame_labels(
                condition, window, frames.shape[1])]
                for condition, _ in groups]),
            np.array([level for _, level in groups]))
