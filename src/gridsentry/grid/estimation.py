"""Weighted-least-squares state estimation over the 39-sensor measurement model:
the AC fit of one frame, and the fit of a frame stack linearized at one
point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case import GridCase, N_SENSORS, Topology, VOLT_OFFSET
from .powerflow import power_derivatives, power_hessian, sensor_function

# Gauss-Newton with step halving on the weighted SSR, finished by Newton,
# since Gauss-Newton alone converges only linearly on a large-residual fit.
# After a Gauss-Newton step whose decrement g^T G^-1 g is below NEWTON_DEC,
# the fit solves the SSR's full Hessian instead, and takes that step if it
# is a finite descent direction; otherwise it takes the Gauss-Newton step
# and goes on by the same rule. It stops converged when the decrement
# g^T dx of its step, the SSR decrease the full step predicts, is below
# DEC_TOL (on a Newton step only where the full Hessian is positive
# definite, so that the point is a minimum); and unconverged after MAX_ITER
# linearizations, or when MAX_HALVINGS halvings of a step find no point
# whose SSR falls by ARMIJO t g^T dx. The SSR is in units of noise variance,
# so at DEC_TOL each weighted residual is within about 1e-3 sigma of the
# minimum's.
DEC_TOL = 1e-6
NEWTON_DEC = 0.1
ARMIJO = 1e-4
MAX_HALVINGS = 20
MAX_ITER = 30


class RankDeficientError(RuntimeError):
    """The WLS gain matrix is rank deficient: it is singular, or its step is
    not finite or not a descent direction."""


@dataclass
class StateEstimate:
    voltage_magnitude: np.ndarray    # (14,)
    voltage_angle: np.ndarray        # (14,)
    predicted_measurements: np.ndarray  # (39,)
    objective: float                 # weighted sum of squared residuals
    converged: bool
    iterations: int                  # linearizations of h made


def _evaluate(topo: Topology, z: np.ndarray, W: np.ndarray,
              va: np.ndarray, vm: np.ndarray):
    """The point (va, vm): its voltages V, powers S, predictions h, residual
    r = z - h and weighted SSR."""
    V = vm * np.exp(1j * va)
    h, S = sensor_function(topo, V, vm)
    r = z - h
    return V, S, h, r, float(r @ (W * r))


def _linearize(topo: Topology, V: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Jacobian of h w.r.t. [va(non-slack) | vm(all)] at V, whose measured
    powers are S."""
    dS = power_derivatives(topo.power_rows, topo.power_anchor,
                           topo.power_diag, V, S)
    return np.concatenate([dS.view(float).take(topo.se_index),
                           topo.se_volt_rows])


def linearized_predictions(case: GridCase, anchor: StateEstimate,
                           values: np.ndarray,
                           variances: np.ndarray) -> np.ndarray:
    """The (F, 39) WLS predictions of the (F, 39) frames `values`, each
    sensor weighted by its measurement variance in `variances`, under the
    measurement model linearized at the state of `anchor`.

    With h0 and H0 the predictions and Jacobian at the anchor, each frame y
    solves (H0^T W H0) dx = H0^T W (y - h0), W = 1 / variances, and predicts
    h0 + H0 dx: one linear solve per frame, all in one batched solve
    (Abur & Exposito, Power System State Estimation, 2004, ch. 2-3).
    """
    topo = case.topology
    vm = anchor.voltage_magnitude
    V = vm * np.exp(1j * anchor.voltage_angle)
    h0, S = sensor_function(topo, V, vm)
    H0 = _linearize(topo, V, S)
    n = H0.shape[1]
    W = 1.0 / variances
    # every frame's gain as one (F, 39) @ (39, n * n) product over the
    # sensors' outer products H0[k]^T H0[k]
    outer = (H0[:, :, None] * H0[:, None, :]).reshape(N_SENSORS, n * n)
    gain = (W @ outer).reshape(-1, n, n)
    grad = (W * (values - h0)) @ H0
    dx = np.linalg.solve(gain, grad[..., None])[..., 0]
    return h0 + dx @ H0.T


def _newton_step(topo: Topology, V: np.ndarray, Wr: np.ndarray,
                 gain: np.ndarray, grad: np.ndarray):
    """The Newton step at V, whose weighted residual is Wr, and its
    decrement; None unless the step is a finite descent direction and, if
    its decrement is below DEC_TOL, the Hessian is positive definite.

    The SSR's Hessian, halved, is the gain H^T W H less the residual-weighted
    curvature of h, in which only the power rows are curved."""
    curvature = power_hessian(topo.power_rows, topo.power_anchor, V,
                              Wr[:len(topo.power_anchor)])
    hessian = gain - curvature.take(topo.se_hessian_index)
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


def estimate_state(case: GridCase, values: np.ndarray,
                   weights: np.ndarray) -> StateEstimate:
    """Step-controlled Gauss-Newton WLS fit of (voltage magnitudes, angles)
    to one frame, finished by Newton steps near the minimum.

    values is the (39,) measurement frame and weights its per-sensor
    measurement variances. A generation sensor reads its bus's generation,
    which is the bus injection plus the bus load; scenario data puts load
    only on the load buses, so the generation rows predict the bare
    injection and carry no load term. The fit starts from the clipped
    voltage sensors with flat angles, takes only steps that lower the
    weighted SSR, and returns the last point it accepted: its state,
    predictions and objective.
    """
    z = np.asarray(values, dtype=float)
    if z.shape != (N_SENSORS,) or not np.all(np.isfinite(z)):
        raise ValueError(f"frame must have {N_SENSORS} finite values")
    weights = np.asarray(weights, dtype=float)
    if (weights.shape != (N_SENSORS,) or not np.all(np.isfinite(weights))
            or np.any(weights <= 0)):
        raise ValueError("weights must be 39 finite positive variances")

    topo = case.topology
    nonslack = topo.nonslack
    ns = len(nonslack)
    W = 1.0 / weights

    vm = np.clip(z[VOLT_OFFSET:], 0.5, 1.5)
    va = np.zeros(case.n_bus)
    V, S, h, r, objective = _evaluate(topo, z, W, va, vm)

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
            # a step with a non-finite component has a non-finite slope; a
            # zero gradient has a zero step, which stops the fit converged
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
            trial = _evaluate(topo, z, W, trial_va, trial_vm)
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
