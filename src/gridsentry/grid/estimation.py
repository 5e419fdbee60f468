"""Weighted-least-squares state estimation over the 39-sensor measurement model:
the plain Gauss-Newton AC fit of one frame, and the fit of a frame stack
linearized at one point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case import GridCase, N_SENSORS, Topology, VOLT_OFFSET
from .powerflow import power_derivatives, sensor_function

# Gauss-Newton takes full steps. It stops converged when the decrement
# g^T dx of its step, the SSR decrease the full step predicts, is below
# DEC_TOL, and unconverged after MAX_ITER linearizations. The SSR is in
# units of noise variance, so at DEC_TOL each weighted residual is within
# about 1e-3 sigma of the minimum's.
DEC_TOL = 1e-6
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


def estimate_state(case: GridCase, values: np.ndarray,
                   weights: np.ndarray) -> StateEstimate:
    """Plain Gauss-Newton WLS fit of (voltage magnitudes, angles) to one
    frame (Abur & Exposito, Power System State Estimation, 2004, ch. 2-3).

    values is the (39,) measurement frame and weights its per-sensor
    measurement variances. A generation sensor reads its bus's generation,
    which is the bus injection plus the bus load; scenario data puts load
    only on the load buses, so the generation rows predict the bare
    injection and carry no load term. The fit starts from the clipped
    voltage sensors with flat angles, takes full steps, and returns the last
    point it linearized at: its state, predictions and objective.
    """
    topo = case.topology
    nonslack = topo.nonslack
    ns = len(nonslack)
    W = 1.0 / weights

    vm = np.clip(values[VOLT_OFFSET:], 0.5, 1.5)
    va = np.zeros(case.n_bus)
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        V, S, h, r, objective = _evaluate(topo, values, W, va, vm)
        H = _linearize(topo, V, S)
        HtW = H.T * W
        grad = HtW @ r
        try:
            dx = np.linalg.solve(HtW @ H, grad)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientError("WLS gain matrix is singular") from exc
        # a step with a non-finite component has a non-finite slope; a zero
        # gradient has a zero step, which stops the fit converged
        decrement = grad @ dx
        if not 0.0 <= decrement < np.inf:
            raise RankDeficientError(
                "WLS step is not a finite descent direction")
        if decrement < DEC_TOL:
            converged = True
            break
        if iterations == MAX_ITER:
            break
        va[nonslack] += dx[:ns]  # the slack's angle stays 0
        vm += dx[ns:]

    return StateEstimate(
        voltage_magnitude=vm, voltage_angle=va,
        predicted_measurements=h, objective=objective,
        converged=converged, iterations=iterations)
