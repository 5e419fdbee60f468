"""Weighted-least-squares state estimation over the 39-sensor measurement model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case import GridCase, N_SENSORS, Topology, VOLT_OFFSET
from .powerflow import power_derivatives, sensor_function

# Gauss-Newton stops at a stationary point, where the weighted gradient
# |H^T W r| is at most GRAD_TOL |H^T W z|, when no state component moves by
# TOL, or after MAX_ITER linearizations
GRAD_TOL = 1e-8
TOL = 1e-10
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


def _measurement_model(topo: Topology, va: np.ndarray, vm: np.ndarray):
    """h(x) and its Jacobian w.r.t. [va(non-slack) | vm(all)]."""
    V = vm * np.exp(1j * va)
    h, S = sensor_function(topo, V, vm)
    dS = np.concatenate(power_derivatives(topo.power_rows, topo.power_anchor,
                                          topo.power_diag, V, S), axis=1)
    H = np.concatenate([dS.view(float).take(topo.se_index),
                        topo.se_volt_rows])
    return h, H


def estimate_state(case: GridCase, values: np.ndarray,
                   weights: np.ndarray) -> StateEstimate:
    """Gauss-Newton WLS fit of (voltage magnitudes, angles) to one frame.

    values is the (39,) measurement frame and weights its per-sensor
    measurement variances. A generation sensor reads its bus's generation,
    which is the bus injection plus the bus load; scenario data puts load
    only on the load buses, so the generation rows predict the bare
    injection and carry no load term. The returned state, predictions and
    objective all belong to the last point reached.
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
    W = 1.0 / weights

    # initialize magnitudes from the direct voltage sensors, angles flat
    vm = np.clip(z[VOLT_OFFSET:], 0.5, 1.5)
    va = np.zeros(case.n_bus)

    converged = False
    for iterations in range(1, MAX_ITER + 1):
        h, H = _measurement_model(topo, va, vm)
        HtW = H.T * W
        grad = HtW @ (z - h)
        scale = HtW @ z
        if grad @ grad <= GRAD_TOL ** 2 * (scale @ scale):  # norms, squared
            converged = True
            break
        if iterations == MAX_ITER:
            break  # h and the objective are this state's; take no step
        try:
            dx = np.linalg.solve(HtW @ H, grad)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientError("WLS gain matrix is singular") from exc
        # a step with a non-finite component has a non-finite slope
        if not 0.0 < grad @ dx < np.inf:
            raise RankDeficientError(
                "WLS step is not a finite descent direction")
        va[nonslack] += dx[:len(nonslack)]
        vm += dx[len(nonslack):]
        if abs(dx).max() < TOL:
            h, _ = sensor_function(topo, vm * np.exp(1j * va), vm)
            converged = True
            break

    r = z - h
    return StateEstimate(
        voltage_magnitude=vm, voltage_angle=va,
        predicted_measurements=h,
        objective=float(np.sum(W * r * r)),
        converged=converged, iterations=iterations)
