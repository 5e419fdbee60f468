"""Weighted-least-squares state estimation over the 39-sensor measurement model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from .case import GridCase, N_SENSORS, Topology, VOLT_OFFSET
from .powerflow import power_derivatives, sensor_function

# Gauss-Newton stops when no state component moves by TOL, or after MAX_ITER
TOL = 1e-10
MAX_ITER = 30


class RankDeficientError(RuntimeError):
    """The WLS gain matrix is rank deficient."""


@dataclass
class StateEstimate:
    voltage_magnitude: np.ndarray    # (14,)
    voltage_angle: np.ndarray        # (14,)
    predicted_measurements: np.ndarray  # (39,)
    objective: float                 # weighted sum of squared residuals
    converged: bool
    iterations: int


def _measurement_model(topo: Topology, va: np.ndarray, vm: np.ndarray):
    """h(x) and its Jacobian w.r.t. [va(non-slack) | vm(all)]."""
    V = vm * np.exp(1j * va)
    h, S = sensor_function(topo, V, vm)
    dS_dVa, dS_dVm = power_derivatives(topo.power_rows, topo.power_anchor,
                                       V, S)
    k, ns = len(S), len(topo.nonslack)
    H = np.zeros((N_SENSORS, ns + len(vm)))
    H[:k, :ns] = dS_dVa[:, topo.nonslack].real
    H[:k, ns:] = dS_dVm.real
    np.fill_diagonal(H[k:, ns:], 1.0)  # voltage sensors measure vm directly
    return h, H


def estimate_state(case: GridCase, values: np.ndarray,
                   weights: np.ndarray) -> StateEstimate:
    """Gauss-Newton WLS fit of (voltage magnitudes, angles) to one frame.

    values is the (39,) measurement frame and weights its per-sensor
    measurement variances. A generation sensor reads its bus's generation,
    which is the bus injection plus the bus load; scenario data puts load
    only on the load buses, so the generation rows predict the bare
    injection and carry no load term.
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
        r = z - h
        grad = H.T @ (W * r)
        G = H.T @ (W[:, None] * H)
        _, dx, info = dposv(G, grad)  # Cholesky factor-and-solve
        if info != 0:
            raise RankDeficientError("WLS gain matrix is rank deficient")
        va[nonslack] += dx[:len(nonslack)]
        vm += dx[len(nonslack):]
        if np.max(np.abs(dx)) < TOL:
            # at a stationary point of the weighted SSR
            h, _ = _measurement_model(topo, va, vm)
            converged = True
            break

    r = z - h
    return StateEstimate(
        voltage_magnitude=vm, voltage_angle=va,
        predicted_measurements=h,
        objective=float(np.sum(W * r * r)),
        converged=converged, iterations=iterations)
