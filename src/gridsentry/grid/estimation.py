"""Weighted-least-squares state estimation over the 39-sensor measurement model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from .case import GridCase, N_SENSORS, Topology, VOLT_OFFSET
from .powerflow import power_derivatives


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


def _measurement_model(topo: Topology, va: np.ndarray, vm: np.ndarray,
                       gen_offset: np.ndarray):
    """h(x) and its Jacobian w.r.t. [va(non-slack) | vm(all)].

    gen_offset is added to the power rows: the load at each generation
    sensor's bus, zero for the flow sensors.
    """
    V = vm * np.exp(1j * va)
    S, dS_dVa, dS_dVm = power_derivatives(topo.power_rows, topo.power_anchor, V)
    h = np.concatenate([S.real + gen_offset, vm])
    k, ns = len(S), len(topo.nonslack)
    H = np.zeros((N_SENSORS, ns + len(vm)))
    H[:k, :ns] = dS_dVa[:, topo.nonslack].real
    H[:k, ns:] = dS_dVm.real
    np.fill_diagonal(H[k:, ns:], 1.0)  # voltage sensors measure vm directly
    return h, H


def estimate_state(case: GridCase, values: np.ndarray, weights: np.ndarray,
                   gen_bus_loads: np.ndarray | None = None,
                   tol: float = 1e-10, max_iter: int = 30) -> StateEstimate:
    """Gauss-Newton WLS fit of (voltage magnitudes, angles) to one frame.

    values is the (39,) measurement frame and weights its per-sensor
    measurement variances. gen_bus_loads is the full 14-bus active load vector
    used to translate bus injections into generation sensor predictions;
    scenario data carries no load at generator buses, so the default is zeros.
    """
    n = case.n_bus
    z = np.asarray(values, dtype=float)
    if z.shape != (N_SENSORS,) or not np.all(np.isfinite(z)):
        raise ValueError(f"frame must have {N_SENSORS} finite values")
    weights = np.asarray(weights, dtype=float)
    if (weights.shape != (N_SENSORS,) or not np.all(np.isfinite(weights))
            or np.any(weights <= 0)):
        raise ValueError("weights must be 39 finite positive variances")
    gen_loads = (np.zeros(n) if gen_bus_loads is None
                 else np.asarray(gen_bus_loads, dtype=float))
    if gen_loads.shape != (n,) or not np.all(np.isfinite(gen_loads)):
        raise ValueError(f"gen_bus_loads must have {n} finite values")

    topo = case.topology
    nonslack = topo.nonslack
    gen_offset = np.zeros(len(topo.power_anchor))
    gen_offset[-len(topo.gen_order):] = gen_loads[topo.gen_order]
    W = 1.0 / weights

    # initialize magnitudes from the direct voltage sensors, angles flat
    vm = np.clip(z[VOLT_OFFSET:], 0.5, 1.5)
    va = np.zeros(n)

    converged = False
    iterations = 0
    h = np.zeros(N_SENSORS)
    for iterations in range(1, max_iter + 1):
        h, H = _measurement_model(topo, va, vm, gen_offset)
        r = z - h
        grad = H.T @ (W * r)
        G = H.T @ (W[:, None] * H)
        _, dx, info = dposv(G, grad)  # Cholesky factor-and-solve
        if info != 0:
            raise RankDeficientError("WLS gain matrix is rank deficient")
        va[nonslack] += dx[:len(nonslack)]
        vm += dx[len(nonslack):]
        if np.max(np.abs(dx)) < tol:
            # at a stationary point of the weighted SSR
            h, _ = _measurement_model(topo, va, vm, gen_offset)
            converged = True
            break

    r = z - h
    return StateEstimate(
        voltage_magnitude=vm, voltage_angle=va,
        predicted_measurements=h,
        objective=float(np.sum(W * r * r)),
        converged=converged, iterations=iterations)
