"""Newton-Raphson AC power flow and sensor measurement generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case import GEN_OFFSET, GridCase, Topology, VOLT_OFFSET

# Newton-Raphson stops converged once the largest mismatch is below TOL pu,
# and unconverged after MAX_ITER steps
TOL = 1e-8
MAX_ITER = 20


@dataclass
class PowerFlowSolution:
    voltage_magnitude: np.ndarray  # (14,)
    voltage_angle: np.ndarray      # (14,) radians, slack at 0
    sensors: np.ndarray            # (39,) noiseless, in sensor-map order
    converged: bool
    iterations: int
    max_mismatch: float


def complex_power(M: np.ndarray, anchor: np.ndarray, V: np.ndarray):
    """S_k = V[anchor_k] * conj((M @ V)_k): the bus injections with M = Y and
    anchor = every bus, the sending-end flows with Yf rows at their from-bus."""
    return V[anchor] * np.conj(M @ V)


def power_derivatives(M: np.ndarray, anchor: np.ndarray, diag: np.ndarray,
                      V: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The block [dS/dVa | dS/dVm] of the caller's S = complex_power(M,
    anchor, V), by every bus angle and then every bus magnitude (MATPOWER's
    dSbus_dV and dSbr_dV); diag holds the flat positions k * n + anchor[k]
    (Topology's bus_diag and power_diag)."""
    Va = V[anchor]
    A = Va[:, None] * np.conj(M * V)  # V[anchor_k] * conj(M_kj V_j)
    dS_dVa = -1j * A
    dS_dVa.ravel()[diag] += 1j * S
    dS_dVm = A / np.abs(V)
    dS_dVm.ravel()[diag] += S / np.abs(Va)
    return np.concatenate([dS_dVa, dS_dVm], axis=1)


def sensor_function(topo: Topology, V: np.ndarray, vm: np.ndarray):
    """h(V) = [Re S over power_rows | vm], the 39 sensors at voltages V of
    magnitudes vm, with no load at the generation buses; and that S."""
    S = complex_power(topo.power_rows, topo.power_anchor, V)
    return np.concatenate([S.real, vm]), S


def _jacobian(topo: Topology, V: np.ndarray, S: np.ndarray) -> np.ndarray:
    """d[P(pvpq), Q(pq)] / d[Va(pvpq), Vm(pq)] at bus injections S."""
    dS = power_derivatives(topo.Y, topo.buses, topo.bus_diag, V, S)
    return dS.view(float).take(topo.jac_index)


def solve_power_flow(case: GridCase,
                     loads_p: np.ndarray,
                     loads_q: np.ndarray,
                     setpoints: np.ndarray,
                     warm_start: PowerFlowSolution | None = None
                     ) -> PowerFlowSolution:
    """Solve the AC power flow for one steady-state snapshot.

    loads_p/loads_q are full 14-bus demand vectors in pu; setpoints holds
    the active outputs of case.generator_buses. The slack bus absorbs the
    system imbalance plus losses. A failed solve (out of steps, or a
    singular Jacobian) is returned flagged at its last iterate, not raised.
    """
    n = case.n_bus
    loads_p = np.asarray(loads_p, dtype=float)
    loads_q = np.asarray(loads_q, dtype=float)
    if loads_p.shape != (n,) or loads_q.shape != (n,):
        raise ValueError(f"load vectors must have shape ({n},)")
    topo = case.topology
    if np.shape(setpoints) != topo.pv.shape:
        raise ValueError(f"setpoints must have shape {topo.pv.shape}")
    pq, pvpq, mis_index = topo.pq, topo.pvpq, topo.mis_index

    # scheduled injections (generation minus load) at the mismatch rows,
    # in the order of S.view(float).take(mis_index)
    p_sched = -loads_p
    p_sched[topo.pv] += setpoints
    sched = np.concatenate([p_sched[pvpq], -loads_q[pq]])

    if warm_start is not None and warm_start.converged:
        vm = warm_start.voltage_magnitude.copy()
        va = warm_start.voltage_angle.copy()
    else:
        vm = np.ones(n)
        va = np.zeros(n)
    vm[topo.fixed] = topo.fixed_vm
    va[topo.slack] = 0.0

    # the mismatch is checked before each Newton step and after the last one
    for iterations in range(MAX_ITER + 1):
        V = vm * np.exp(1j * va)
        S = complex_power(topo.Y, topo.buses, V)
        mis = sched - S.view(float).take(mis_index)
        max_mismatch = float(np.abs(mis).max())
        if max_mismatch < TOL or iterations == MAX_ITER:
            break
        try:
            dx = np.linalg.solve(_jacobian(topo, V, S), mis)
        except np.linalg.LinAlgError:  # singular: flagged as unconverged
            break
        va[pvpq] += dx[:len(pvpq)]
        vm[pq] += dx[len(pvpq):]
    converged = max_mismatch < TOL

    # a generation sensor reads the injection plus its bus's load
    sensors, _ = sensor_function(topo, V, vm)
    sensors[GEN_OFFSET:VOLT_OFFSET] += loads_p[topo.gen_order]

    return PowerFlowSolution(
        voltage_magnitude=vm, voltage_angle=va, sensors=sensors,
        converged=converged, iterations=iterations, max_mismatch=max_mismatch)


NOISE_FLOOR = 0.01  # signal magnitude below which sensor noise stops shrinking


def noise_scale(noiseless: np.ndarray, noise_sigma: float) -> np.ndarray:
    """Per-sensor noise std: proportional with a floor on the signal magnitude."""
    scale = np.abs(noiseless)
    np.maximum(scale, NOISE_FLOOR, out=scale)
    scale *= noise_sigma
    return scale


def measure(sensors: np.ndarray, noise_sigma: float,
            noise: np.ndarray) -> np.ndarray:
    """Noisy frames: the noiseless sensors (..., 39) of converged solves
    plus standard-normal draws `noise` of the same shape, each scaled by
    noise_scale; a new array, equal to the sensors at noise_sigma = 0."""
    noisy = noise_scale(sensors, noise_sigma)
    noisy *= noise
    noisy += sensors
    return noisy
