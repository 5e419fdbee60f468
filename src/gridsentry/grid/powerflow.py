"""Newton-Raphson AC power flow and sensor measurement generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case import GridCase, N_SENSORS, Topology


class SingularJacobianError(RuntimeError):
    """The power-flow Jacobian became singular."""


@dataclass
class PowerFlowSolution:
    voltage_magnitude: np.ndarray  # (14,)
    voltage_angle: np.ndarray      # (14,) radians, slack at 0
    line_flow_active: np.ndarray   # (20,) sending-end convention
    generation_active: np.ndarray  # (5,) [slack, gen 2, 3, 6, 8]
    converged: bool
    iterations: int
    max_mismatch: float


def power_derivatives(M: np.ndarray, anchor: np.ndarray, V: np.ndarray):
    """Complex powers S_k = V[anchor_k] * conj((M @ V)_k) and dS/dVa, dS/dVm.

    With M = Y and anchor = every bus, S are the bus injections; with Yf rows
    anchored at their from-bus, the sending-end branch flows. Derivatives are
    with respect to every bus angle and magnitude (MATPOWER's dSbus_dV and
    dSbr_dV, in broadcast form).
    """
    Va = V[anchor]
    S = Va * np.conj(M @ V)
    A = Va[:, None] * np.conj(M * V)  # V[anchor_k] * conj(M_kj V_j)
    diag = (np.arange(len(anchor)), anchor)
    dS_dVa = -1j * A
    dS_dVa[diag] += 1j * S
    dS_dVm = A / np.abs(V)
    dS_dVm[diag] += S / np.abs(Va)
    return S, dS_dVa, dS_dVm


def _jacobian(topo: Topology, V: np.ndarray) -> np.ndarray:
    """d[P(pvpq), Q(pq)] / d[Va(pvpq), Vm(pq)] of the Newton-Raphson step."""
    _, dS_dVa, dS_dVm = power_derivatives(topo.Y, topo.buses, V)
    dS = np.hstack([dS_dVa[:, topo.pvpq], dS_dVm[:, topo.pq]])
    return np.vstack([dS[topo.pvpq].real, dS[topo.pq].imag])


def solve_power_flow(case: GridCase,
                     loads_p: np.ndarray,
                     loads_q: np.ndarray,
                     gen_setpoints: dict[int, float],
                     warm_start: PowerFlowSolution | None = None,
                     tol: float = 1e-8,
                     max_iter: int = 20) -> PowerFlowSolution:
    """Solve the AC power flow for one steady-state snapshot.

    loads_p/loads_q are full 14-bus demand vectors in pu; gen_setpoints maps
    generator bus id -> active setpoint. The slack bus absorbs the system
    imbalance plus losses. Non-convergence is returned as a flagged solution,
    not raised.
    """
    n = case.n_bus
    loads_p = np.asarray(loads_p, dtype=float)
    loads_q = np.asarray(loads_q, dtype=float)
    if loads_p.shape != (n,) or loads_q.shape != (n,):
        raise ValueError(f"load vectors must have shape ({n},)")

    topo = case.topology
    Y, pq, pvpq = topo.Y, topo.pq, topo.pvpq

    # scheduled injections (generation minus load)
    p_sched = -loads_p.copy()
    for bus_id, p in gen_setpoints.items():
        p_sched[bus_id - 1] += p
    q_sched = -loads_q.copy()

    vm = np.ones(n)
    va = np.zeros(n)
    if warm_start is not None and warm_start.converged:
        vm = warm_start.voltage_magnitude.copy()
        va = warm_start.voltage_angle.copy()
    for b in case.buses:
        if b.kind in ("slack", "generator"):
            vm[b.id - 1] = b.voltage_setpoint
    va[case.slack_bus - 1] = 0.0

    # the mismatch is checked before each Newton step and after the last one
    for iterations in range(max_iter + 1):
        V = vm * np.exp(1j * va)
        S = V * np.conj(Y @ V)
        mis = np.concatenate([p_sched[pvpq] - S.real[pvpq],
                              q_sched[pq] - S.imag[pq]])
        max_mismatch = float(np.max(np.abs(mis)))
        if max_mismatch < tol or iterations == max_iter:
            break
        try:
            dx = np.linalg.solve(_jacobian(topo, V), mis)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {iterations + 1}") from exc
        va[pvpq] += dx[:len(pvpq)]
        vm[pq] += dx[len(pvpq):]
    converged = max_mismatch < tol

    flows = (V[topo.from_bus] * np.conj(topo.Yf @ V)).real
    gen_p = S.real[topo.gen_order] + loads_p[topo.gen_order]

    return PowerFlowSolution(
        voltage_magnitude=vm, voltage_angle=va,
        line_flow_active=flows, generation_active=gen_p,
        converged=converged, iterations=iterations, max_mismatch=max_mismatch)


def sensor_values(case: GridCase, sol: PowerFlowSolution) -> np.ndarray:
    """Noiseless 39-sensor vector [20 line flows | 5 generations | 14 voltages]."""
    return np.concatenate([sol.line_flow_active, sol.generation_active,
                           sol.voltage_magnitude])


NOISE_FLOOR = 0.01  # signal magnitude below which sensor noise stops shrinking


def noise_scale(noiseless: np.ndarray, noise_sigma: float) -> np.ndarray:
    """Per-sensor noise std: proportional with a floor on the signal magnitude."""
    return noise_sigma * np.maximum(np.abs(noiseless), NOISE_FLOOR)


def measure(case: GridCase, sol: PowerFlowSolution, noise_sigma: float,
            rng: np.random.Generator) -> np.ndarray:
    """Sensor function plus i.i.d. zero-mean Gaussian noise."""
    if not sol.converged:
        raise ValueError("cannot measure a non-converged solution")
    clean = sensor_values(case, sol)
    if noise_sigma == 0:
        return clean
    return clean + rng.standard_normal(N_SENSORS) * noise_scale(clean, noise_sigma)
