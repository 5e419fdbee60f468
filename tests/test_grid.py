import dataclasses
import time

import numpy as np
import pytest
from scipy.optimize import bisect, fsolve

from gridsentry.dispatch import (DEFAULT_GENERATORS, plan_generation,
                                 synthesize_loads)
from gridsentry.grid import (Branch, Bus, CaseError, GridCase, N_SENSORS,
                             estimate_state, estimation, load_case, measure,
                             noise_scale, sensor_map, solve_power_flow)
from gridsentry.grid.case import GEN_OFFSET, VOLT_OFFSET
from gridsentry.grid.estimation import RankDeficientError
from gridsentry.grid.powerflow import (PowerFlowSolution, _jacobian,
                                      complex_power, power_derivatives,
                                      power_hessian, sensor_function)
from gridsentry.scenario import (GENERATOR_BUSES, KINDS, condition_name,
                                 generate_scenario, make_condition,
                                 simulate_nominal)
from gridsentry.scenario.generate import REACTIVE_RATIO
from oracles import chi_square_detect

# voltage magnitudes of the shipped base case, frozen from an independent
# root-finding solve (scipy fsolve on the complex mismatch equations)
BASE_CASE_VM_REF = np.array([
    1.060000, 1.045000, 1.010000, 1.026093, 1.032598, 1.070000, 1.044812,
    1.090000, 1.027631, 1.027543, 1.044943, 1.053017, 1.046234, 1.017433,
])

BASE_SETPOINTS = np.array([0.4, 0.0, 0.0, 0.0])  # GENERATOR_BUSES order


@pytest.fixture(scope="module")
def case():
    return load_case()


def base_loads(case):
    p = np.array([b.load_active for b in case.buses])
    q = np.array([b.load_reactive for b in case.buses])
    return p, q


def solve_base(case, **kw):
    p, q = base_loads(case)
    return solve_power_flow(case, p, q, BASE_SETPOINTS, **kw)


# ---------------------------------------------------------------- case loading

def test_load_case_shape(case):
    assert len(case.buses) == 14
    assert len(case.branches) == 20
    assert case.slack_bus == 1
    assert case.generator_buses == [2, 3, 6, 8]
    assert case.load_buses == [4, 5, 7, 9, 10, 11, 12, 13, 14]


def test_generator_orders_agree(case):
    # a setpoint vector is a plan row: its entries follow the plan's columns
    # (the fleet's order), GENERATOR_BUSES and the case's PV buses alike
    assert (tuple(s.bus for s in DEFAULT_GENERATORS) == GENERATOR_BUSES
            == tuple(case.generator_buses))


def open_case_text():
    from gridsentry.grid import DEFAULT_CASE
    return DEFAULT_CASE.read_text()


def test_load_case_wrong_bus_count(tmp_path):
    bad = "\n".join(ln for ln in open_case_text().splitlines()
                    if not ln.startswith("bus 14"))
    p = tmp_path / "bad.case"
    p.write_text(bad)
    with pytest.raises(CaseError):
        load_case(p)


def test_load_case_duplicate_bus(tmp_path):
    src = open_case_text()
    dup = src.replace("bus 14 load      -     0.149  0.050",
                      "bus 13 load      -     0.149  0.050")
    p = tmp_path / "dup.case"
    p.write_text(dup)
    with pytest.raises(CaseError):
        load_case(p)


def test_load_case_generator_buses(tmp_path):
    # every setpoint vector follows GENERATOR_BUSES, so a case with other
    # PV buses is refused
    p = tmp_path / "gen7.case"
    p.write_text(open_case_text().replace(
        "bus 7  load      -     0.000", "bus 7  generator 1.000 0.000"))
    with pytest.raises(CaseError, match=r"must be \[2, 3, 6, 8\], "
                                        r"got \[2, 3, 6, 7, 8\]"):
        load_case(p)


def test_load_case_missing_file(tmp_path):
    with pytest.raises(CaseError):
        load_case(tmp_path / "nope.case")


# ---------------------------------------------------------------- admittance

def toy_case(branches, n=2):
    buses = [Bus(1, "slack", 1.0, 0.0, 0.0)]
    buses += [Bus(i, "load", None, 0.0, 0.0) for i in range(2, n + 1)]
    return GridCase(tuple(buses), tuple(branches), 100.0)


def ref_admittance(case):
    """Bus admittance matrix from the branch pi-model, entry by entry."""
    n = case.n_bus
    Y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        f, t = br.from_bus - 1, br.to_bus - 1
        ys = 1.0 / complex(br.resistance, br.reactance)
        ysh = 0.5j * br.line_charging
        Y[f, f] += ys + ysh
        Y[t, t] += ys + ysh
        Y[f, t] -= ys
        Y[t, f] -= ys
    return Y


def test_admittance_single_branch():
    c = toy_case([Branch(1, 2, 0.0, 0.1, 0.0, 1.0)])
    Y = c.topology.Y
    assert Y[0, 1] == pytest.approx(-1.0 / 0.1j)
    assert Y[1, 0] == Y[0, 1]


def test_admittance_offdiag_count(case):
    Y = case.topology.Y
    iu = np.triu_indices(14, k=1)
    assert int(np.count_nonzero(Y[iu])) == 20


def test_admittance_no_shunt_rowsum(case):
    # zero line charging everywhere -> diagonal equals minus the off-diagonal sum
    flat = GridCase(case.buses,
                    tuple(Branch(b.from_bus, b.to_bus, b.resistance, b.reactance,
                                 0.0, b.flow_limit) for b in case.branches),
                    case.base_power)
    Y = flat.topology.Y
    off = Y - np.diag(np.diag(Y))
    np.testing.assert_allclose(np.diag(Y), -off.sum(axis=1), atol=1e-12)


def test_admittance_symmetric(case):
    Y = case.topology.Y
    np.testing.assert_allclose(Y, Y.T)


def test_topology_matches_case(case):
    topo = case.topology
    assert topo is case.topology
    assert np.array_equal(topo.Y, ref_admittance(case))
    gen_sensors = [int(e) for _, kind, e in sensor_map(case)
                   if kind == "generation"]
    assert (topo.gen_order + 1).tolist() == gen_sensors
    assert (topo.power_anchor + 1).tolist() == (
        [br.from_bus for br in case.branches] + gen_sensors)
    # the power flow's fixed-voltage buses are the slack and the generators,
    # pinned to their setpoints
    assert (topo.fixed + 1).tolist() == [case.slack_bus] + case.generator_buses
    assert topo.fixed_vm.tolist() == [case.buses[i].voltage_setpoint
                                      for i in topo.fixed]
    assert topo.slack + 1 == case.slack_bus
    n = case.n_bus
    assert topo.jac_index.shape == (2 * n - 2 - len(case.generator_buses),) * 2
    for name, value in vars(topo).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name


# ---------------------------------------------------------------- power flow

def test_zero_injection_fixed_point(case):
    # uniform setpoints and no line charging: otherwise shunt injections and
    # the setpoint spread circulate power and line flows are not exactly zero
    flat = GridCase(tuple(Bus(b.id, b.kind,
                              1.0 if b.voltage_setpoint is not None else None,
                              0.0, 0.0) for b in case.buses),
                    tuple(Branch(b.from_bus, b.to_bus, b.resistance, b.reactance,
                                 0.0, b.flow_limit) for b in case.branches),
                    case.base_power)
    z = np.zeros(14)
    sol = solve_power_flow(flat, z, z, np.zeros(4))
    assert sol.converged
    # line flows and generations
    np.testing.assert_allclose(sol.sensors[:VOLT_OFFSET], 0.0, atol=1e-9)
    np.testing.assert_allclose(sol.voltage_magnitude, 1.0, atol=1e-9)


def test_base_case_against_reference(case):
    t0 = time.perf_counter()
    sol = solve_base(case)
    dt = time.perf_counter() - t0
    assert sol.converged
    assert sol.iterations <= 10
    assert sol.max_mismatch < 1e-8
    assert dt < 0.050
    np.testing.assert_allclose(sol.voltage_magnitude, BASE_CASE_VM_REF, atol=1e-4)


def test_base_case_against_live_oracle(case):
    """Independent oracle: hybrid-Powell root finding on the mismatch equations."""
    sol = solve_base(case)
    p, q = base_loads(case)
    Y = case.topology.Y
    pv = [b - 1 for b in case.generator_buses]
    pq = [b - 1 for b in case.load_buses]
    psched = -p.copy()
    psched[pv] += BASE_SETPOINTS
    vset = {b.id - 1: b.voltage_setpoint for b in case.buses if b.voltage_setpoint}

    def resid(x):
        va = np.zeros(14)
        vm = np.ones(14)
        va[1:] = x[:13]
        vm[pq] = x[13:]
        for i, v in vset.items():
            vm[i] = v
        V = vm * np.exp(1j * va)
        S = V * np.conj(Y @ V)
        return np.concatenate([psched[pv + pq] - S.real[pv + pq],
                               -q[pq] - S.imag[pq]])

    x0 = np.concatenate([np.zeros(13), np.ones(len(pq))])
    xs, _, ier, _ = fsolve(resid, x0, full_output=True, xtol=1e-13)
    assert ier == 1
    vm_ref = np.ones(14)
    vm_ref[pq] = xs[13:]
    for i, v in vset.items():
        vm_ref[i] = v
    np.testing.assert_allclose(sol.voltage_magnitude, vm_ref, atol=1e-4)


def test_two_bus_against_bisection_oracle():
    """Slack + one load bus over a lossless line, zero reactive load.

    Eliminating v2 via the reactive balance (v2 = v1*cos(theta2)) gives the
    scalar equation (v1^2 / 2) sin(2*theta2) + P * x = 0, solved by bisection.
    """
    x_line = 0.3
    p_load = 0.5
    c = toy_case([Branch(1, 2, 0.0, x_line, 0.0, 2.0)])
    sol = solve_power_flow(c, np.array([0.0, p_load]), np.zeros(2), np.zeros(0),
                           tol=1e-12)
    assert sol.converged

    f = lambda th: 0.5 * np.sin(2 * th) + p_load * x_line
    th2 = bisect(f, -np.pi / 4, 0.0, xtol=1e-14)
    v2 = np.cos(th2)
    assert sol.voltage_angle[1] == pytest.approx(th2, abs=1e-10)
    assert sol.voltage_magnitude[1] == pytest.approx(v2, abs=1e-10)


def test_power_balance_invariant(case):
    sol = solve_base(case)
    p, q = base_loads(case)
    Y = case.topology.Y
    V = sol.voltage_magnitude * np.exp(1j * sol.voltage_angle)
    inj = (V * np.conj(Y @ V)).real
    gen = np.zeros(14)
    gen[[b - 1 for b in GENERATOR_BUSES]] = BASE_SETPOINTS
    gen[0] = sol.sensors[GEN_OFFSET] - p[0]
    np.testing.assert_allclose(inj[1:], (gen - p)[1:], atol=1e-6)


def test_slack_absorption(case):
    sol = solve_base(case)
    p, _ = base_loads(case)
    Y = case.topology.Y
    V = sol.voltage_magnitude * np.exp(1j * sol.voltage_angle)
    losses = float(np.sum((V * np.conj(Y @ V)).real))
    total_gen = float(np.sum(sol.sensors[GEN_OFFSET:VOLT_OFFSET]))
    assert total_gen - np.sum(p) - losses == pytest.approx(0.0, abs=1e-6)


def test_warm_start_same_fixed_point(case):
    cold = solve_base(case)
    p, q = base_loads(case)
    warm = solve_power_flow(case, p * 1.01, q * 1.01, BASE_SETPOINTS,
                            warm_start=cold)
    cold2 = solve_power_flow(case, p * 1.01, q * 1.01, BASE_SETPOINTS)
    assert warm.converged and cold2.converged
    np.testing.assert_allclose(warm.voltage_magnitude, cold2.voltage_magnitude,
                               atol=1e-8)
    assert warm.iterations <= cold2.iterations


def test_solver_refuses_misshapen_inputs(case):
    p, q = base_loads(case)
    with pytest.raises(ValueError, match=r"setpoints must have shape \(4,\)"):
        solve_power_flow(case, p, q, BASE_SETPOINTS[:3])
    with pytest.raises(ValueError, match=r"load vectors must have shape"):
        solve_power_flow(case, p[:13], q, BASE_SETPOINTS)


def test_nonconvergence_is_flagged(case):
    # absurd load forces divergence or iteration exhaustion, never a crash
    p = np.full(14, 5.0)
    q = np.full(14, 2.0)
    sol = solve_power_flow(case, p, q, BASE_SETPOINTS, max_iter=5)
    assert not sol.converged


def test_singular_jacobian_is_flagged():
    # bus 3 lies on no branch, so its Jacobian rows are zero from the first
    # Newton step: the solve ends unconverged at its starting iterate
    c = toy_case([Branch(1, 2, 0.01, 0.1, 0.0, 2.0)], n=3)
    p = np.array([0.0, 0.5, 0.2])
    sol = solve_power_flow(c, p, 0.5 * p, np.zeros(0))
    assert not sol.converged and sol.iterations == 0
    assert sol.max_mismatch == 0.5
    np.testing.assert_array_equal(sol.voltage_magnitude, 1.0)
    np.testing.assert_array_equal(sol.voltage_angle, 0.0)
    assert np.isfinite(sol.sensors).all()


# ---------------------------------------------------------------- reference forms
# The solver must return the same bits as these plain forms of the same
# Newton-Raphson step: a Jacobian stacked from fancy-indexed blocks, a
# mismatch gathered piece by piece and a loop pinning the fixed voltages.

def ref_jacobian(topo, V):
    S = V * np.conj(topo.Y @ V)
    dS_dVa, dS_dVm = power_derivatives(topo.Y, topo.buses, topo.bus_diag,
                                       V, S)
    dS = np.hstack([dS_dVa[:, topo.pvpq], dS_dVm[:, topo.pq]])
    return np.vstack([dS[topo.pvpq].real, dS[topo.pq].imag])


def ref_solve(case, loads_p, loads_q, setpoints, warm_start=None,
              tol=1e-8, max_iter=20):
    n = case.n_bus
    topo = case.topology
    Y, pq, pvpq = topo.Y, topo.pq, topo.pvpq
    p_sched = -loads_p.copy()
    for bus_id, p in zip(case.generator_buses, setpoints):
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
    for iterations in range(max_iter + 1):
        V = vm * np.exp(1j * va)
        S = V * np.conj(Y @ V)
        mis = np.concatenate([p_sched[pvpq] - S.real[pvpq],
                              q_sched[pq] - S.imag[pq]])
        max_mismatch = float(np.max(np.abs(mis)))
        if max_mismatch < tol or iterations == max_iter:
            break
        dx = np.linalg.solve(ref_jacobian(topo, V), mis)
        va[pvpq] += dx[:len(pvpq)]
        vm[pq] += dx[len(pvpq):]
    flows = (V[topo.from_bus] * np.conj(topo.Yf @ V)).real
    gen_p = S.real[topo.gen_order] + loads_p[topo.gen_order]
    return PowerFlowSolution(
        voltage_magnitude=vm, voltage_angle=va,
        sensors=np.concatenate([flows, gen_p, vm]),
        converged=max_mismatch < tol, iterations=iterations,
        max_mismatch=max_mismatch)


def assert_same_solution(sol, ref):
    for name in ("voltage_magnitude", "voltage_angle", "sensors"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
    assert sol.iterations == ref.iterations
    assert sol.max_mismatch == ref.max_mismatch
    assert sol.converged == ref.converged


@pytest.fixture(scope="module")
def load_chain(case):
    """(lp, lq, setpoints) of 24 dispatched hours, as the hour loop builds
    them."""
    loads = synthesize_loads((90, 110), 24, np.random.default_rng(8))
    plan = plan_generation(loads)
    out = []
    for t in range(loads.horizon):
        lp = np.zeros(case.n_bus)
        lp[[b - 1 for b in case.load_buses]] = loads.demand[t]
        out.append((lp, lp * REACTIVE_RATIO, plan.setpoint[t]))
    return out


def test_cold_solves_match_reference_form(case, load_chain):
    p, q = base_loads(case)
    inputs = [(p, q, BASE_SETPOINTS)] + load_chain[::6]
    for lp, lq, setp in inputs:
        sol = solve_power_flow(case, lp, lq, setp)
        assert sol.converged
        assert_same_solution(sol, ref_solve(case, lp, lq, setp))


def test_warm_solves_match_reference_form(case, load_chain):
    # each side warm-starts from its own previous hour
    rng = np.random.default_rng(9)
    warm = warm_ref = None
    for lp, lq, setp in load_chain:
        scale = 1.0 + rng.normal(0.0, 0.02, case.n_bus)
        lp, lq = lp * scale, lq * scale
        sol = solve_power_flow(case, lp, lq, setp, warm_start=warm)
        ref = ref_solve(case, lp, lq, setp, warm_start=warm_ref)
        assert sol.converged
        assert_same_solution(sol, ref)
        warm, warm_ref = sol, ref


def test_attacker_nominal_solve_matches_reference_form(case, load_chain):
    # the attacker's template, on the true model and on a perturbed one
    perturbed = GridCase(case.buses,
                         tuple(Branch(b.from_bus, b.to_bus, b.resistance,
                                      b.reactance * 1.05, b.line_charging,
                                      b.flow_limit) for b in case.branches),
                         case.base_power)
    for model in (case, perturbed):
        warm = warm_ref = None
        for lp, lq, setp in load_chain[:6]:
            sol = simulate_nominal(model, lp, lq, setp, warm_start=warm)
            ref = ref_solve(model, lp, lq, setp, warm_start=warm_ref)
            assert_same_solution(sol, ref)
            warm, warm_ref = sol, ref


def test_scenario_hour_sensors_are_the_estimators_model(case, load_chain):
    # scenario hours put no load at the generation buses, so the power flow's
    # sensors are the estimator's h at the solved state, bit for bit
    for lp, lq, setp in load_chain[::6]:
        sol = solve_power_flow(case, lp, lq, setp)
        assert sol.converged
        h = model_at(case.topology, sol.voltage_angle,
                     sol.voltage_magnitude)[0]
        assert np.array_equal(h, sol.sensors)


def test_exhausted_solve_matches_reference_form(case):
    # too few Newton steps for a heavy load: flagged, and the same flag,
    # mismatch and state as the reference
    p, q = base_loads(case)
    for max_iter in (0, 1, 2):
        sol = solve_power_flow(case, 2 * p, 2 * q, BASE_SETPOINTS,
                               max_iter=max_iter)
        ref = ref_solve(case, 2 * p, 2 * q, BASE_SETPOINTS, max_iter=max_iter)
        assert not sol.converged and sol.iterations == max_iter
        assert_same_solution(sol, ref)


# ---------------------------------------------------------------- measurement

def test_measure_zero_noise_identity(case):
    sol = solve_base(case)
    rng = np.random.default_rng(0)
    frame = measure(sol.sensors, 0.0, rng.standard_normal(N_SENSORS))
    np.testing.assert_array_equal(frame, sol.sensors)
    assert frame.shape == (N_SENSORS,)
    # a new array: writing into the frame leaves the solution's sensors be
    assert not np.shares_memory(frame, sol.sensors)
    sensors = sol.sensors.copy()
    frame[:] = -1.0
    np.testing.assert_array_equal(sol.sensors, sensors)


def test_measure_noise_std(case):
    # one stacked call measures every frame of the sample
    sol = solve_base(case)
    rng = np.random.default_rng(7)
    clean = np.tile(sol.sensors, (10_000, 1))
    draws = measure(clean, 0.01, rng.standard_normal(clean.shape))
    assert draws.shape == clean.shape
    expected = 0.01 * np.maximum(np.abs(sol.sensors), 0.01)
    sample = draws.std(axis=0)
    np.testing.assert_allclose(sample, expected, rtol=0.05)


def test_measure_deterministic(case):
    # a stacked call gives each row the bits of its own one-row call
    sol = solve_base(case)
    noise = np.random.default_rng(42).standard_normal((3, N_SENSORS))
    clean = sol.sensors * np.array([[1.0], [0.5], [-2.0]])
    stacked = measure(clean, 0.01, noise)
    for row in range(3):
        alone = measure(clean[row], 0.01, noise[row])
        assert np.array_equal(stacked[row].view(np.uint64),
                              alone.view(np.uint64))


def test_sensor_map(case):
    rows = sensor_map(case)
    assert len(rows) == 39
    kinds = [k for _, k, _ in rows]
    assert kinds.count("flow") == 20
    assert kinds.count("generation") == 5
    assert kinds.count("voltage") == 14


# ---------------------------------------------------------------- estimation

def model_at(topo, va, vm):
    """The estimator's h and its Jacobian at the state (va, vm)."""
    V = vm * np.exp(1j * va)
    h, S = sensor_function(topo, V, vm)
    return h, estimation._linearize(topo, V, S)


def newton_system(topo, frame, w, va, vm):
    """At the state (va, vm): h, the weighted gradient g = H^T W r, the
    gain G = H^T W H, and the SSR's halved Hessian G - sum_i (W r)_i d2h_i."""
    h, H = model_at(topo, va, vm)
    HtW = H.T / w
    gain = HtW @ H
    Wr = (frame - h) / w
    rows = len(topo.power_anchor)
    curvature = power_hessian(topo.power_rows, topo.power_anchor,
                              vm * np.exp(1j * va), Wr[:rows])
    return (h, HtW @ (frame - h), gain,
            gain - curvature.take(topo.se_hessian_index))


def solve_gen_free_base(case):
    """The base case with no load at the generation sensors' buses, as in
    scenario data: estimate_state's generation rows carry no load term."""
    p, q = base_loads(case)
    gen = np.array(case.generation_buses) - 1
    p[gen] = q[gen] = 0.0
    return solve_power_flow(case, p, q, BASE_SETPOINTS)


def se_weights(sol, sigma=0.01):
    clean = sol.sensors
    std = sigma * np.maximum(np.abs(clean), 0.01)
    return std ** 2


def test_se_recovers_exact_data(case):
    sol = solve_gen_free_base(case)
    frame = measure(sol.sensors, 0.0,
                    np.random.default_rng(0).standard_normal(N_SENSORS))
    est = estimate_state(case, frame, se_weights(sol))
    assert est.converged
    np.testing.assert_allclose(est.voltage_magnitude, sol.voltage_magnitude,
                               atol=1e-6)
    np.testing.assert_allclose(est.voltage_angle, sol.voltage_angle, atol=1e-6)
    assert est.objective == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(est.predicted_measurements, frame, atol=1e-8)


def test_se_exact_fit_at_the_cold_start_converges_at_once(case):
    # a frame that is the estimator's own prediction at its cold start
    # (the clipped voltage sensors, flat angles) has r = 0 and g = 0
    # exactly: its zero step's decrement of 0 stops the fit converged
    topo = case.topology
    vm = solve_gen_free_base(case).voltage_magnitude
    va = np.zeros(case.n_bus)
    frame, _ = model_at(topo, va, vm)
    assert np.array_equal(np.clip(frame[VOLT_OFFSET:], 0.5, 1.5), vm)
    est = estimate_state(case, frame, noise_scale(frame, 0.10) ** 2)
    assert est.converged and est.iterations == 1
    assert est.objective == 0.0
    assert np.array_equal(est.predicted_measurements, frame)
    assert np.array_equal(est.voltage_angle, va)
    assert np.array_equal(est.voltage_magnitude, vm)


def test_se_noisy_residual_mean(case):
    sol = solve_gen_free_base(case)
    w = se_weights(sol)
    rng = np.random.default_rng(3)
    res = []
    for _ in range(1000):
        frame = measure(sol.sensors, 0.01, rng.standard_normal(N_SENSORS))
        est = estimate_state(case, frame, w)
        assert est.objective > 0
        res.append(frame - est.predicted_measurements)
    res = np.asarray(res)
    # residual mean per sensor is near zero relative to the noise scale
    std = np.sqrt(w)
    assert np.max(np.abs(res.mean(axis=0)) / std) < 0.2


def test_se_gross_error_objective(case):
    sol = solve_gen_free_base(case)
    w = se_weights(sol)
    rng = np.random.default_rng(4)
    normal_obj = []
    for _ in range(200):
        frame = measure(sol.sensors, 0.01, rng.standard_normal(N_SENSORS))
        normal_obj.append(estimate_state(case, frame, w).objective)
    frame = measure(sol.sensors, 0.01, rng.standard_normal(N_SENSORS))
    frame[5] += 1.0
    bad = estimate_state(case, frame, w)
    assert bad.objective > np.percentile(normal_obj, 99)


def test_se_bad_inputs(case):
    sol = solve_base(case)
    frame = measure(sol.sensors, 0.0,
                    np.random.default_rng(0).standard_normal(N_SENSORS))
    ok = se_weights(sol)
    with pytest.raises(ValueError):
        estimate_state(case, frame, np.zeros(39))
    with pytest.raises(ValueError):
        estimate_state(case, np.zeros(5), np.ones(39))
    nan_frame = frame.copy()
    nan_frame[3] = np.nan
    with pytest.raises(ValueError):
        estimate_state(case, nan_frame, ok)
    for bad in (np.nan, np.inf):
        w = ok.copy()
        w[7] = bad
        with pytest.raises(ValueError):
            estimate_state(case, frame, w)


def test_se_singular_gain_is_rank_deficient(case, monkeypatch):
    sol = solve_gen_free_base(case)
    frame = measure(sol.sensors, 0.0,
                    np.random.default_rng(0).standard_normal(N_SENSORS))
    linearize = estimation._linearize

    def blind(topo, V, S):
        H = linearize(topo, V, S)
        H[:, 3] = 0.0  # no sensor sees one bus angle
        return H

    monkeypatch.setattr(estimation, "_linearize", blind)
    with pytest.raises(RankDeficientError, match="singular"):
        estimate_state(case, frame, se_weights(sol))


@pytest.mark.parametrize("step", [
    lambda G, g: np.full_like(g, np.nan),
    lambda G, g: np.where(np.arange(len(g)) == 5, -np.inf, g),
    lambda G, g: -g,  # uphill
], ids=["nan", "one-inf", "ascent"])
def test_se_bad_step_is_rank_deficient(case, monkeypatch, step):
    # a solve of a near-singular gain can return a step that is not finite
    # or does not descend; the estimator refuses it rather than taking it
    sol = solve_gen_free_base(case)
    frame = measure(sol.sensors, 0.0,
                    np.random.default_rng(0).standard_normal(N_SENSORS))
    monkeypatch.setattr(np.linalg, "solve", step)
    with pytest.raises(RankDeficientError, match="descent"):
        estimate_state(case, frame, se_weights(sol))


# ------------------------------------------- derivatives in the sigma=0.10 regime

def sigma10_series_estimates(case, condition, hours):
    """(frame, weights, estimate) per hour of a series at sigma = 0.10 under
    `condition` (None: normal) over every hour, on the loads of seed 5, with
    weights taken from the noisy values as the SE_DNN variant does."""
    loads = synthesize_loads((90, 110), hours, np.random.default_rng(5))
    series = generate_scenario(case, plan_generation(loads), loads, condition,
                               noise_sigma=0.10, seed=5)
    weights = [noise_scale(frame, 0.10) ** 2 for frame in series.values]
    return [(frame, w, estimate_state(case, frame, w))
            for frame, w in zip(series.values, weights)]


@pytest.fixture(scope="module")
def sigma10_estimates(case):
    return sigma10_series_estimates(case, None, 24)


def central_difference(f, x, eps=1e-6):
    cols = []
    for j in range(len(x)):
        step = np.zeros_like(x)
        step[j] = eps
        cols.append((f(x + step) - f(x - step)) / (2 * eps))
    return np.stack(cols, axis=1)


def states(case, estimates):
    """The estimator's state at a sigma = 0.10 frame, and a random perturbation."""
    est = estimates[0][2]
    rng = np.random.default_rng(11)
    va = est.voltage_angle + rng.normal(0.0, 0.05, case.n_bus)
    va[case.slack_bus - 1] = 0.0
    vm = est.voltage_magnitude + rng.normal(0.0, 0.02, case.n_bus)
    return [(est.voltage_angle, est.voltage_magnitude), (va, vm)]


def test_se_jacobian_finite_difference(case, sigma10_estimates):
    topo = case.topology
    ns = len(topo.nonslack)

    for va0, vm0 in states(case, sigma10_estimates):
        def h_of(x):
            va = va0.copy()
            va[topo.nonslack] = x[:ns]
            return model_at(topo, va, x[ns:])[0]

        x0 = np.concatenate([va0[topo.nonslack], vm0])
        H = model_at(topo, va0, vm0)[1]
        assert H.shape == (N_SENSORS, 27)
        H_fd = central_difference(h_of, x0)
        assert np.linalg.norm(H - H_fd) <= 1e-6 * np.linalg.norm(H)


def test_power_hessian_finite_difference(case, sigma10_estimates):
    # the Hessian of lam^T Re S by [va | vm] of every bus, against central
    # differences of lam^T Re S itself, for a random lam and for the
    # weighted residual W r over the power rows that a Newton step uses
    topo = case.topology
    n, rows = case.n_bus, len(topo.power_anchor)
    frame, w, _ = sigma10_estimates[0]
    for va0, vm0 in states(case, sigma10_estimates):
        h, _ = model_at(topo, va0, vm0)
        for lam in (np.random.default_rng(12).normal(size=rows),
                    ((frame - h) / w)[:rows]):
            def f(x):  # as a (1,) array
                V = x[n:] * np.exp(1j * x[:n])
                S = complex_power(topo.power_rows, topo.power_anchor, V)
                return lam[None] @ S.real

            x0 = np.concatenate([va0, vm0])
            hess = power_hessian(topo.power_rows, topo.power_anchor,
                                 vm0 * np.exp(1j * va0), lam)
            assert hess.shape == (2 * n, 2 * n)
            hess_fd = central_difference(
                lambda x: central_difference(f, x, eps=1e-4)[0], x0, eps=1e-4)
            error = np.linalg.norm(hess - hess_fd)
            assert error <= 1e-6 * np.linalg.norm(hess)


def test_powerflow_jacobian_finite_difference(case, sigma10_estimates):
    topo = case.topology
    pvpq, pq = topo.pvpq, topo.pq

    for va0, vm0 in states(case, sigma10_estimates):
        def mismatch(x):
            va, vm = va0.copy(), vm0.copy()
            va[pvpq] = x[:len(pvpq)]
            vm[pq] = x[len(pvpq):]
            V = vm * np.exp(1j * va)
            S = V * np.conj(topo.Y @ V)
            return np.concatenate([S.real[pvpq], S.imag[pq]])

        x0 = np.concatenate([va0[pvpq], vm0[pq]])
        V = vm0 * np.exp(1j * va0)
        J = _jacobian(topo, V, V * np.conj(topo.Y @ V))
        J_fd = central_difference(mismatch, x0)
        assert np.linalg.norm(J - J_fd) <= 1e-6 * np.linalg.norm(J)


def test_powerflow_jacobian_matches_reference_form(case, sigma10_estimates):
    topo = case.topology
    for va0, vm0 in states(case, sigma10_estimates):
        V = vm0 * np.exp(1j * va0)
        J = _jacobian(topo, V, V * np.conj(topo.Y @ V))
        assert J.flags.c_contiguous
        assert np.array_equal(J, ref_jacobian(topo, V))


def test_se_converged_frame_meets_the_decrement_rule(case,
                                                    sigma10_estimates):
    # every converged frame meets the one stop rule at the state it
    # returns: the decrement of its step is below DEC_TOL, a Newton step's
    # only where the SSR's Hessian is positive definite, so that the point
    # is a minimum
    converged = [e for e in sigma10_estimates if e[2].converged]
    # measured: 22 of the 24 frames converge in 5-27 linearizations, all 22
    # on the Newton decrement at a positive definite Hessian
    assert len(converged) >= 22
    stops = []
    for frame, w, est in converged:
        h, grad, gain, hessian = newton_system(
            case.topology, frame, w, est.voltage_angle, est.voltage_magnitude)
        np.testing.assert_array_equal(h, est.predicted_measurements)
        decrement = grad @ np.linalg.solve(hessian, grad)
        if (0.0 < decrement < estimation.DEC_TOL
                and np.linalg.eigvalsh(hessian).min() > 0.0):
            stops.append("newton")
            continue
        assert grad @ np.linalg.solve(gain, grad) < estimation.DEC_TOL
        stops.append("gauss-newton")
    print({rule: stops.count(rule) for rule in set(stops)})
    assert stops.count("newton") >= 17


def test_se_converges_on_attacked_frames(case):
    # a level-5 covert attack on bus 2 over every hour of sigma10_estimates'
    # loads; measured: all 24 frames converge
    loads = synthesize_loads((90, 110), 24, np.random.default_rng(5))
    attack = make_condition(case, "attack", 2, 5, 0, 24)
    series = generate_scenario(case, plan_generation(loads), loads, attack,
                               noise_sigma=0.10, seed=5)
    assert set(series.labels) == {"attack_2"}
    converged = sum(
        estimate_state(case, frame, noise_scale(frame, 0.10) ** 2).converged
        for frame in series.values)
    assert converged >= 24


@pytest.fixture(scope="module")
def normal_240h_estimates(case):
    return sigma10_series_estimates(case, None, 240)


def test_se_objective_is_plausible_for_chi_square(normal_240h_estimates):
    # on converged normal frames the weighted SSR should look like chi2(12),
    # 39 sensors less 27 states: median 11.34, 90th percentile 18.55.
    # Measured on this 240-h series: 233 of 240 frames converge, at median
    # 10.56 and 90th percentile 17.23. The tolerances cover a quantile's
    # sampling error over ~200 frames (about 0.45 and 1.1), the converged
    # frames' selection (they leave out the frames hardest to fit) and the
    # weights taken from noisy values.
    objectives = [est.objective for *_, est in normal_240h_estimates
                  if est.converged]
    assert len(objectives) >= 233
    assert np.median(objectives) == pytest.approx(11.34, abs=2.0)
    assert np.percentile(objectives, 90) == pytest.approx(18.55, abs=4.0)


def chi_square_components(topo, frame, w, est):
    """The 12 standardized residual components of an estimate: sqrt(W) r
    projected on the orthogonal complement of the columns of sqrt(W) H. At
    a stationary point their squares sum to the objective; under Gaussian
    noise they are about N(0, 1)."""
    h, H = model_at(topo, est.voltage_angle, est.voltage_magnitude)
    s = 1.0 / np.sqrt(w)
    Q, _ = np.linalg.qr(s[:, None] * H, mode="complete")
    return Q[:, H.shape[1]:].T @ (s * (frame - h))


def test_chi_square_on_wls_flags_the_bus2_attack(case, normal_240h_estimates):
    # the classical model-based detector: chi2(12) at alpha = 0.01 on the
    # converged WLS objectives at sigma = 0.10, on the 240-h normal series
    # and on 48-h series under each level-5 condition over every hour.
    # Measured alarm rates: normal 0 of 233 converged frames (pooled over
    # six more 240-h series, seeds 6-11: 14 of 1,393, 0.0101); attack_2 1.0;
    # every other condition 0 to 0.021: a fault is physically consistent,
    # and the attacks on buses 3, 6 and 8 go unseen too. A normal rate
    # within 0.02 of alpha covers three binomial standard errors over ~230
    # frames (0.0065 each).
    alpha = 0.01
    frames = {"normal": normal_240h_estimates}
    for kind in KINDS:
        for bus in GENERATOR_BUSES:
            frames[condition_name(kind, bus)] = sigma10_series_estimates(
                case, make_condition(case, kind, bus, 5, 0, 48), 48)
    rates = {}
    for label, estimates in frames.items():
        converged = [e for e in estimates if e[2].converged]
        components = np.array([chi_square_components(case.topology, *e)
                               for e in converged])
        assert components.shape == (len(converged), 12)
        np.testing.assert_allclose((components ** 2).sum(axis=1),
                                   [est.objective for *_, est in converged],
                                   rtol=0, atol=1e-5)
        rates[label] = chi_square_detect(components, window=1,
                                         alpha=alpha).mean()
    print({label: round(rate, 4) for label, rate in rates.items()})
    assert abs(rates["normal"] - alpha) <= 0.02
    assert rates["attack_2"] >= 0.9


def traced_estimate(monkeypatch, case, frame, w, raise_from=None):
    """estimate_state on one frame, with the (va, vm) of each point it
    evaluated, the SSR of each point it linearized at, and the decrement of
    each Newton step it solved for by linearization number (None if
    refused). From evaluation number `raise_from` on, every point reads an
    infinite SSR."""
    evaluate, linearize = estimation._evaluate, estimation._linearize
    newton_step = estimation._newton_step
    evaluated, linearized, newton = [], [], {}

    def evaluate_traced(topo, z, W, va, vm):
        V, S, h, r, ssr = evaluate(topo, z, W, va, vm)
        if raise_from is not None and len(evaluated) >= raise_from:
            ssr = np.inf
        evaluated.append((va.copy(), vm.copy(), V, ssr))
        return V, S, h, r, ssr

    def linearize_traced(topo, V, S):
        linearized.append(next(
            (ssr, i) for i, (*_, V_i, ssr) in enumerate(evaluated)
            if V_i is V))
        return linearize(topo, V, S)

    def newton_step_traced(*args):
        step = newton_step(*args)
        newton[len(linearized) - 1] = None if step is None else step[1]
        return step

    monkeypatch.setattr(estimation, "_evaluate", evaluate_traced)
    monkeypatch.setattr(estimation, "_linearize", linearize_traced)
    monkeypatch.setattr(estimation, "_newton_step", newton_step_traced)
    est = estimate_state(case, frame, w)
    monkeypatch.undo()
    return est, evaluated, linearized, newton


def test_se_cold_start_and_descent(case, sigma10_estimates, monkeypatch):
    # every frame starts from its clipped voltage sensors with flat angles,
    # so it gets the same estimate whatever ran before it (a warm start from
    # the previous hour converged less often); and each step it takes
    # lowers the SSR
    for frame, w, est in reversed(sigma10_estimates):
        again, evaluated, linearized, _ = traced_estimate(monkeypatch, case,
                                                          frame, w)
        va0, vm0, *_ = evaluated[0]
        assert np.array_equal(va0, np.zeros(case.n_bus))
        assert np.array_equal(vm0, np.clip(frame[VOLT_OFFSET:], 0.5, 1.5))
        for field in dataclasses.fields(est):
            assert np.array_equal(getattr(again, field.name),
                                  getattr(est, field.name))
        ssr = [s for s, _ in linearized]
        assert len(ssr) == est.iterations
        assert all(b < a for a, b in zip(ssr, ssr[1:]))
        assert est.objective == ssr[-1]


def test_se_exits_at_last_point_when_no_step_helps(case, sigma10_estimates,
                                                   monkeypatch):
    # from the fourth evaluation on, every trial point reads an infinite SSR:
    # MAX_HALVINGS halvings find no decrease, and the estimate ends
    # unconverged at the last point it accepted, with that point's
    # predictions and objective
    frame, w, _ = sigma10_estimates[1]
    est, evaluated, linearized, _ = traced_estimate(monkeypatch, case,
                                                    frame, w, raise_from=3)
    assert not est.converged
    assert est.iterations == len(linearized) < estimation.MAX_ITER
    last_ssr, last = linearized[-1]
    assert len(evaluated) - last - 1 == estimation.MAX_HALVINGS + 1
    va, vm, *_ = evaluated[last]
    assert np.array_equal(est.voltage_angle, va)
    assert np.array_equal(est.voltage_magnitude, vm)
    h, _ = model_at(case.topology, va, vm)
    np.testing.assert_array_equal(h, est.predicted_measurements)
    assert est.objective == last_ssr == pytest.approx(
        np.sum((frame - h) ** 2 / w), rel=1e-12)
    ssr = [s for s, _ in linearized]
    assert all(b < a for a, b in zip(ssr, ssr[1:]))


def test_se_newton_phase_converges_superlinearly(case, sigma10_estimates,
                                                monkeypatch):
    # once a Newton step's decrement is below 1e-2, the step is taken at full
    # length and the next Newton decrement is at most 2 d^1.5, so their
    # ratio falls with d. Measured on these 24 frames: 38 such steps, all
    # full length, and 33 next decrements, at most 1.61 d^1.5 and 0.057 d;
    # above 1e-2, one Newton step in 46 was halved
    newton_steps = pairs = 0
    for frame, w, _ in sigma10_estimates:
        _, _, linearized, newton = traced_estimate(monkeypatch, case,
                                                   frame, w)
        for k, d in newton.items():
            if d is None or d >= 1e-2 or k + 1 == len(linearized):
                continue
            newton_steps += 1
            # the next point linearized at is the first one evaluated
            assert linearized[k + 1][1] == linearized[k][1] + 1
            if newton.get(k + 1) is not None:
                pairs += 1
                assert newton[k + 1] <= 2.0 * d ** 1.5
    assert newton_steps >= 38 and pairs >= 33


def test_se_unconverged_estimate_is_one_point(case, sigma10_estimates):
    # an estimate that runs out of iterations still reports the state that
    # its predictions and objective were computed at
    unconverged = [e for e in sigma10_estimates if not e[2].converged]
    assert unconverged
    for frame, w, est in unconverged:
        assert est.iterations == estimation.MAX_ITER
        h, _ = model_at(case.topology, est.voltage_angle,
                        est.voltage_magnitude)
        np.testing.assert_array_equal(h, est.predicted_measurements)
        assert est.objective == pytest.approx(np.sum((frame - h) ** 2 / w),
                                              rel=1e-12)
