import time

import numpy as np
import pytest
from scipy.optimize import bisect, fsolve

from gridsentry.dispatch import plan_generation, synthesize_loads
from gridsentry.grid import (Branch, Bus, CaseError, GridCase, N_SENSORS,
                             build_admittance, estimate_state, load_case,
                             measure, noise_scale, sensor_map, sensor_values,
                             solve_power_flow)
from gridsentry.grid.estimation import _measurement_model
from gridsentry.grid.powerflow import _jacobian
from gridsentry.scenario import generate_scenario

# voltage magnitudes of the shipped base case, frozen from an independent
# root-finding solve (scipy fsolve on the complex mismatch equations)
BASE_CASE_VM_REF = np.array([
    1.060000, 1.045000, 1.010000, 1.026093, 1.032598, 1.070000, 1.044812,
    1.090000, 1.027631, 1.027543, 1.044943, 1.053017, 1.046234, 1.017433,
])

BASE_SETPOINTS = {2: 0.4, 3: 0.0, 6: 0.0, 8: 0.0}


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


def test_load_case_missing_file(tmp_path):
    with pytest.raises(CaseError):
        load_case(tmp_path / "nope.case")


# ---------------------------------------------------------------- admittance

def toy_case(branches, n=2):
    buses = [Bus(1, "slack", 1.0, 0.0, 0.0)]
    buses += [Bus(i, "load", None, 0.0, 0.0) for i in range(2, n + 1)]
    return GridCase(tuple(buses), tuple(branches), 100.0)


def test_admittance_single_branch():
    c = toy_case([Branch(1, 2, 0.0, 0.1, 0.0, 1.0)])
    Y = build_admittance(c)
    assert Y[0, 1] == pytest.approx(-1.0 / 0.1j)
    assert Y[1, 0] == Y[0, 1]


def test_admittance_offdiag_count(case):
    Y = build_admittance(case)
    iu = np.triu_indices(14, k=1)
    assert int(np.count_nonzero(Y[iu])) == 20


def test_admittance_no_shunt_rowsum(case):
    # zero line charging everywhere -> diagonal equals minus the off-diagonal sum
    flat = GridCase(case.buses,
                    tuple(Branch(b.from_bus, b.to_bus, b.resistance, b.reactance,
                                 0.0, b.flow_limit) for b in case.branches),
                    case.base_power)
    Y = build_admittance(flat)
    off = Y - np.diag(np.diag(Y))
    np.testing.assert_allclose(np.diag(Y), -off.sum(axis=1), atol=1e-12)


def test_admittance_symmetric(case):
    Y = build_admittance(case)
    np.testing.assert_allclose(Y, Y.T)


def test_topology_matches_case(case):
    topo = case.topology
    assert topo is case.topology
    np.testing.assert_array_equal(topo.Y, build_admittance(case))
    gen_sensors = [int(e) for _, kind, e in sensor_map(case)
                   if kind == "generation"]
    assert (topo.gen_order + 1).tolist() == gen_sensors
    assert (topo.power_anchor + 1).tolist() == (
        [br.from_bus for br in case.branches] + gen_sensors)


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
    sol = solve_power_flow(flat, z, z, {g: 0.0 for g in flat.generator_buses})
    assert sol.converged
    np.testing.assert_allclose(sol.line_flow_active, 0.0, atol=1e-9)
    np.testing.assert_allclose(sol.generation_active, 0.0, atol=1e-9)
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
    Y = np.array(build_admittance(case))
    pv = [b - 1 for b in case.generator_buses]
    pq = [b - 1 for b in case.load_buses]
    psched = -p.copy()
    for b, val in BASE_SETPOINTS.items():
        psched[b - 1] += val
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
    sol = solve_power_flow(c, np.array([0.0, p_load]), np.zeros(2), {}, tol=1e-12)
    assert sol.converged

    f = lambda th: 0.5 * np.sin(2 * th) + p_load * x_line
    th2 = bisect(f, -np.pi / 4, 0.0, xtol=1e-14)
    v2 = np.cos(th2)
    assert sol.voltage_angle[1] == pytest.approx(th2, abs=1e-10)
    assert sol.voltage_magnitude[1] == pytest.approx(v2, abs=1e-10)


def test_power_balance_invariant(case):
    sol = solve_base(case)
    p, q = base_loads(case)
    Y = np.array(build_admittance(case))
    V = sol.voltage_magnitude * np.exp(1j * sol.voltage_angle)
    inj = (V * np.conj(Y @ V)).real
    gen = np.zeros(14)
    for b, val in BASE_SETPOINTS.items():
        gen[b - 1] = val
    gen[0] = sol.generation_active[0] - p[0]
    np.testing.assert_allclose(inj[1:], (gen - p)[1:], atol=1e-6)


def test_slack_absorption(case):
    sol = solve_base(case)
    p, _ = base_loads(case)
    Y = np.array(build_admittance(case))
    V = sol.voltage_magnitude * np.exp(1j * sol.voltage_angle)
    losses = float(np.sum((V * np.conj(Y @ V)).real))
    total_gen = float(np.sum(sol.generation_active))
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


def test_nonconvergence_is_flagged(case):
    # absurd load forces divergence or iteration exhaustion, never a crash
    p = np.full(14, 5.0)
    q = np.full(14, 2.0)
    try:
        sol = solve_power_flow(case, p, q, BASE_SETPOINTS, max_iter=5)
        assert not sol.converged
    except Exception as exc:
        # a singular Jacobian is the one allowed explicit error
        from gridsentry.grid import SingularJacobianError
        assert isinstance(exc, SingularJacobianError)


# ---------------------------------------------------------------- measurement

def test_measure_zero_noise_identity(case):
    sol = solve_base(case)
    rng = np.random.default_rng(0)
    frame = measure(case, sol, 0.0, rng)
    np.testing.assert_array_equal(frame, sensor_values(case, sol))
    assert frame.shape == (N_SENSORS,)


def test_measure_rejects_unconverged(case):
    sol = solve_base(case)
    sol.converged = False
    with pytest.raises(ValueError):
        measure(case, sol, 0.01, np.random.default_rng(0))


def test_measure_noise_std(case):
    sol = solve_base(case)
    rng = np.random.default_rng(7)
    draws = np.stack([measure(case, sol, 0.01, rng) for _ in range(10_000)])
    clean = sensor_values(case, sol)
    expected = 0.01 * np.maximum(np.abs(clean), 0.01)
    sample = draws.std(axis=0)
    np.testing.assert_allclose(sample, expected, rtol=0.05)


def test_measure_deterministic(case):
    sol = solve_base(case)
    a = measure(case, sol, 0.01, np.random.default_rng(42))
    b = measure(case, sol, 0.01, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_sensor_map(case):
    rows = sensor_map(case)
    assert len(rows) == 39
    kinds = [k for _, k, _ in rows]
    assert kinds.count("flow") == 20
    assert kinds.count("generation") == 5
    assert kinds.count("voltage") == 14


# ---------------------------------------------------------------- estimation

def se_weights(case, sol, sigma=0.01):
    clean = sensor_values(case, sol)
    std = sigma * np.maximum(np.abs(clean), 0.01)
    return std ** 2


def test_se_recovers_exact_data(case):
    sol = solve_base(case)
    p, _ = base_loads(case)
    frame = measure(case, sol, 0.0, np.random.default_rng(0))
    est = estimate_state(case, frame, se_weights(case, sol), gen_bus_loads=p)
    assert est.converged
    np.testing.assert_allclose(est.voltage_magnitude, sol.voltage_magnitude,
                               atol=1e-6)
    np.testing.assert_allclose(est.voltage_angle, sol.voltage_angle, atol=1e-6)
    assert est.objective == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(est.predicted_measurements, frame, atol=1e-8)


def test_se_noisy_residual_mean(case):
    sol = solve_base(case)
    p, _ = base_loads(case)
    w = se_weights(case, sol)
    rng = np.random.default_rng(3)
    res = []
    for _ in range(1000):
        frame = measure(case, sol, 0.01, rng)
        est = estimate_state(case, frame, w, gen_bus_loads=p)
        assert est.objective > 0
        res.append(frame - est.predicted_measurements)
    res = np.asarray(res)
    # residual mean per sensor is near zero relative to the noise scale
    std = np.sqrt(w)
    assert np.max(np.abs(res.mean(axis=0)) / std) < 0.2


def test_se_gross_error_objective(case):
    sol = solve_base(case)
    p, _ = base_loads(case)
    w = se_weights(case, sol)
    rng = np.random.default_rng(4)
    normal_obj = []
    for _ in range(200):
        frame = measure(case, sol, 0.01, rng)
        normal_obj.append(estimate_state(case, frame, w, gen_bus_loads=p).objective)
    frame = measure(case, sol, 0.01, rng)
    frame[5] += 1.0
    bad = estimate_state(case, frame, w, gen_bus_loads=p)
    assert bad.objective > np.percentile(normal_obj, 99)


def test_se_bad_inputs(case):
    sol = solve_base(case)
    frame = measure(case, sol, 0.0, np.random.default_rng(0))
    ok = se_weights(case, sol)
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
    with pytest.raises(ValueError):
        estimate_state(case, frame, ok, gen_bus_loads=np.zeros(8))
    with pytest.raises(ValueError):
        estimate_state(case, frame, ok, gen_bus_loads=np.full(14, np.nan))


# ------------------------------------------- derivatives in the sigma=0.10 regime

@pytest.fixture(scope="module")
def sigma10_estimates(case):
    """(frame, weights, estimate) per hour of a normal series at sigma = 0.10,
    with weights taken from the noisy values as the SE_DNN variant does."""
    loads = synthesize_loads((90, 110), 24, np.random.default_rng(5))
    series = generate_scenario(case, plan_generation(loads), loads, None,
                               noise_sigma=0.10, seed=5)
    out = []
    for frame in series.values:
        w = noise_scale(frame, 0.10) ** 2
        out.append((frame, w, estimate_state(case, frame, w)))
    return out


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
    offset = np.zeros(len(topo.power_anchor))

    for va0, vm0 in states(case, sigma10_estimates):
        def h_of(x):
            va = va0.copy()
            va[topo.nonslack] = x[:ns]
            return _measurement_model(topo, va, x[ns:], offset)[0]

        x0 = np.concatenate([va0[topo.nonslack], vm0])
        H = _measurement_model(topo, va0, vm0, offset)[1]
        assert H.shape == (N_SENSORS, 27)
        H_fd = central_difference(h_of, x0)
        assert np.linalg.norm(H - H_fd) <= 1e-6 * np.linalg.norm(H)


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
        J = _jacobian(topo, vm0 * np.exp(1j * va0))
        J_fd = central_difference(mismatch, x0)
        assert np.linalg.norm(J - J_fd) <= 1e-6 * np.linalg.norm(J)


def test_se_converged_frame_is_stationary(case, sigma10_estimates):
    frame, w, est = next(e for e in sigma10_estimates if e[2].converged)
    z, W = frame, 1.0 / w
    h, H = _measurement_model(case.topology, est.voltage_angle,
                              est.voltage_magnitude,
                              np.zeros(len(case.topology.power_anchor)))
    np.testing.assert_array_equal(h, est.predicted_measurements)
    grad = H.T @ (W * (z - h))
    assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(H.T @ (W * z))
