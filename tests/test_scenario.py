import numpy as np
import pytest

from gridsentry.dispatch import plan_generation, synthesize_loads
from gridsentry.grid import (Branch, GridCase, N_SENSORS,
                             generation_sensor_index, load_case,
                             sensor_values, solve_power_flow,
                             voltage_sensor_index)
from gridsentry.scenario import (AttackSpec, FaultSpec, LABELS,
                                 ScenarioSeries, access_set,
                                 generate_scenario, make_attack_spec,
                                 mask_measurements, reduce_target,
                                 simulate_nominal)
from oracles import (LinearSystem, covert_attack_run, linear_mask_bias,
                     random_system, simulate)


@pytest.fixture(scope="module")
def case():
    return load_case()


@pytest.fixture(scope="module")
def world(case):
    rng = np.random.default_rng(100)
    loads = synthesize_loads((90, 110), 48, rng)
    plan = plan_generation(loads)
    assert plan.commitment.all()
    return loads, plan


ALL_ON = np.ones(4, dtype=bool)


# ---------------------------------------------------------------- attack math

def test_attack_levels(case):
    u = np.array([0.8, 0.5, 0.4, 0.3])
    spec = make_attack_spec(case, 2, 3, 0, 10)
    out, applied = reduce_target(u, ALL_ON, spec, 5)
    assert applied
    assert out[0] == pytest.approx(0.8 * (1 - 0.6))
    np.testing.assert_array_equal(out[1:], u[1:])

    spec5 = make_attack_spec(case, 2, 5, 0, 10)
    out5, _ = reduce_target(u, ALL_ON, spec5, 5)
    assert out5[0] == pytest.approx(0.0)


def test_attack_outside_window(case):
    u = np.array([0.8, 0.5, 0.4, 0.3])
    spec = make_attack_spec(case, 2, 3, 5, 10)
    out, applied = reduce_target(u, ALL_ON, spec, 2)
    assert not applied
    np.testing.assert_array_equal(out, u)


def test_attack_uncommitted_noop(case):
    u = np.array([0.8, 0.5, 0.4, 0.0])
    committed = np.array([True, True, True, False])
    spec = make_attack_spec(case, 8, 5, 0, 10)
    out, applied = reduce_target(u, committed, spec, 5)
    assert not applied
    np.testing.assert_array_equal(out, u)


def test_fault_matches_attack_control_path(case):
    u = np.array([0.8, 0.5, 0.4, 0.3])
    a, _ = reduce_target(u, ALL_ON, make_attack_spec(case, 6, 2, 0, 10), 3)
    f, _ = reduce_target(u, ALL_ON, FaultSpec(6, 2, 0, 10), 3)
    np.testing.assert_array_equal(a, f)


def test_spec_validation(case):
    with pytest.raises(ValueError):
        make_attack_spec(case, 4, 1, 0, 10)   # not a generator
    with pytest.raises(ValueError):
        AttackSpec(2, 6, 0, 10)               # bad level
    with pytest.raises(ValueError):
        FaultSpec(2, 1, 10, 10)               # empty window


def test_access_set_topology(case):
    acc = access_set(case, 8)
    # bus 8 hangs off bus 7 through a single branch
    assert generation_sensor_index(case, 8) in acc
    assert voltage_sensor_index(case, 8) in acc
    flows = [i for i in acc if i < 20]
    assert len(flows) == 1
    acc2 = access_set(case, 2)
    assert len([i for i in acc2 if i < 20]) == 4  # highest-degree generator


# ---------------------------------------------------------------- masking

def fixed_inputs(case, world, t=20):
    loads, plan = world
    lp = np.zeros(14)
    lp[[b - 1 for b in case.load_buses]] = loads.demand[t]
    lq = lp * np.tan(np.arccos(0.95))
    return lp, lq, plan.setpoint[t]


def test_nominal_template_matches_plant(case, world):
    lp, lq, u = fixed_inputs(case, world)
    y_hat, _ = simulate_nominal(case, lp, lq, u)
    setp = {b: u[i] for i, b in enumerate([2, 3, 6, 8])}
    sol = solve_power_flow(case, lp, lq, setp)
    np.testing.assert_array_equal(y_hat, sensor_values(case, sol))


def test_nominal_template_model_mismatch(case, world):
    lp, lq, u = fixed_inputs(case, world)
    perturbed = GridCase(case.buses,
                         tuple(Branch(b.from_bus, b.to_bus, b.resistance,
                                      b.reactance * 1.05, b.line_charging,
                                      b.flow_limit) for b in case.branches),
                         case.base_power)
    y_true, _ = simulate_nominal(case, lp, lq, u)
    y_est, _ = simulate_nominal(perturbed, lp, lq, u)
    dev = np.max(np.abs(y_true - y_est))
    assert dev > 1e-6  # imperfect attacker model visibly deviates


def test_mask_empty_access(case, world):
    lp, lq, u = fixed_inputs(case, world)
    y, _ = simulate_nominal(case, lp, lq, u)
    rng = np.random.default_rng(0)
    out = mask_measurements(y, y * 0.5, frozenset(), 0.01, rng)
    np.testing.assert_array_equal(out, y)


def test_mask_full_access_full_knowledge_covert(case, world):
    # full access + perfect model + zero noise: masked frame IS the nominal frame
    lp, lq, u = fixed_inputs(case, world)
    spec = make_attack_spec(case, 3, 4, 0, 48)
    u_att, _ = reduce_target(u, ALL_ON, spec, 10)
    y_att, _ = simulate_nominal(case, lp, lq, u_att)
    y_nom, _ = simulate_nominal(case, lp, lq, u)
    masked = mask_measurements(y_att, y_nom, frozenset(range(39)), 0.0,
                               np.random.default_rng(0))
    np.testing.assert_array_equal(masked, y_nom)


def test_mask_partial_access_leaks(case, world):
    # non-access sensors keep the attacked physics
    lp, lq, u = fixed_inputs(case, world)
    spec = make_attack_spec(case, 8, 5, 0, 48)
    u_att, _ = reduce_target(u, ALL_ON, spec, 10)
    y_att, _ = simulate_nominal(case, lp, lq, u_att)
    y_nom, _ = simulate_nominal(case, lp, lq, u)
    masked = mask_measurements(y_att, y_nom, spec.sensor_access, 0.0,
                               np.random.default_rng(0))
    non_access = sorted(set(range(39)) - spec.sensor_access)
    np.testing.assert_array_equal(masked[non_access], y_att[non_access])
    # the slack generation sensor reveals the shortfall
    assert abs(y_att[20] - y_nom[20]) > 1e-3


# ---------------------------------------------------------------- linear toy

def test_linear_bias_zero_and_identity():
    rng = np.random.default_rng(0)
    sys = random_system(rng)
    np.testing.assert_array_equal(linear_mask_bias(sys, np.zeros(2)), 0.0)
    eye = LinearSystem(A=np.eye(3) * 0.5, B=np.eye(3), C=np.eye(3),
                       x0=np.zeros(3))
    a = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(linear_mask_bias(eye, a), a)
    with pytest.raises(ValueError):
        linear_mask_bias(sys, np.zeros(5))


def test_linear_one_step_bias_oracle():
    # simulate one step with and without attack: the output difference is C B a
    rng = np.random.default_rng(1)
    sys = random_system(rng, n=3, p=3, m=3)
    u = rng.standard_normal((1, 3))
    a = rng.standard_normal(3)
    y_nom = simulate(sys, u)
    y_att = simulate(sys, u + a)
    np.testing.assert_allclose(y_att[0] - y_nom[0], linear_mask_bias(sys, a),
                               atol=1e-12)


def test_linear_covertness_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        sys = random_system(rng)
        T = 40
        u = rng.standard_normal((T, 2))
        a = rng.standard_normal((T, 2))
        noise = rng.standard_normal((T, 3)) * 0.1
        nominal, attacked, masked = covert_attack_run(sys, u, a, noise)
        assert np.max(np.abs(masked - nominal)) < 1e-12
        assert np.max(np.abs(attacked - nominal)) > 1e-3


# ---------------------------------------------------------------- generation

def test_normal_scenario_deterministic(case, world):
    loads, plan = world
    a = generate_scenario(case, plan, loads, None, 0.01, seed=7)
    b = generate_scenario(case, plan, loads, None, 0.01, seed=7)
    assert a.labels == ["normal"] * 48
    np.testing.assert_array_equal(a.values, b.values)


def test_attack_scenario_masks_generation_sensor(case, world):
    loads, plan = world
    spec = make_attack_spec(case, 8, 5, 12, 36)
    s = generate_scenario(case, plan, loads, spec, 0.0, seed=8)
    g8 = generation_sensor_index(case, 8)
    t = 20
    # masked sensor reads the planned setpoint, slack covers the shortfall
    assert s.values[t, g8] == pytest.approx(plan.setpoint[t, 3], abs=1e-6)
    nominal = generate_scenario(case, plan, loads, None, 0.0, seed=8)
    assert s.values[t, 20] - nominal.values[t, 20] > 0.9 * plan.setpoint[t, 3]


def test_fault_scenario_exposes_generation_sensor(case, world):
    loads, plan = world
    spec = FaultSpec(8, 5, 12, 36)
    s = generate_scenario(case, plan, loads, spec, 0.0, seed=8)
    g8 = generation_sensor_index(case, 8)
    assert s.values[20, g8] == pytest.approx(0.0, abs=1e-6)
    assert s.labels[20] == "fault_8"
    assert s.labels[5] == "normal"


def test_attack_fault_differ_only_on_access(case, world):
    loads, plan = world
    att = make_attack_spec(case, 6, 3, 12, 36)
    flt = FaultSpec(6, 3, 12, 36)
    sa = generate_scenario(case, plan, loads, att, 0.01, seed=21)
    sf = generate_scenario(case, plan, loads, flt, 0.01, seed=21)
    non_access = sorted(set(range(39)) - att.sensor_access)
    np.testing.assert_array_equal(sa.values[:, non_access],
                                  sf.values[:, non_access])
    in_window = slice(12, 36)
    acc = sorted(att.sensor_access)
    assert np.max(np.abs(sa.values[in_window, :][:, acc]
                         - sf.values[in_window, :][:, acc])) > 1e-3


def test_local_covertness(case, world):
    # perfect model, zero noise: masked sensors equal nominal within solver
    # tolerance; at least one non-access sensor deviates clearly
    loads, plan = world
    nominal = generate_scenario(case, plan, loads, None, 0.0, seed=3)
    for level in range(1, 6):
        spec = make_attack_spec(case, 2, level, 12, 36, )
        s = generate_scenario(case, plan, loads, spec, 0.0, seed=3)
        acc = sorted(spec.sensor_access)
        non_access = sorted(set(range(39)) - spec.sensor_access)
        diff_acc = np.abs(s.values[12:36][:, acc] - nominal.values[12:36][:, acc])
        diff_rest = np.abs(s.values[12:36][:, non_access]
                           - nominal.values[12:36][:, non_access])
        assert np.max(diff_acc) < 2e-8
        assert np.all(diff_rest.max(axis=1) > 1e-4)


def test_labels_and_metadata(case, world):
    loads, plan = world
    spec = make_attack_spec(case, 3, 2, 10, 20)
    s = generate_scenario(case, plan, loads, spec, 0.01, seed=5)
    assert set(s.labels) <= set(LABELS)
    assert s.labels[10] == "attack_3" and s.labels[19] == "attack_3"
    assert s.labels[9] == "normal" and s.labels[20] == "normal"
    assert s.metadata["level"] == 2
    assert s.metadata["noop_hours"] == []


def test_series_csv_roundtrip(tmp_path, case, world):
    loads, plan = world
    spec = make_attack_spec(case, 3, 2, 10, 20)
    s = generate_scenario(case, plan, loads, spec, 0.01, seed=5)
    p = tmp_path / "series.csv"
    s.save(p)
    back = ScenarioSeries.load(p)
    np.testing.assert_array_equal(back.values, s.values)
    assert back.labels == s.labels
    assert back.metadata == s.metadata

    def float_parse(text):
        # the reader's reference form: float() on each value field
        return np.array([[float(v) for v in line.split(",")[1:1 + N_SENSORS]]
                         for line in text.strip().splitlines()[1:]])

    # a leading power-flow gap hour is an all-NaN row (generate.py), and
    # extreme or signed-zero values must come back bit for bit
    values = np.random.default_rng(6).standard_normal((5, N_SENSORS)) * 50
    values[0] = np.nan
    values[1, :6] = [-0.0, 5e-324, 1.7976931348623157e308, -1e-300,
                     0.1 + 0.2, 1 / 3]
    labels = ["normal", "normal", "fault_6", "fault_6", "normal"]
    for series in (ScenarioSeries(values, labels),
                   ScenarioSeries(values[2:3], labels[2:3])):
        text = series.to_csv()
        back = ScenarioSeries.from_csv(text)
        assert back.values.shape == series.values.shape
        assert back.labels == series.labels
        assert np.array_equal(back.values.view(np.uint64),
                              float_parse(text).view(np.uint64))
        assert np.array_equal(back.values.view(np.uint64),
                              series.values.view(np.uint64))
