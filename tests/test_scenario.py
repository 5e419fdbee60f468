import json

import numpy as np
import pytest

from gridsentry.dispatch import plan_generation, synthesize_loads
from gridsentry.grid import (Branch, GridCase, N_SENSORS, load_case,
                             sensor_map, solve_power_flow)
from gridsentry.grid.powerflow import NOISE_FLOOR
from gridsentry.scenario import (Condition, GENERATOR_BUSES, LABELS,
                                 ScenarioSeries, THREE_CLASSES, access_set,
                                 generate_scenario, make_condition,
                                 mask_measurements, reduce_target,
                                 simulate_nominal)
from gridsentry.scenario import generate
from gridsentry.scenario.generate import REACTIVE_RATIO
from oracles import (LinearSystem, covert_attack_run, linear_mask_bias,
                     random_system, simulate, write_weakened_case)


@pytest.fixture(scope="module")
def case():
    return load_case()


def sensor_index(case, kind, element):
    """Index of the sensor that sensor_map lists as (kind, element)."""
    return next(i for i, k, e in sensor_map(case) if (k, e) == (kind, element))


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
    spec = make_condition(case, "attack", 2, 3, 0, 10)
    out, applied = reduce_target(u, ALL_ON, spec)
    assert applied
    assert out[0] == pytest.approx(0.8 * (1 - 0.6))
    np.testing.assert_array_equal(out[1:], u[1:])

    spec5 = make_condition(case, "attack", 2, 5, 0, 10)
    out5, _ = reduce_target(u, ALL_ON, spec5)
    assert out5[0] == pytest.approx(0.0)


def test_attack_outside_window(case, world):
    # before the window no cut applies: the hours match a normal series
    # of the same seed bit for bit
    loads, plan = world
    spec = make_condition(case, "attack", 2, 3, 5, 10)
    s = generate_scenario(case, plan, loads, spec, 0.01, seed=4)
    nominal = generate_scenario(case, plan, loads, None, 0.01, seed=4)
    np.testing.assert_array_equal(s.values[:5], nominal.values[:5])
    assert s.labels[:5] == ["normal"] * 5 and s.labels[5] == "attack_2"


def test_attack_uncommitted_noop(case):
    u = np.array([0.8, 0.5, 0.4, 0.0])
    committed = np.array([True, True, True, False])
    spec = make_condition(case, "attack", 8, 5, 0, 10)
    out, applied = reduce_target(u, committed, spec)
    assert not applied
    np.testing.assert_array_equal(out, u)


def test_fault_matches_attack_control_path(case):
    u = np.array([0.8, 0.5, 0.4, 0.3])
    a, _ = reduce_target(u, ALL_ON,
                         make_condition(case, "attack", 6, 2, 0, 10))
    f, _ = reduce_target(u, ALL_ON,
                         make_condition(case, "fault", 6, 2, 0, 10))
    np.testing.assert_array_equal(a, f)


def test_spec_validation(case):
    with pytest.raises(ValueError):
        make_condition(case, "attack", 4, 1, 0, 10)   # not a generator
    with pytest.raises(ValueError):
        Condition("attack", 2, 6, 0, 10, frozenset())  # bad level
    with pytest.raises(ValueError):
        make_condition(case, "fault", 2, 1, 10, 10)   # empty window
    with pytest.raises(ValueError, match="kind"):
        make_condition(case, "outage", 2, 1, 0, 10)   # unknown kind


def test_labels_derive_from_conditions(case):
    assert LABELS == ("normal",
                      "attack_2", "attack_3", "attack_6", "attack_8",
                      "fault_2", "fault_3", "fault_6", "fault_8")
    assert THREE_CLASSES == ("normal", "attack", "fault")
    attack = make_condition(case, "attack", 6, 2, 0, 10)
    fault = make_condition(case, "fault", 6, 2, 0, 10)
    assert (attack.label, fault.label) == ("attack_6", "fault_6")
    assert attack.sensor_access == access_set(case, 6)
    assert fault.sensor_access == frozenset()
    assert attack.fraction == fault.fraction == 0.4


def test_access_set_topology(case):
    acc = access_set(case, 8)
    # bus 8 hangs off bus 7 through a single branch
    assert sensor_index(case, "generation", "8") in acc
    assert sensor_index(case, "voltage", "8") in acc
    flows = [i for i in acc if i < 20]
    assert len(flows) == 1
    acc2 = access_set(case, 2)
    assert len([i for i in acc2 if i < 20]) == 4  # highest-degree generator


# ---------------------------------------------------------------- masking

def fixed_inputs(case, world, t=20):
    loads, plan = world
    lp = np.zeros(14)
    lp[[b - 1 for b in case.load_buses]] = loads[t]
    lq = lp * np.tan(np.arccos(0.95))
    return lp, lq, plan.setpoint[t]


def test_nominal_template_matches_plant(case, world):
    lp, lq, u = fixed_inputs(case, world)
    y_hat = simulate_nominal(case, lp, lq, u).sensors
    sol = solve_power_flow(case, lp, lq, u)
    np.testing.assert_array_equal(y_hat, sol.sensors)


def test_nominal_template_model_mismatch(case, world):
    lp, lq, u = fixed_inputs(case, world)
    perturbed = GridCase(case.buses,
                         tuple(Branch(b.from_bus, b.to_bus, b.resistance,
                                      b.reactance * 1.05, b.line_charging,
                                      b.flow_limit) for b in case.branches),
                         case.base_power)
    y_true = simulate_nominal(case, lp, lq, u).sensors
    y_est = simulate_nominal(perturbed, lp, lq, u).sensors
    dev = np.max(np.abs(y_true - y_est))
    assert dev > 1e-6  # imperfect attacker model visibly deviates


def test_mask_empty_access(case, world):
    lp, lq, u = fixed_inputs(case, world)
    y = simulate_nominal(case, lp, lq, u).sensors
    out = mask_measurements(y, y * 0.5, frozenset(), 0.01, np.empty(0))
    np.testing.assert_array_equal(out, y)


def test_mask_full_access_full_knowledge_covert(case, world):
    # full access + perfect model + zero noise: masked frame IS the nominal frame
    lp, lq, u = fixed_inputs(case, world)
    spec = make_condition(case, "attack", 3, 4, 0, 48)
    u_att, _ = reduce_target(u, ALL_ON, spec)
    y_att = simulate_nominal(case, lp, lq, u_att).sensors
    y_nom = simulate_nominal(case, lp, lq, u).sensors
    masked = mask_measurements(y_att, y_nom, frozenset(range(39)), 0.0,
                               np.random.default_rng(0).standard_normal(39))
    np.testing.assert_array_equal(masked, y_nom)


def test_mask_partial_access_leaks(case, world):
    # non-access sensors keep the attacked physics
    lp, lq, u = fixed_inputs(case, world)
    spec = make_condition(case, "attack", 8, 5, 0, 48)
    u_att, _ = reduce_target(u, ALL_ON, spec)
    y_att = simulate_nominal(case, lp, lq, u_att).sensors
    y_nom = simulate_nominal(case, lp, lq, u).sensors
    masked = mask_measurements(y_att, y_nom, spec.sensor_access, 0.0,
                               np.random.default_rng(0).standard_normal(
                                   len(spec.sensor_access)))
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
    spec = make_condition(case, "attack", 8, 5, 12, 36)
    s = generate_scenario(case, plan, loads, spec, 0.0, seed=8)
    g8 = sensor_index(case, "generation", "8")
    t = 20
    # masked sensor reads the planned setpoint, slack covers the shortfall
    assert s.values[t, g8] == pytest.approx(plan.setpoint[t, 3], abs=1e-6)
    nominal = generate_scenario(case, plan, loads, None, 0.0, seed=8)
    assert s.values[t, 20] - nominal.values[t, 20] > 0.9 * plan.setpoint[t, 3]


def test_fault_scenario_exposes_generation_sensor(case, world):
    loads, plan = world
    spec = make_condition(case, "fault", 8, 5, 12, 36)
    s = generate_scenario(case, plan, loads, spec, 0.0, seed=8)
    g8 = sensor_index(case, "generation", "8")
    assert s.values[20, g8] == pytest.approx(0.0, abs=1e-6)
    assert s.labels[20] == "fault_8"
    assert s.labels[5] == "normal"


def test_attack_fault_differ_only_on_access(case, world):
    loads, plan = world
    att = make_condition(case, "attack", 6, 3, 12, 36)
    flt = make_condition(case, "fault", 6, 3, 12, 36)
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
        spec = make_condition(case, "attack", 2, level, 12, 36)
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
    spec = make_condition(case, "attack", 3, 2, 10, 20)
    s = generate_scenario(case, plan, loads, spec, 0.01, seed=5)
    assert set(s.labels) <= set(LABELS)
    assert s.labels[10] == "attack_3" and s.labels[19] == "attack_3"
    assert s.labels[9] == "normal" and s.labels[20] == "normal"
    assert s.metadata["level"] == 2
    assert s.metadata["noop_hours"] == []


def ref_generate_scenario(case, plan, loads, condition, noise_sigma, seed):
    """generate_scenario's reference form: one hour at a time, with the
    hour's cut, measurement, gap repeat and mask written out."""
    T = plan.horizon
    label = "normal" if condition is None else condition.label
    load_p = np.zeros((T, case.n_bus))
    load_p[:, [b - 1 for b in case.load_buses]] = loads
    load_q = load_p * REACTIVE_RATIO

    def scale(clean):
        return noise_sigma * np.maximum(np.abs(clean), NOISE_FLOOR)

    values = np.empty((T, N_SENSORS))
    labels, noop_hours, gap_hours, fallback_hours = [], [], [], []
    warm = attacker_warm = last_template = last_values = None
    for t in range(T):
        u = plan.setpoint[t].astype(float)
        in_window = (condition is not None
                     and condition.start_hour <= t < condition.end_hour)
        applied = False
        u_phys = u
        if in_window:
            g = GENERATOR_BUSES.index(condition.target_generator)
            u_phys = u.copy()
            applied = bool(plan.commitment[t, g])
            if applied:
                u_phys[g] = u_phys[g] + (-condition.fraction * u_phys[g])
            else:
                noop_hours.append(t)
        sol = solve_power_flow(case, load_p[t], load_q[t], u_phys,
                               warm_start=warm)
        if sol.converged:
            warm = sol
            z = np.random.default_rng([seed, 0, t]).standard_normal(N_SENSORS)
            row = last_values = sol.sensors + z * scale(sol.sensors)
        else:
            gap_hours.append(t)
            row = (last_values if last_values is not None
                   else np.full(N_SENSORS, np.nan))
        if applied and condition.kind == "attack":
            nominal = solve_power_flow(case, load_p[t], load_q[t], u,
                                       warm_start=attacker_warm)
            if nominal.converged:
                attacker_warm = nominal
                last_template = nominal.sensors
            else:
                fallback_hours.append(t)
            if last_template is not None:
                idx = sorted(condition.sensor_access)
                z = np.random.default_rng([seed, 1, t]).standard_normal(
                    len(idx))
                row = row.copy()
                row[idx] = (last_template[idx]
                            + z * scale(last_template)[idx])
        values[t] = row
        labels.append(label if in_window else "normal")
    meta = {"condition": label, "seed": seed, "noise_sigma": noise_sigma,
            "horizon": T, "noop_hours": noop_hours, "gap_hours": gap_hours,
            "template_fallback_hours": fallback_hours}
    if condition is not None:
        meta.update(target=condition.target_generator, level=condition.level,
                    window=[condition.start_hour, condition.end_hour])
    return ScenarioSeries(values=values, labels=labels, metadata=meta)


def test_generate_scenario_matches_reference_form(tmp_path, case, world):
    loads, plan = world
    # a day at lower demand leaves the bus-6 unit uncommitted on days 1
    # and 2 of these loads, so an attack on it is a no-op there
    low = synthesize_loads((55, 75), 120, np.random.default_rng(3))
    # the weakened case fails the solves of hours 2, 3 and 26 of this
    # profile from hour 16 of its loads, and the attacker's of hours 2-23:
    # gap hours 2 and 3 are masked with hour 1's template, and gap hour 26
    # repeats hour 25's measurement without hour 25's mask. From hour 18
    # on, hours 0 and 1 fail both solves, before any converged one
    weak_loads = synthesize_loads((90, 110), 48, np.random.default_rng(18))
    weak = load_case(write_weakened_case(tmp_path / "weak.case"))
    runs = [("normal", case, loads, None),
            ("fault", case, loads, make_condition(case, "fault", 3, 4, 10, 30)),
            ("no-op attack", case, low,
             make_condition(case, "attack", 6, 3, 12, 84)),
            *((f"weakened from hour {start}", weak,
               weak_loads[start:],
               make_condition(weak, "attack", 2, 5, 0, end))
              for start, end in ((16, 26), (18, 20)))]
    seen = set()
    for name, grid, profile, condition in runs:
        plan = plan_generation(profile)
        got = generate_scenario(grid, plan, profile, condition, 0.10, seed=5)
        ref = ref_generate_scenario(grid, plan, profile, condition, 0.10, 5)
        assert np.array_equal(got.values.view(np.uint64),
                              ref.values.view(np.uint64)), name
        assert got.labels == ref.labels, name
        assert got.metadata == ref.metadata, name
        meta = got.metadata
        seen.update(key for key in ("noop_hours", "gap_hours",
                                    "template_fallback_hours") if meta[key])
        if np.isnan(got.values).all(axis=1).any():
            seen.add("NaN rows")
    # every path of the generator ran in at least one series
    assert seen == {"noop_hours", "gap_hours", "template_fallback_hours",
                    "NaN rows"}


def test_generate_scenario_refuses_mismatched_horizons(case, world):
    # the horizon is each array's length, so a plan of 48 hours and loads
    # of 47 are refused before any solve
    loads, plan = world
    short = loads[:-1]
    assert (len(short), plan.horizon) == (47, 48)
    with pytest.raises(ValueError, match="disagree on horizon"):
        generate_scenario(case, plan, short, None, 0.01, seed=0)


def test_unconverged_solves_are_never_measured(case, world, monkeypatch):
    # a solve that says it did not converge leaves a gap hour: the series
    # repeats the last measured row, or holds NaN before the first one,
    # and never measures that solve's sensors
    loads, plan = world
    solve = generate.solve_power_flow
    hours = iter(range(plan.horizon))

    def flagged(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.converged = sol.converged and next(hours) not in (0, 5, 6)
        return sol

    monkeypatch.setattr(generate, "solve_power_flow", flagged)
    s = generate_scenario(case, plan, loads, None, 0.10, seed=9)
    monkeypatch.undo()
    full = generate_scenario(case, plan, loads, None, 0.10, seed=9)
    assert s.metadata["gap_hours"] == [0, 5, 6]
    assert np.isnan(s.values[0]).all()
    for t in (5, 6):
        assert np.array_equal(s.values[t].view(np.uint64),
                              s.values[4].view(np.uint64))
    # the other hours are measured as usual, from other warm starts: the
    # solves agree to 1.4e-8, within ten times their 1e-8 mismatch tolerance
    rest = [t for t in range(plan.horizon) if t not in (0, 5, 6)]
    np.testing.assert_allclose(s.values[rest], full.values[rest],
                               rtol=0, atol=1e-7)


def test_series_csv_roundtrip(tmp_path, case, world):
    loads, plan = world
    spec = make_condition(case, "attack", 3, 2, 10, 20)
    s = generate_scenario(case, plan, loads, spec, 0.01, seed=5)
    p = tmp_path / "series.csv"
    s.save(p)
    back = ScenarioSeries.load(p)
    np.testing.assert_array_equal(back.values, s.values)
    assert back.labels == s.labels
    assert back.metadata == s.metadata
    # without its sidecar, or a known condition in it, the series would
    # pass for a normal one in the split and in training; an attack or
    # fault without its severity would join every level's training rows
    for sidecar in ("{}", "[]", '{"condition": "attack_5"}',
                    '{"condition": "attack_2"}',
                    *(json.dumps({k: v for k, v in s.metadata.items()
                                  if k != key})
                      for key in ("level", "target", "window")),
                    *(json.dumps({**s.metadata, "level": level})
                      for level in (None, 0, 6, "2"))):
        p.with_suffix(".meta.json").write_text(sidecar)
        with pytest.raises(ValueError, match="series.meta.json"):
            ScenarioSeries.load(p)
    # a label outside LABELS, a row count short of the sidecar's horizon
    # and rows out of hour order are refused with the file and the row
    p.with_suffix(".meta.json").write_text(json.dumps(s.metadata))
    text = s.to_csv()
    lines = text.splitlines(keepends=True)
    swapped = lines[:4] + [lines[5], lines[4]] + lines[6:]
    for csv, row in ((text.replace(",attack_3\n", ",atack_3\n"), 10),
                     ("".join(lines[:-5]), 43),
                     ("".join(swapped), 3)):
        p.write_text(csv)
        with pytest.raises(ValueError, match=rf"series\.csv: row {row}:"):
            ScenarioSeries.load(p)
    p.with_suffix(".meta.json").unlink()
    with pytest.raises(FileNotFoundError, match="series.meta.json"):
        ScenarioSeries.load(p)

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


def ref_to_csv(series):
    """The writer's reference form: repr of each value boxed as a float."""
    lines = ["hour," + ",".join(f"s{i:02d}" for i in range(N_SENSORS))
             + ",label"]
    for t in range(len(series.values)):
        row = ",".join(repr(float(v)) for v in series.values[t])
        lines.append(f"{t},{row},{series.labels[t]}")
    return "\n".join(lines) + "\n"


def test_series_csv_bytes_match_reference_form(case, world):
    loads, plan = world
    spec = make_condition(case, "attack", 6, 3, 10, 30)
    generated = generate_scenario(case, plan, loads, spec, 0.10, seed=12)
    values = np.random.default_rng(13).standard_normal((6, N_SENSORS)) * 50
    values[0] = np.nan  # a gap hour before any converged one
    values[3] = np.nan
    values[1, :7] = [-0.0, 0.0, 5e-324, 1.797e308, 1.7976931348623157e308,
                     0.1 + 0.2, -1e-300]
    values[2, :3] = [np.inf, -np.inf, 1 / 3]
    labels = ["normal", "normal", "attack_2", "attack_2", "normal", "normal"]
    for series in (generated, ScenarioSeries(values, labels),
                   ScenarioSeries(values[1:2], labels[1:2])):
        assert series.to_csv() == ref_to_csv(series)
