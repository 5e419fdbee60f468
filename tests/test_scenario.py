import io
import re

import numpy as np
import pytest

from gridsentry import InputError, dispatch
from gridsentry.dispatch import plan_generation, synthesize_loads
from gridsentry.grid import (Branch, GridCase, N_SENSORS, load_case,
                             sensor_map, solve_power_flow)
from gridsentry.grid.powerflow import NOISE_FLOOR
from gridsentry.scenario import (GENERATOR_BUSES, LABELS, STATUS_FLAGS,
                                 ScenarioSeries, THREE_CLASSES, access_set,
                                 condition_name, generate_scenario,
                                 make_condition, mask_measurements,
                                 reduce_target, simulate_nominal)
from gridsentry.scenario import generate
from gridsentry.scenario.generate import REACTIVE_RATIO
from oracles import (LinearSystem, covert_attack_run, frame_labels,
                     linear_mask_bias, random_system, simulate,
                     write_weakened_case)


@pytest.fixture(scope="module")
def case():
    return load_case()


def sensor_index(case, kind, element):
    """Index of the sensor that sensor_map lists as (kind, element)."""
    return next(i for i, k, e in sensor_map(case) if (k, e) == (kind, element))


def condition_labels(condition, horizon):
    """The frame labels of a series of horizon hours generated under
    condition: its label inside its window, normal elsewhere."""
    return frame_labels(condition_name(condition.kind,
                                       condition.target_generator),
                        (condition.start_hour, condition.end_hour), horizon)


@pytest.fixture(scope="module")
def world(case):
    rng = np.random.default_rng(100)
    loads = synthesize_loads(48, rng)
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
    labels = condition_labels(spec, len(s.values))
    assert labels[:5] == ["normal"] * 5 and labels[5] == "attack_2"


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


def test_labels_derive_from_conditions(case):
    assert LABELS == ("normal",
                      "attack_2", "attack_3", "attack_6", "attack_8",
                      "fault_2", "fault_3", "fault_6", "fault_8")
    assert THREE_CLASSES == ("normal", "attack", "fault")
    attack = make_condition(case, "attack", 6, 2, 0, 10)
    fault = make_condition(case, "fault", 6, 2, 0, 10)
    assert [condition_name(c.kind, c.target_generator)
            for c in (attack, fault)] == ["attack_6", "fault_6"]
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
                                      b.flow_limit) for b in case.branches))
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
    assert a.metadata == b.metadata
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
    labels = condition_labels(spec, len(s.values))
    assert labels[20] == "fault_8" and labels[5] == "normal"


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
    labels = condition_labels(spec, len(s.values))
    assert set(labels) <= set(LABELS)
    assert labels[10] == "attack_3" and labels[19] == "attack_3"
    assert labels[9] == "normal" and labels[20] == "normal"
    assert spec.level == 2
    # the metadata holds the per-hour status lists, which no job implies
    assert s.metadata == {"noop_hours": [], "gap_hours": [],
                          "template_fallback_hours": []}


def ref_generate_scenario(case, plan, loads, condition, noise_sigma, seed):
    """generate_scenario's reference form: one hour at a time, with the
    hour's cut, measurement, gap repeat and mask written out."""
    T = plan.horizon
    load_p = np.zeros((T, case.n_bus))
    load_p[:, [b - 1 for b in case.load_buses]] = loads
    load_q = load_p * REACTIVE_RATIO

    def scale(clean):
        return noise_sigma * np.maximum(np.abs(clean), NOISE_FLOOR)

    values = np.empty((T, N_SENSORS))
    noop_hours, gap_hours, fallback_hours = [], [], []
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
    meta = {"noop_hours": noop_hours, "gap_hours": gap_hours,
            "template_fallback_hours": fallback_hours}
    return ScenarioSeries(values=values, metadata=meta)


def test_generate_scenario_matches_reference_form(tmp_path, monkeypatch,
                                                  case, world):
    loads, plan = world
    # a day at lower demand leaves the bus-6 unit uncommitted on days 1
    # and 2 of these loads, so an attack on it is a no-op there
    with monkeypatch.context() as patched:
        patched.setattr(dispatch, "HOUSEHOLDS_PER_BUS", (55, 75))
        low = synthesize_loads(120, np.random.default_rng(3))
    # the weakened case fails the solves of hours 2, 3 and 26 of this
    # profile from hour 16 of its loads, and the attacker's of hours 2-23:
    # gap hours 2 and 3 are masked with hour 1's template, and gap hour 26
    # repeats hour 25's measurement without hour 25's mask. From hour 18
    # on, hours 0 and 1 fail both solves, before any converged one
    weak_loads = synthesize_loads(48, np.random.default_rng(18))
    with monkeypatch.context() as patched:
        patched.setattr("gridsentry.grid.case.DEFAULT_CASE",
                        write_weakened_case(tmp_path / "weak.case"))
        weak = load_case()
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


def save_stack(path, stack):
    """ScenarioSeries.save of one series per row of stack, each with no
    status hour, at path and status.npy beside it."""
    quiet = {key: [] for key in STATUS_FLAGS}
    return ScenarioSeries.save(path, path.with_name("status.npy"),
                               (ScenarioSeries(v, quiet) for v in stack),
                               stack.shape)


def test_series_npy_roundtrip(tmp_path, case, world):
    # save writes one values array and one status array, a row of each per
    # series; load reads back the rows it is given, in their order
    loads, plan = world
    series = [generate_scenario(case, plan, loads, spec, 0.01, seed=5)
              for spec in (make_condition(case, "attack", 3, 2, 10, 20),
                           make_condition(case, "fault", 2, 5, 0, 48), None)]
    # a status flag of each kind, set in two series at one hour
    for s, key, hours in ((series[0], "noop_hours", [10, 11]),
                          (series[0], "gap_hours", [11]),
                          (series[1], "template_fallback_hours", [0]),
                          (series[2], "gap_hours", [3, 47])):
        s.metadata[key] = hours
    p, status_path = tmp_path / "values.npy", tmp_path / "status.npy"
    status = ScenarioSeries.save(p, status_path, iter(series), (3, 48, 39))
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "status.npy", "values.npy"]
    stack = np.array([s.values for s in series])
    assert p.read_bytes() == array_bytes(stack)  # numpy's own header
    assert status_path.read_bytes() == array_bytes(status)
    assert status.dtype == np.uint8 and status.shape == (3, 48)
    for row, s in zip(status, series):
        for key, flag in STATUS_FLAGS.items():
            assert np.flatnonzero(row & flag).tolist() == s.metadata[key]
    assert status[0, 11] == STATUS_FLAGS["noop_hours"] | STATUS_FLAGS[
        "gap_hours"]
    names = ["attack", "fault", "normal"]
    for rows in ([0, 1, 2], [2, 0], [1]):
        back = ScenarioSeries.load(p, names, 48, rows)
        assert np.array_equal(back.view(np.uint64),
                              stack[rows].view(np.uint64))
    # values of another horizon than the one given are refused naming them
    with pytest.raises(InputError, match=r"values\.npy: .* shape"):
        ScenarioSeries.load(p, names, 49, [0])

    # extreme, subnormal or signed-zero values come back bit for bit
    values = np.random.default_rng(6).standard_normal((2, 5, N_SENSORS)) * 50
    values[1, 1, :6] = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1e-300,
                        0.1 + 0.2]
    for stack in (values, values[1:]):
        save_stack(p, stack)
        back = ScenarioSeries.load(p, ["a", "b"][:len(stack)], 5,
                                   range(len(stack)))
        assert back.dtype == np.float64
        assert back.shape == stack.shape
        assert np.array_equal(back.view(np.uint64), stack.view(np.uint64))


def array_bytes(array) -> bytes:
    """The bytes np.save writes for array."""
    out = io.BytesIO()
    np.save(out, array)
    return out.getvalue()


def test_load_refuses_non_finite_frames(tmp_path):
    # a power-flow gap hour with nothing before it to repeat is an all-NaN
    # row (generate.py); the reader refuses it, or any other non-finite
    # value, naming the file, the series and the hours, so no stage
    # computes stats or features from it. A row it is not given is not read
    values = np.random.default_rng(4).standard_normal((3, 30, N_SENSORS))
    p = tmp_path / "values.npy"
    names = ["normal_s00", "normal_s01", "normal_s02"]
    for hours in ([0], [0, 1], [7, 12]):
        bad = values.copy()
        bad[1, hours[0]] = np.nan
        bad[1, hours[1:], 3] = np.inf
        save_stack(p, bad)
        assert np.array_equal(ScenarioSeries.load(p, names, 30, [2, 0]),
                              values[[2, 0]])
        with pytest.raises(InputError, match=(
                r"values\.npy: non-finite frames of series normal_s01 at "
                rf"hours {re.escape(str(hours))}$")):
            ScenarioSeries.load(p, names, 30, [0, 1, 2])


def test_load_refuses_a_file_that_is_not_the_horizons_array(tmp_path):
    # the values file must hold one float64 array with a row of a series'
    # sensors for each hour of the horizon given, for each series named;
    # anything else is refused as an InputError naming the file,
    # before any frame is read from it
    values = np.random.default_rng(7).standard_normal((2, 6, N_SENSORS))
    p = tmp_path / "values.npy"
    save_stack(p, values)
    good = p.read_bytes()
    archive = tmp_path / "archive.npz"
    np.savez(archive, values=values)

    def written(array, **options):
        def write(path):
            with open(path, "wb") as fh:
                np.lib.format.write_array(fh, array, **options)
        return write

    files = {
        "empty": lambda path: path.write_bytes(b""),
        "csv text": lambda path: path.write_text(
            "hour,s00,label\n0,1.0,normal\n"),
        "truncated": lambda path: path.write_bytes(good[:-8]),
        "trailing byte": lambda path: path.write_bytes(good + b"\xe9"),
        "npz archive": lambda path: path.write_bytes(archive.read_bytes()),
        "pickled objects": written(np.array([values], dtype=object),
                                   allow_pickle=True),
        "version 2.0": written(values, version=(2, 0)),
        "Fortran order": written(np.asfortranarray(values)),
        "float32": written(values.astype(np.float32)),
        "one series": written(values[:1]),
        "5 hours": written(values[:, :5]),
        "7 hours": written(np.concatenate([values, values[:, :1]], axis=1)),
        "38 sensors": written(values[:, :, :-1]),
    }
    causes = {"empty": "EOF", "csv text": "magic string",
              "truncated": "the array is not fully written$",
              "trailing byte": "bytes after the array$",
              "npz archive": "magic string",
              "pickled objects": r"a object array of shape \(1, 2, 6, 39\)",
              "version 2.0": "Cannot parse header",
              "Fortran order": r"a Fortran-ordered float64 array of shape "
                               r"\(2, 6, 39\)",
              "float32": r"a float32 array of shape \(2, 6, 39\)",
              "one series": r"shape \(1, 6, 39\); the config gives float64 "
                            r"of shape \(2, 6, 39\)$",
              "5 hours": r"shape \(2, 5, 39\)", "7 hours": r"shape \(2, 7, 39\)",
              "38 sensors": r"shape \(2, 6, 38\)"}
    assert set(causes) == set(files)
    for name, write in files.items():
        write(p)
        with pytest.raises(InputError,
                           match=rf"values\.npy: .*{causes[name]}"):
            ScenarioSeries.load(p, ["a", "b"], 6, [0])
