import numpy as np
import pytest

from gridsentry import dispatch
from gridsentry.dispatch import (DIURNAL_SHAPE, HOUSEHOLD_MEAN_PU,
                                 JITTER_SIGMA, LOSS_FACTOR, MARGINAL_COST,
                                 MAX_OUTPUT, MIN_OUTPUT, RAMP_LIMIT,
                                 SCALE_SIGMA, InfeasibleDispatchError,
                                 plan_generation, synthesize_loads)
from gridsentry.grid.case import GENERATOR_BUSES


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- load synthesis

def test_loads_deterministic_and_positive(monkeypatch):
    monkeypatch.setattr(dispatch, "HOUSEHOLDS_PER_BUS", (60, 140))
    a = synthesize_loads(48, rng(5))
    b = synthesize_loads(48, rng(5))
    assert a.shape == (48, 9)
    assert np.all(a > 0)
    np.testing.assert_array_equal(a, b)


def test_loads_single_household_shape(monkeypatch):
    monkeypatch.setattr(dispatch, "HOUSEHOLDS_PER_BUS", (1, 1))
    p = synthesize_loads(24, rng(1))
    # replay the stream: the household counts, then per bus one household
    # scale and one jitter per hour
    r = rng(1)
    np.testing.assert_array_equal(r.integers(1, 2, size=9), 1)
    expected, jitter = np.empty((24, 9)), np.empty((24, 9))
    for i in range(9):
        scale = r.lognormal(np.log(HOUSEHOLD_MEAN_PU) - 0.5 * SCALE_SIGMA**2,
                            SCALE_SIGMA, size=1)
        jitter[:, i] = r.lognormal(-0.5 * JITTER_SIGMA**2, JITTER_SIGMA,
                                   size=24)
        expected[:, i] = scale.sum() * DIURNAL_SHAPE * jitter[:, i]
    np.testing.assert_array_equal(p, expected)
    # jitter aside, every bus is the identical diurnal base shape up to scale
    ratio = p / (DIURNAL_SHAPE[:, None] * jitter)
    np.testing.assert_allclose(ratio, np.broadcast_to(ratio[0], ratio.shape),
                               rtol=1e-12)


def acf(x, lag):
    x = x - x.mean()
    return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))


def test_loads_daily_periodicity(monkeypatch):
    monkeypatch.setattr(dispatch, "HOUSEHOLDS_PER_BUS", (60, 140))
    p = synthesize_loads(720, rng(2))
    for i in range(9):
        assert acf(p[:, i], 24) > acf(p[:, i], 12)


# ---------------------------------------------------------------- planning

def test_fleet_data():
    # one entry per unit of GENERATOR_BUSES in every fleet array
    for values in (MIN_OUTPUT, MAX_OUTPUT, RAMP_LIMIT, MARGINAL_COST):
        assert values.shape == (len(GENERATOR_BUSES),)
    assert np.all((0 <= MIN_OUTPUT) & (MIN_OUTPUT <= MAX_OUTPUT))
    assert np.all(RAMP_LIMIT > 0)


def flat_profile(total, horizon=24):
    return np.full((horizon, 9), total / 9.0)


def test_merit_order_single_unit():
    idx = int(np.argmin(MARGINAL_COST))
    # demand plus losses just below the cheapest unit's capacity
    demand = 0.99 * MAX_OUTPUT[idx] / (1 + LOSS_FACTOR)
    plan = plan_generation(flat_profile(demand))
    assert np.all(plan.commitment[:, idx])
    assert not plan.commitment[:, [i for i in range(4) if i != idx]].any()
    np.testing.assert_allclose(plan.setpoint[:, idx],
                               demand * (1 + LOSS_FACTOR))


def test_zero_demand():
    plan = plan_generation(flat_profile(0.0))
    assert not plan.commitment.any()
    np.testing.assert_array_equal(plan.setpoint, 0.0)


def test_ramp_clipping():
    ramp = 0.15
    assert np.all(RAMP_LIMIT == ramp)
    # the 2.0 -> 2.5 pu demand step asks some unit for more than its ramp
    demand = np.full((48, 9), 2.0 / 9.0)
    demand[24:] += 0.5 / 9.0
    plan = plan_generation(demand)
    steps = np.abs(np.diff(plan.setpoint, axis=0))
    both = plan.commitment[1:] & plan.commitment[:-1]
    assert np.all(steps[both] <= ramp + 1e-12)
    # some step sits at the limit, so the clip fired
    assert np.max(steps[both]) == pytest.approx(ramp, abs=1e-12)


def test_infeasible_demand():
    cap = MAX_OUTPUT.sum()
    with pytest.raises(InfeasibleDispatchError, match="hour 0"):
        plan_generation(flat_profile(cap * 2))


def test_plan_invariants_on_synthetic_loads():
    loads = synthesize_loads(168, rng(11))
    plan = plan_generation(loads)
    caps, mins, ramps = MAX_OUTPUT, MIN_OUTPUT, RAMP_LIMIT
    on = plan.commitment
    # setpoint > 0 only where committed; bounds hold where committed
    assert np.all(plan.setpoint[~on] == 0.0)
    assert np.all(plan.setpoint[on] >= mins[np.nonzero(on)[1]] - 1e-12)
    assert np.all(plan.setpoint[on] <= caps[np.nonzero(on)[1]] + 1e-12)
    # ramp feasibility for consecutive committed pairs
    both = on[1:] & on[:-1]
    steps = np.abs(np.diff(plan.setpoint, axis=0))
    assert np.all(steps[both] <= np.broadcast_to(ramps, steps.shape)[both] + 1e-12)
    # energy adequacy
    committed_cap = (on * caps).sum(axis=1)
    target = loads.sum(axis=1) * (1 + LOSS_FACTOR)
    assert np.all(committed_cap >= target - 1e-9)
    # merit-order monotonicity: committed sets are prefixes of the cost order
    order = np.argsort(MARGINAL_COST)
    for t in range(plan.horizon):
        flags = on[t][order]
        assert np.all(flags[:-1] >= flags[1:])


def ref_plan_generation(demand):
    """plan_generation's reference form: one hour at a time."""
    T = demand.shape[0]
    order = np.argsort(MARGINAL_COST)
    caps, mins, ramps = MAX_OUTPUT, MIN_OUTPUT, RAMP_LIMIT
    target = demand.sum(axis=1) * (1.0 + LOSS_FACTOR)
    infeasible = np.flatnonzero(target > caps.sum())
    if infeasible.size:
        raise InfeasibleDispatchError(
            f"demand exceeds total generation capacity at hour {infeasible[0]}")
    commitment = np.zeros((T, len(caps)), dtype=bool)
    for t in range(T):
        if target[t] <= 0:
            continue
        acc = 0.0
        for g in order:
            commitment[t, g] = True
            acc += caps[g]
            if acc >= target[t]:
                break
    for d0 in range(0, T, 24):
        day = slice(d0, min(d0 + 24, T))
        commitment[day] = commitment[day].any(axis=0)
    setpoint = np.zeros((T, len(caps)))
    for t in range(T):
        on = commitment[t]
        if not on.any():
            continue
        share = target[t] * caps * on / caps[on].sum()
        p = np.clip(share, np.where(on, mins, 0.0), np.where(on, caps, 0.0))
        if t > 0:
            both = on & commitment[t - 1]
            prev = setpoint[t - 1]
            p[both] = np.clip(p[both], prev[both] - ramps[both],
                              prev[both] + ramps[both])
        setpoint[t] = np.where(on, p, 0.0)
    return commitment, setpoint


def plan_or_error(plan, loads):
    try:
        result = plan(loads)
    except InfeasibleDispatchError as exc:
        return str(exc)
    if isinstance(result, tuple):
        return result
    return result.commitment, result.setpoint


def test_plan_matches_reference_form(monkeypatch):
    r = rng(21)
    cap = MAX_OUTPUT.sum() / (1 + LOSS_FACTOR)
    profiles = []
    for _ in range(240):
        # horizons off the 24-hour grid, totals from zero to the fleet's
        # capacity, and hours of zero demand
        T = int(r.integers(1, 170))
        demand = r.uniform(0.0, 1.0, (T, 9)) * r.uniform(0.0, cap / 9)
        demand[r.random(T) < 0.1] = 0.0
        profiles.append(demand)
    for seed in range(20):
        low, high = sorted(r.integers(10, 130, size=2))
        monkeypatch.setattr(dispatch, "HOUSEHOLDS_PER_BUS",
                            (int(low), int(high)))
        profiles.append(synthesize_loads(int(r.integers(24, 170)), rng(seed)))
    # a hand-built day: demand only in the evening, with a ramp to climb
    demand = np.zeros((30, 9))
    demand[17:22] = np.array([0.5, 1.5, 2.5, 2.0, 0.4])[:, None] / 9
    profiles.append(demand)
    infeasible = flat_profile(cap * 1.01, horizon=40)
    infeasible[:7] = 0.0
    profiles.append(infeasible)

    kinds = {"plans": 0, "errors": 0}
    for loads in profiles:
        got = plan_or_error(plan_generation, loads)
        ref = plan_or_error(ref_plan_generation, loads)
        if isinstance(ref, str):
            kinds["errors"] += 1
            assert got == ref
            continue
        kinds["plans"] += 1
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1].view(np.uint64), ref[1].view(np.uint64))
    assert plan_or_error(plan_generation, infeasible) == (
        "demand exceeds total generation capacity at hour 7")
    assert kinds["plans"] >= 200 and kinds["errors"] >= 1


def test_all_generators_committed_at_default_scale():
    # attack scenarios need every generator online; the default calibration
    # keeps daily peaks high enough to commit the full fleet
    for seed in range(5):
        plan = plan_generation(
            synthesize_loads(96, rng(seed)))
        assert plan.commitment.all(), f"seed {seed} left a unit uncommitted"


def test_plan_deterministic():
    loads = synthesize_loads(48, rng(9))
    a = plan_generation(loads)
    b = plan_generation(loads)
    np.testing.assert_array_equal(a.setpoint, b.setpoint)
    np.testing.assert_array_equal(a.commitment, b.commitment)


def test_flow_check_runs():
    # every hour of a default-fleet plan solves within every branch limit,
    # under the power factor scenario generation uses
    from gridsentry.grid import load_case, solve_power_flow
    from gridsentry.grid.case import GEN_OFFSET
    from gridsentry.scenario.generate import REACTIVE_RATIO
    case = load_case()
    limits = np.array([br.flow_limit for br in case.branches])
    load_idx = [b - 1 for b in case.load_buses]
    loads = synthesize_loads(96, rng(4))
    plan = plan_generation(loads)
    warm = None
    flows = []
    for t in range(plan.horizon):
        lp = np.zeros(case.n_bus)
        lp[load_idx] = loads[t]
        warm = solve_power_flow(case, lp, lp * REACTIVE_RATIO,
                                plan.setpoint[t], warm_start=warm)
        assert warm.converged, f"hour {t} did not converge"
        flows.append(np.abs(warm.sensors[:GEN_OFFSET]))  # line flows
    flows = np.array(flows)

    def over_limit_hours(limits):
        return [t for t in range(plan.horizon)
                if not np.all(flows[t] <= limits)]

    assert over_limit_hours(limits) == []
    # the most loaded branch carries 22% of its limit, so the check above
    # passes with room to spare; with every limit scaled below the observed
    # peak loading the same check flags hours
    peak = float(np.max(flows / limits))
    assert peak < 1.0
    assert len(over_limit_hours(limits * 0.9 * peak)) >= 1
