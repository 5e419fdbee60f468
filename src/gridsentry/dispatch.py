"""Synthetic load profiles and merit-order generation planning.

Hourly demand per load bus is built by aggregating synthetic household
curves (diurnal base shape x per-household scale x lognormal jitter).
Generator setpoints come from a greedy merit-order commitment with a
daily minimum-up simplification and proportional dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_LOAD_BUSES = 9

# 24-point diurnal base shape (mean ~1, evening peak). Synthetic stand-in for
# aggregated residential consumption; deliberately flat enough that daily
# peaks stay within the default generator fleet.
DIURNAL_SHAPE = np.array([
    0.80, 0.76, 0.74, 0.73, 0.74, 0.78,
    0.84, 0.92, 0.99, 1.03, 1.06, 1.08,
    1.10, 1.11, 1.12, 1.14, 1.19, 1.26,
    1.30, 1.27, 1.18, 1.06, 0.95, 0.85,
])

# mean household demand in pu, calibrated so ~100 households/bus over 9 buses
# give a system mean load of ~2.15 pu on the 14-bus case
HOUSEHOLD_MEAN_PU = 2.15 / (9 * 100 * DIURNAL_SHAPE.mean())
SCALE_SIGMA = 0.3  # log-std of the per-household demand scale
JITTER_SIGMA = 0.05  # log-std of the per-(bus, hour) demand jitter
LOSS_FACTOR = 0.03  # network losses the committed capacity must also cover


class InfeasibleDispatchError(RuntimeError):
    """Demand exceeds total committed-capacity at some hour."""


@dataclass(frozen=True)
class GeneratorSpec:
    bus: int
    min_output: float
    max_output: float
    ramp_limit: float       # pu per hour
    marginal_cost: float    # currency per pu-hour

    def __post_init__(self):
        if not (0 <= self.min_output <= self.max_output):
            raise ValueError(f"generator at bus {self.bus}: bad output range")
        if self.ramp_limit <= 0:
            raise ValueError(f"generator at bus {self.bus}: ramp limit must be > 0")


DEFAULT_GENERATORS = (
    GeneratorSpec(bus=2, min_output=0.10, max_output=1.00, ramp_limit=0.15,
                  marginal_cost=8.0),
    GeneratorSpec(bus=3, min_output=0.10, max_output=0.85, ramp_limit=0.15,
                  marginal_cost=12.0),
    GeneratorSpec(bus=6, min_output=0.08, max_output=0.75, ramp_limit=0.15,
                  marginal_cost=18.0),
    GeneratorSpec(bus=8, min_output=0.08, max_output=0.70, ramp_limit=0.15,
                  marginal_cost=24.0),
)


@dataclass
class LoadProfile:
    horizon: int
    demand: np.ndarray  # (T, 9) active pu, column order = load buses 4,5,7,9..14


@dataclass
class GenerationPlan:
    horizon: int
    commitment: np.ndarray  # (T, 4) bool, column order = generator buses 2,3,6,8
    setpoint: np.ndarray    # (T, 4) active pu


def synthesize_loads(num_households_range: tuple[int, int], horizon: int,
                     rng: np.random.Generator) -> LoadProfile:
    """Aggregate per-bus household curves into an hourly demand matrix.

    Household count per bus is drawn once from the closed integer range;
    each household contributes shape(hour) * lognormal scale, and each
    (bus, hour) gets one multiplicative lognormal jitter.
    """
    lo, hi = num_households_range
    if lo > hi or lo < 1:
        raise ValueError("household range must be a non-empty positive interval")
    if horizon < 24:
        raise ValueError("horizon must cover at least one day")
    counts = rng.integers(lo, hi + 1, size=N_LOAD_BUSES)
    shape = DIURNAL_SHAPE[np.arange(horizon) % 24]
    demand = np.empty((horizon, N_LOAD_BUSES))
    for i, n in enumerate(counts):
        # lognormal scales with mean HOUSEHOLD_MEAN_PU
        scales = rng.lognormal(
            np.log(HOUSEHOLD_MEAN_PU) - 0.5 * SCALE_SIGMA**2, SCALE_SIGMA,
            size=n)
        jitter = rng.lognormal(-0.5 * JITTER_SIGMA**2, JITTER_SIGMA,
                               size=horizon)
        demand[:, i] = scales.sum() * shape * jitter
    return LoadProfile(horizon=horizon, demand=demand)


def plan_generation(loads: LoadProfile) -> GenerationPlan:
    """Greedy merit-order commitment plus proportional dispatch.

    Units of DEFAULT_GENERATORS are committed cheapest-first until capacity
    covers demand * (1 + LOSS_FACTOR); any unit needed at some hour of a day
    stays committed for that whole day (minimum-up simplification). Dispatch
    is proportional to capacity among committed units, clipped to output and
    ramp limits; the slack bus absorbs the (small) residual imbalance.
    """
    T = loads.horizon
    specs = DEFAULT_GENERATORS
    n = len(specs)
    order = np.argsort([s.marginal_cost for s in specs])
    caps = np.array([s.max_output for s in specs])
    mins = np.array([s.min_output for s in specs])
    ramps = [s.ramp_limit for s in specs]
    target = loads.demand.sum(axis=1) * (1.0 + LOSS_FACTOR)

    infeasible = np.flatnonzero(target > caps.sum())
    if infeasible.size:
        raise InfeasibleDispatchError(
            f"demand exceeds total generation capacity at hour {infeasible[0]}")

    # a unit is committed unless the cheaper units already cover the target
    # (so a NaN target commits every unit); a target <= 0 commits none
    covered = np.zeros((T, n), dtype=bool)
    covered[:, 1:] = np.cumsum(caps[order])[:-1] >= target[:, None]
    commitment = np.empty((T, n), dtype=bool)
    commitment[:, order] = ~covered & ~(target <= 0)[:, None]
    # minimum-up simplification: extend commitment over each day
    day = np.arange(T) // 24
    commitment = np.logical_or.reduceat(commitment, np.arange(0, T, 24),
                                        axis=0)[day]

    on = commitment
    total = np.where(on.any(axis=1), (caps * on).sum(axis=1), 1.0)
    share = target[:, None] * caps * on / total[:, None]
    p = np.clip(share, np.where(on, mins, 0.0), np.where(on, caps, 0.0))
    # the ramp clip of a unit committed in consecutive hours depends on the
    # hour before, so it runs in hour order, with np.clip's rule on floats:
    # a NaN value stays, a NaN bound wins
    rows = np.where(on, p, 0.0).tolist()
    both = (on[1:] & on[:-1]).tolist()
    for t in range(1, T):
        prev, row = rows[t - 1], rows[t]
        for g, flag in enumerate(both[t - 1]):
            if not flag:
                continue
            v, lo, hi = row[g], prev[g] - ramps[g], prev[g] + ramps[g]
            if v == v and not v > lo:
                v = lo
            if v == v and not v < hi:
                v = hi
            row[g] = v
    setpoint = np.array(rows).reshape(T, n)

    return GenerationPlan(horizon=T, commitment=commitment, setpoint=setpoint)
