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
# peaks stay within the generator fleet.
DIURNAL_SHAPE = np.array([
    0.80, 0.76, 0.74, 0.73, 0.74, 0.78,
    0.84, 0.92, 0.99, 1.03, 1.06, 1.08,
    1.10, 1.11, 1.12, 1.14, 1.19, 1.26,
    1.30, 1.27, 1.18, 1.06, 0.95, 0.85,
])

# mean household demand in pu, calibrated so ~100 households/bus over 9 buses
# give a system mean load of ~2.15 pu on the 14-bus case
HOUSEHOLD_MEAN_PU = 2.15 / (9 * 100 * DIURNAL_SHAPE.mean())
HOUSEHOLDS_PER_BUS = (90, 110)  # closed range each bus's count is drawn from
SCALE_SIGMA = 0.3  # log-std of the per-household demand scale
JITTER_SIGMA = 0.05  # log-std of the per-(bus, hour) demand jitter
LOSS_FACTOR = 0.03  # network losses the committed capacity must also cover


class InfeasibleDispatchError(RuntimeError):
    """Demand exceeds total committed-capacity at some hour."""


# the generator fleet, one entry per unit in grid.case.GENERATOR_BUSES order
MIN_OUTPUT = np.array([0.10, 0.10, 0.08, 0.08])      # pu
MAX_OUTPUT = np.array([1.00, 0.85, 0.75, 0.70])      # pu
RAMP_LIMIT = np.array([0.15, 0.15, 0.15, 0.15])      # pu per hour
MARGINAL_COST = np.array([8.0, 12.0, 18.0, 24.0])    # currency per pu-hour


@dataclass
class GenerationPlan:
    commitment: np.ndarray  # (T, 4) bool, column order = grid.case.GENERATOR_BUSES
    setpoint: np.ndarray    # (T, 4) active pu

    @property
    def horizon(self) -> int:
        return self.setpoint.shape[0]


def synthesize_loads(horizon: int, rng: np.random.Generator) -> np.ndarray:
    """Aggregate per-bus household curves into the (T, 9) hourly demand
    matrix: active pu, columns in load-bus order (4, 5, 7, 9..14).

    Household count per bus is drawn once from the closed integer range
    HOUSEHOLDS_PER_BUS; each household contributes shape(hour) * lognormal
    scale, and each (bus, hour) gets one multiplicative lognormal jitter.
    """
    lo, hi = HOUSEHOLDS_PER_BUS
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
    return demand


def plan_generation(demand: np.ndarray) -> GenerationPlan:
    """Greedy merit-order commitment plus proportional dispatch.

    Units of the fleet are committed cheapest-first until capacity
    covers demand * (1 + LOSS_FACTOR); any unit needed at some hour of a day
    stays committed for that whole day (minimum-up simplification). Dispatch
    is proportional to capacity among committed units, clipped to output and
    ramp limits; the slack bus absorbs the (small) residual imbalance.
    """
    T = demand.shape[0]
    n = len(MAX_OUTPUT)
    order = np.argsort(MARGINAL_COST)
    caps, mins = MAX_OUTPUT, MIN_OUTPUT
    ramps = RAMP_LIMIT.tolist()
    target = demand.sum(axis=1) * (1.0 + LOSS_FACTOR)

    infeasible = np.flatnonzero(target > caps.sum())
    if infeasible.size:
        raise InfeasibleDispatchError(
            f"demand exceeds total generation capacity at hour {infeasible[0]}")

    # a unit is committed unless the cheaper units already cover the target;
    # a target <= 0 commits none
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
    # hour before, so it runs in hour order, on Python floats
    rows = np.where(on, p, 0.0).tolist()
    both = (on[1:] & on[:-1]).tolist()
    for t in range(1, T):
        prev, row = rows[t - 1], rows[t]
        for g, flag in enumerate(both[t - 1]):
            if not flag:
                continue
            v, lo, hi = row[g], prev[g] - ramps[g], prev[g] + ramps[g]
            row[g] = lo if v < lo else hi if v > hi else v
    setpoint = np.array(rows).reshape(T, n)

    return GenerationPlan(commitment, setpoint)
