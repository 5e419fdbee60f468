"""Covert attack and fault primitives on the generator control vector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid import (GridCase, generation_sensor_index, voltage_sensor_index)
from ..grid.powerflow import (PowerFlowSolution, noise_scale, sensor_values,
                              solve_power_flow)

# severity level -> fraction of planned generation removed
LEVEL_FRACTIONS = {1: 0.2, 2: 0.4, 3: 0.6, 4: 0.8, 5: 1.0}

GENERATOR_BUSES = (2, 3, 6, 8)


def access_set(case: GridCase, target_bus: int) -> frozenset[int]:
    """Sensors tied to one generator: its generation and voltage sensors plus
    the flow sensors of all incident branches."""
    if target_bus not in case.generator_buses:
        raise ValueError(f"bus {target_bus} is not a generator bus")
    idx = {generation_sensor_index(case, target_bus),
           voltage_sensor_index(case, target_bus)}
    idx.update(case.branches_at(target_bus))
    return frozenset(idx)


@dataclass(frozen=True)
class AttackSpec:
    target_generator: int
    level: int
    start_hour: int
    end_hour: int
    sensor_access: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        _check_window(self)

    @property
    def fraction(self) -> float:
        return LEVEL_FRACTIONS[self.level]


@dataclass(frozen=True)
class FaultSpec:
    target_generator: int
    level: int
    start_hour: int
    end_hour: int

    def __post_init__(self):
        _check_window(self)

    @property
    def fraction(self) -> float:
        return LEVEL_FRACTIONS[self.level]


def _check_window(spec) -> None:
    if spec.target_generator not in GENERATOR_BUSES:
        raise ValueError(f"target must be a generator bus, got {spec.target_generator}")
    if spec.level not in LEVEL_FRACTIONS:
        raise ValueError(f"level must be 1..5, got {spec.level}")
    if not 0 <= spec.start_hour < spec.end_hour:
        raise ValueError("need 0 <= start_hour < end_hour")


def make_attack_spec(case: GridCase, target: int, level: int,
                     start_hour: int, end_hour: int) -> AttackSpec:
    return AttackSpec(target, level, start_hour, end_hour,
                      access_set(case, target))


def reduce_target(u: np.ndarray, committed: np.ndarray,
                  spec: AttackSpec | FaultSpec, t: int
                  ) -> tuple[np.ndarray, bool]:
    """Control vector after the additive signal a = -fraction * u on the
    target entry, and whether it applied this hour. Attacks and faults share
    this control path; only attacks mask sensors downstream."""
    if not spec.start_hour <= t < spec.end_hour:
        return u.copy(), False
    g = GENERATOR_BUSES.index(spec.target_generator)
    if not committed[g]:
        return u.copy(), False  # no-op; caller logs the hour
    out = u.copy()
    out[g] = out[g] + (-spec.fraction * out[g])
    return out, True


def simulate_nominal(case: GridCase, loads_p: np.ndarray,
                     loads_q: np.ndarray, u: np.ndarray,
                     warm_start: PowerFlowSolution | None = None
                     ) -> tuple[np.ndarray | None, PowerFlowSolution | None]:
    """Attacker's disguise template: noiseless sensors under the original
    control, computed on the attacker's grid model `case`. None on
    non-convergence."""
    setp = {b: u[i] for i, b in enumerate(GENERATOR_BUSES)}
    sol = solve_power_flow(case, loads_p, loads_q, setp, warm_start=warm_start)
    if not sol.converged:
        return None, None
    return sensor_values(case, sol), sol


def mask_measurements(true_values: np.ndarray, y_hat: np.ndarray,
                      access: frozenset[int], noise_sigma: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Replace access-set sensors with the simulated template plus fresh noise."""
    masked = true_values.copy()
    if not access:
        return masked
    idx = sorted(access)
    if noise_sigma == 0:
        masked[idx] = y_hat[idx]
    else:
        scale = noise_scale(y_hat, noise_sigma)
        masked[idx] = y_hat[idx] + rng.standard_normal(len(idx)) * scale[idx]
    return masked
