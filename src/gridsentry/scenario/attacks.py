"""Attack and fault conditions, the labels they derive, and the covert
attack primitives on the generator control vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid import GridCase, sensor_map
from ..grid.case import GENERATOR_BUSES
from ..grid.powerflow import PowerFlowSolution, noise_scale, solve_power_flow

# severity level -> fraction of planned generation removed
LEVEL_FRACTIONS = {1: 0.2, 2: 0.4, 3: 0.6, 4: 0.8, 5: 1.0}


def access_set(case: GridCase, target_bus: int) -> frozenset[int]:
    """Sensors tied to one generator: its generation and voltage sensors plus
    the flow sensors of all incident branches."""
    if target_bus not in case.generator_buses:
        raise ValueError(f"bus {target_bus} is not a generator bus")
    idx = {i for i, kind, element in sensor_map(case)
           if kind != "flow" and element == str(target_bus)}
    idx.update(case.branches_at(target_bus))
    return frozenset(idx)


KINDS = ("attack", "fault")


def condition_name(kind: str, bus: int) -> str:
    """Frame label of a `kind` condition on generator `bus`; the one place
    a label is spelled."""
    return f"{kind}_{bus}"


# fixed 9-label order used everywhere downstream
LABELS = ("normal", *(condition_name(kind, bus)
                      for kind in KINDS for bus in GENERATOR_BUSES))
LABEL_INDEX = {name: i for i, name in enumerate(LABELS)}
THREE_CLASSES = ("normal", *KINDS)


@dataclass(frozen=True)
class Condition:
    """An attack or a fault: the same cut of the target generator's output
    over hours [start_hour, end_hour). An attack also replaces the sensors
    in sensor_access with the attacker's template; a fault's is empty."""

    kind: str
    target_generator: int
    level: int
    start_hour: int
    end_hour: int
    sensor_access: frozenset[int]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.target_generator not in GENERATOR_BUSES:
            raise ValueError(
                f"target must be a generator bus, got {self.target_generator}")
        if self.level not in LEVEL_FRACTIONS:
            raise ValueError(f"level must be 1..5, got {self.level}")
        if not 0 <= self.start_hour < self.end_hour:
            raise ValueError("need 0 <= start_hour < end_hour")

    @property
    def label(self) -> str:
        return condition_name(self.kind, self.target_generator)

    @property
    def fraction(self) -> float:
        return LEVEL_FRACTIONS[self.level]


def make_condition(case: GridCase, kind: str, target: int, level: int,
                   start_hour: int, end_hour: int) -> Condition:
    """A `kind` condition on generator `target`; an attack reaches the
    sensors of access_set(case, target)."""
    access = access_set(case, target) if kind == "attack" else frozenset()
    return Condition(kind, target, level, start_hour, end_hour, access)


def reduce_target(u: np.ndarray, committed: np.ndarray,
                  condition: Condition) -> tuple[np.ndarray, np.ndarray]:
    """Control vectors (..., 4) of hours inside the condition's window after
    the additive signal a = -fraction * u on the target entry, and where it
    applied: the hours whose target unit is committed. Attacks and faults
    share this control path; only attacks mask sensors downstream."""
    g = GENERATOR_BUSES.index(condition.target_generator)
    applied = committed[..., g].copy()
    out = u.copy()
    cut = out[..., g] + (-condition.fraction * out[..., g])
    out[..., g] = np.where(applied, cut, out[..., g])
    return out, applied


def simulate_nominal(case: GridCase, loads_p: np.ndarray,
                     loads_q: np.ndarray, u: np.ndarray,
                     warm_start: PowerFlowSolution | None = None
                     ) -> PowerFlowSolution | None:
    """Attacker's disguise template: the solution under the original
    control, computed on the attacker's grid model `case`, whose `sensors`
    are the template. None on non-convergence."""
    sol = solve_power_flow(case, loads_p, loads_q, u, warm_start=warm_start)
    return sol if sol.converged else None


def mask_measurements(values: np.ndarray, y_hat: np.ndarray,
                      access: frozenset[int], noise_sigma: float,
                      noise: np.ndarray) -> np.ndarray:
    """Frames (..., 39) with the access-set sensors replaced by the
    templates y_hat (..., 39) plus noise_scale-scaled standard-normal draws
    `noise` (..., len(access)), in sorted sensor order; a new array."""
    masked = values.copy()
    idx = sorted(access)
    scale = noise_scale(y_hat[..., idx], noise_sigma)
    masked[..., idx] = y_hat[..., idx] + noise * scale
    return masked
