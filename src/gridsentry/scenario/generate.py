"""Drive the grid through time and emit labeled measurement series."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dispatch import GenerationPlan, LoadProfile
from ..grid import GridCase, N_SENSORS
from ..grid.powerflow import measure, solve_power_flow
from .attacks import (AttackSpec, FaultSpec, GENERATOR_BUSES,
                      mask_measurements, reduce_target, simulate_nominal)

# fixed 9-label order used everywhere downstream
LABELS = ("normal",
          "attack_2", "attack_3", "attack_6", "attack_8",
          "fault_2", "fault_3", "fault_6", "fault_8")
LABEL_INDEX = {name: i for i, name in enumerate(LABELS)}

REACTIVE_RATIO = float(np.tan(np.arccos(0.95)))  # constant 0.95 power factor


@dataclass
class ScenarioSeries:
    values: np.ndarray          # (T, 39)
    labels: list[str]           # per-frame, from LABELS
    metadata: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return self.values.shape[0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("hour," + ",".join(f"s{i:02d}" for i in range(N_SENSORS))
                  + ",label\n")
        for t in range(self.horizon):
            row = ",".join(repr(float(v)) for v in self.values[t])
            buf.write(f"{t},{row},{self.labels[t]}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, metadata: dict | None = None) -> "ScenarioSeries":
        lines = text.strip().splitlines()
        vals, labels = [], []
        for line in lines[1:]:
            parts = line.split(",")
            vals.append([float(v) for v in parts[1:1 + N_SENSORS]])
            labels.append(parts[-1])
        return cls(values=np.array(vals), labels=labels,
                   metadata=metadata or {})

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.write_text(self.to_csv())
        path.with_suffix(".meta.json").write_text(
            json.dumps(self.metadata, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSeries":
        path = Path(path)
        meta_path = path.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        return cls.from_csv(path.read_text(), metadata=meta)


def condition_label(condition) -> str:
    if condition is None:
        return "normal"
    if isinstance(condition, AttackSpec):
        return f"attack_{condition.target_generator}"
    if isinstance(condition, FaultSpec):
        return f"fault_{condition.target_generator}"
    raise TypeError(f"unsupported condition {condition!r}")


def generate_scenario(case: GridCase, plan: GenerationPlan, loads: LoadProfile,
                      condition: AttackSpec | FaultSpec | None,
                      noise_sigma: float, seed: int) -> ScenarioSeries:
    """Hour loop: apply condition to the control, solve, measure, mask.

    Measurement and masking noise use per-hour generator streams derived
    from the seed, so an attack and a fault with the same seed differ only
    on the attack's access-set sensors.
    """
    if plan.horizon != loads.horizon:
        raise ValueError("plan and loads disagree on horizon")
    T = plan.horizon
    label = condition_label(condition)
    is_attack = isinstance(condition, AttackSpec)
    load_idx = [b - 1 for b in case.load_buses]

    values = np.empty((T, N_SENSORS))
    labels: list[str] = []
    noop_hours: list[int] = []
    gap_hours: list[int] = []
    template_fallback_hours: list[int] = []
    warm = None
    attacker_warm = None
    last_template = None
    last_values = None

    for t in range(T):
        lp = np.zeros(case.n_bus)
        lp[load_idx] = loads.demand[t]
        lq = lp * REACTIVE_RATIO
        u = plan.setpoint[t].astype(float)
        committed = plan.commitment[t]

        applied = False
        if condition is not None:
            u_phys, applied = reduce_target(u, committed, condition, t)
            if (condition.start_hour <= t < condition.end_hour) and not applied:
                noop_hours.append(t)
        else:
            u_phys = u

        setp = {b: u_phys[i] for i, b in enumerate(GENERATOR_BUSES)}
        sol = solve_power_flow(case, lp, lq, setp, warm_start=warm)
        rng_meas = np.random.default_rng([seed, 0, t])
        if sol.converged:
            warm = sol
            row = last_values = measure(case, sol, noise_sigma, rng_meas)
        else:
            gap_hours.append(t)
            row = last_values if last_values is not None else np.full(N_SENSORS, np.nan)

        if is_attack and applied:
            y_hat, nominal_sol = simulate_nominal(case, lp, lq, u,
                                                  warm_start=attacker_warm)
            if y_hat is None:
                template_fallback_hours.append(t)
                y_hat = last_template
            else:
                attacker_warm = nominal_sol
                last_template = y_hat
            if y_hat is not None:
                rng_mask = np.random.default_rng([seed, 1, t])
                row = mask_measurements(row, y_hat, condition.sensor_access,
                                        noise_sigma, rng_mask)

        values[t] = row
        in_window = (condition is not None
                     and condition.start_hour <= t < condition.end_hour)
        labels.append(label if in_window else "normal")

    meta = {
        "condition": label,
        "seed": seed,
        "noise_sigma": noise_sigma,
        "horizon": T,
        "noop_hours": noop_hours,
        "gap_hours": gap_hours,
        "template_fallback_hours": template_fallback_hours,
    }
    if condition is not None:
        meta.update(target=condition.target_generator, level=condition.level,
                    window=[condition.start_hour, condition.end_hour])
    return ScenarioSeries(values=values, labels=labels, metadata=meta)
