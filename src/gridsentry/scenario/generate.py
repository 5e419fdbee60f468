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
from .attacks import (Condition, GENERATOR_BUSES, LABELS, LEVEL_FRACTIONS,
                      mask_measurements, reduce_target, simulate_nominal)

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
        for t, row in enumerate(self.values.tolist()):
            buf.write(f"{t},{','.join(map(repr, row))},{self.labels[t]}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, metadata: dict | None = None) -> "ScenarioSeries":
        rows = text.strip().splitlines()[1:]
        # numpy's parser rounds correctly, so values equal float(str)
        values = np.loadtxt(rows, delimiter=",",
                            usecols=range(1, 1 + N_SENSORS), ndmin=2)
        labels = [row.rsplit(",", 1)[1] for row in rows]
        return cls(values=values, labels=labels, metadata=metadata or {})

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.write_text(self.to_csv())
        path.with_suffix(".meta.json").write_text(
            json.dumps(self.metadata, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSeries":
        # a missing sidecar or condition raises: without its condition
        # the series would pass for a normal one, and an attack or fault
        # without its severity would join every level's training rows
        path = Path(path)
        sidecar = path.with_suffix(".meta.json")
        meta = json.loads(sidecar.read_text())
        condition = meta.get("condition") if isinstance(meta, dict) else None
        if condition not in LABELS:
            raise ValueError(f"{sidecar} records no condition from LABELS, "
                             f"got {condition!r}")
        if condition != "normal" and (
                {"level", "target", "window"} - set(meta)
                or meta["level"] not in list(LEVEL_FRACTIONS)):
            raise ValueError(f"{sidecar} records a {condition} series without "
                             "target, window and a level from LEVEL_FRACTIONS")
        return cls.from_csv(path.read_text(), metadata=meta)


def generate_scenario(case: GridCase, plan: GenerationPlan, loads: LoadProfile,
                      condition: Condition | None,
                      noise_sigma: float, seed: int) -> ScenarioSeries:
    """Hour loop: apply condition to the control, solve, measure, mask.

    Measurement and masking noise use per-hour generator streams derived
    from the seed, so an attack and a fault with the same seed differ only
    on the attack's access-set sensors.
    """
    if plan.horizon != loads.horizon:
        raise ValueError("plan and loads disagree on horizon")
    T = plan.horizon
    label = "normal" if condition is None else condition.label
    # 14-bus demand of every hour; the solves get read-only row views
    load_p = np.zeros((T, case.n_bus))
    load_p[:, [b - 1 for b in case.load_buses]] = loads.demand
    load_q = load_p * REACTIVE_RATIO
    load_p.setflags(write=False)
    load_q.setflags(write=False)

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
        lp, lq = load_p[t], load_q[t]
        u = plan.setpoint[t].astype(float)

        in_window = (condition is not None
                     and condition.start_hour <= t < condition.end_hour)
        applied = False
        u_phys = u
        if in_window:
            u_phys, applied = reduce_target(u, plan.commitment[t],
                                             condition)
            if not applied:
                noop_hours.append(t)

        setp = {b: u_phys[i] for i, b in enumerate(GENERATOR_BUSES)}
        sol = solve_power_flow(case, lp, lq, setp, warm_start=warm)
        rng_meas = np.random.default_rng([seed, 0, t])
        if sol.converged:
            warm = sol
            row = last_values = measure(sol, noise_sigma, rng_meas)
        else:
            gap_hours.append(t)
            row = last_values if last_values is not None else np.full(N_SENSORS, np.nan)

        if applied and condition.kind == "attack":
            nominal = simulate_nominal(case, lp, lq, u,
                                       warm_start=attacker_warm)
            if nominal is None:
                template_fallback_hours.append(t)
                y_hat = last_template
            else:
                attacker_warm = nominal
                y_hat = last_template = nominal.sensors
            if y_hat is not None:
                rng_mask = np.random.default_rng([seed, 1, t])
                row = mask_measurements(row, y_hat, condition.sensor_access,
                                        noise_sigma, rng_mask)

        values[t] = row
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
