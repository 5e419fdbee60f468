"""Drive the grid through time and emit labeled measurement series."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dispatch import GenerationPlan
from ..grid import GridCase, N_SENSORS
from ..grid.powerflow import measure, solve_power_flow
from .attacks import (Condition, LABELS, LEVEL_FRACTIONS, mask_measurements,
                      reduce_target, simulate_nominal)

REACTIVE_RATIO = float(np.tan(np.arccos(0.95)))  # constant 0.95 power factor


@dataclass
class ScenarioSeries:
    values: np.ndarray          # (T, 39)
    labels: list[str]           # per-frame, from LABELS
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("hour," + ",".join(f"s{i:02d}" for i in range(N_SENSORS))
                  + ",label\n")
        for t, row in enumerate(self.values.tolist()):
            buf.write(f"{t},{','.join(map(repr, row))},{self.labels[t]}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, metadata: dict | None = None) -> "ScenarioSeries":
        """Parse to_csv's text. Row t must hold hour t and a label from
        LABELS, and a metadata horizon must match the row count; the
        ValueError names the row."""
        metadata = metadata or {}
        rows = text.strip().splitlines()[1:]
        for t, row in enumerate(rows):
            if not row.startswith(f"{t},"):
                raise ValueError(f"row {t}: hour {row.split(',', 1)[0]!r}, "
                                 f"expected {t}")
        labels = [row.rsplit(",", 1)[1] for row in rows]
        if not set(labels) <= set(LABELS):
            t = next(t for t, label in enumerate(labels) if label not in LABELS)
            raise ValueError(f"row {t}: label {labels[t]!r} is not in LABELS")
        horizon = metadata.get("horizon", len(rows))
        if horizon != len(rows):
            raise ValueError(f"row {min(horizon, len(rows))}: the file holds "
                             f"{len(rows)} rows, its metadata a horizon of "
                             f"{horizon}")
        # numpy's parser rounds correctly, so values equal float(str)
        values = np.loadtxt(rows, delimiter=",",
                            usecols=range(1, 1 + N_SENSORS), ndmin=2)
        return cls(values=values, labels=labels, metadata=metadata)

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
        try:
            return cls.from_csv(path.read_text(), metadata=meta)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def generate_scenario(case: GridCase, plan: GenerationPlan, demand: np.ndarray,
                      condition: Condition | None,
                      noise_sigma: float, seed: int) -> ScenarioSeries:
    """Apply the condition to the plan's controls, solve each hour, then
    measure, fill gap hours and mask the whole series.

    The hour loop holds only the warm-started solves and the draws of the
    per-hour generators default_rng([seed, 0, t]) (measurement noise) and
    default_rng([seed, 1, t]) (mask noise), so an attack and a fault with
    the same seed differ only on the attack's access-set sensors. A gap
    hour, whose solve did not converge, repeats the last measured row
    before any mask (NaN before the first converged hour).
    """
    if plan.horizon != demand.shape[0]:
        raise ValueError("plan and demand disagree on horizon")
    T = plan.horizon
    label = "normal" if condition is None else condition.label
    # 14-bus demand of every hour; the solves get read-only row views
    load_p = np.zeros((T, case.n_bus))
    load_p[:, [b - 1 for b in case.load_buses]] = demand
    load_q = load_p * REACTIVE_RATIO
    load_p.setflags(write=False)
    load_q.setflags(write=False)

    # the controls of every hour: the plan's setpoints, cut where the
    # condition applies; a window hour whose target is uncommitted is a no-op
    u = plan.setpoint.astype(float)
    u_phys = u.copy()
    in_window = np.zeros(T, dtype=bool)
    applied = np.zeros(T, dtype=bool)
    access = frozenset()
    if condition is not None:
        window = slice(condition.start_hour, condition.end_hour)
        in_window[window] = True
        u_phys[window], applied[window] = reduce_target(
            u[window], plan.commitment[window], condition)
        access = condition.sensor_access
    attacked = applied & (condition is not None and condition.kind == "attack")

    converged = np.zeros(T, dtype=bool)
    clean = np.zeros((T, N_SENSORS))  # noiseless sensors of converged hours
    noise = np.zeros((T, N_SENSORS))
    masked = np.zeros(T, dtype=bool)
    templates = np.empty((T, N_SENSORS))
    mask_noise = np.empty((T, len(access)))
    template_fallback_hours: list[int] = []
    warm = attacker_warm = None
    for t in range(T):
        lp, lq = load_p[t], load_q[t]
        sol = solve_power_flow(case, lp, lq, u_phys[t], warm_start=warm)
        if sol.converged:
            warm = sol
            converged[t] = True
            clean[t] = sol.sensors
            noise[t] = np.random.default_rng(
                [seed, 0, t]).standard_normal(N_SENSORS)
        if attacked[t]:
            nominal = simulate_nominal(case, lp, lq, u[t],
                                       warm_start=attacker_warm)
            if nominal is None:
                template_fallback_hours.append(t)
            else:
                attacker_warm = nominal
            if attacker_warm is not None:  # this hour's template or the last
                masked[t] = True
                templates[t] = attacker_warm.sensors
                mask_noise[t] = np.random.default_rng(
                    [seed, 1, t]).standard_normal(len(access))

    # a gap hour repeats the last converged hour's sensors and draws, so
    # its row is that hour's measurement; before the first one it is NaN
    last = np.maximum.accumulate(np.where(converged, np.arange(T), 0))
    values = measure(clean[last], noise_sigma, noise[last])
    values[~np.logical_or.accumulate(converged)] = np.nan
    values[masked] = mask_measurements(values[masked], templates[masked],
                                       access, noise_sigma,
                                       mask_noise[masked])

    meta = {
        "condition": label,
        "seed": seed,
        "noise_sigma": noise_sigma,
        "horizon": T,
        "noop_hours": np.flatnonzero(in_window & ~applied).tolist(),
        "gap_hours": np.flatnonzero(~converged).tolist(),
        "template_fallback_hours": template_fallback_hours,
    }
    if condition is not None:
        meta.update(target=condition.target_generator, level=condition.level,
                    window=[condition.start_hour, condition.end_hour])
    labels = [label if hour else "normal" for hour in in_window.tolist()]
    return ScenarioSeries(values=values, labels=labels, metadata=meta)
