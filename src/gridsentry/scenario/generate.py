"""Drive the grid through time and emit labeled measurement series."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import InputError
from ..dispatch import GenerationPlan
from ..grid import GridCase, N_SENSORS
from ..grid.powerflow import measure, solve_power_flow
from .attacks import (Condition, mask_measurements, reduce_target,
                      simulate_nominal)

REACTIVE_RATIO = float(np.tan(np.arccos(0.95)))  # constant 0.95 power factor


class SeriesFileError(InputError):
    """A series file, or a dataset of them, refused as it loads."""


@dataclass
class ScenarioSeries:
    values: np.ndarray  # (T, 39)
    metadata: dict      # the sidecar: the per-hour status lists

    def save(self, path: str | Path) -> list[Path]:
        """Write the values file at path and its .meta.json sidecar beside
        it; the paths of the two files."""
        path = Path(path)
        # through a handle, as np.save appends .npy to a name without it
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, self.values, allow_pickle=False)
        sidecar = path.with_suffix(".meta.json")
        sidecar.write_text(json.dumps(self.metadata, indent=2, sort_keys=True))
        return [path, sidecar]

    @classmethod
    def load(cls, path: str | Path, horizon: int) -> np.ndarray:
        """The values save wrote at path: a float64 array of one row of
        N_SENSORS finite values for each of horizon hours. A non-finite
        frame, such as a leading power-flow gap hour, is refused by its
        hour. SeriesFileError names the file."""
        shape = (horizon, N_SENSORS)
        try:
            with open(path, "rb") as fh:
                values = np.lib.format.read_array(fh, allow_pickle=False)
                if fh.read(1):  # read_array stops at the header's size
                    raise ValueError("bytes after the array")
            if values.dtype != np.float64 or values.shape != shape:
                raise ValueError(f"a {values.dtype} array of shape "
                                 f"{values.shape}; the config gives float64 "
                                 f"of shape {shape}")
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                raise ValueError("non-finite frames at hours "
                                 f"{np.flatnonzero(~finite).tolist()}")
        except ValueError as exc:
            raise SeriesFileError(f"{path}: {exc}") from None
        return values


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
        "noop_hours": np.flatnonzero(in_window & ~applied).tolist(),
        "gap_hours": np.flatnonzero(~converged).tolist(),
        "template_fallback_hours": template_fallback_hours,
    }
    return ScenarioSeries(values=values, metadata=meta)
