"""Drive the grid through time and emit labeled measurement series."""

from __future__ import annotations

import math
import os
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


# a series' per-hour status lists, as bits of its row of a dataset's
# status array
STATUS_FLAGS = {"gap_hours": 1, "template_fallback_hours": 2,
                "noop_hours": 4}


@dataclass
class ScenarioSeries:
    values: np.ndarray  # (T, 39)
    metadata: dict      # the per-hour status lists of STATUS_FLAGS

    @classmethod
    def save(cls, path: str | Path, status_path: str | Path, series,
             shape: tuple) -> np.ndarray:
        """Write the values of the shape[0] series that series yields as one
        float64 array of shape (S, T, 39) at path, each written and dropped
        before the next is taken, and their STATUS_FLAGS as one (S, T)
        uint8 array at status_path; that status array."""
        series, status = iter(series), np.zeros(shape[:2], dtype=np.uint8)
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
                "fortran_order": False, "shape": shape})
            for row in status:
                one = next(series)
                one.values.tofile(fh)
                for key, flag in STATUS_FLAGS.items():
                    row[one.metadata[key]] |= flag
                del one  # before the next one is generated
        with open(status_path, "wb") as fh:
            np.lib.format.write_array(fh, status, allow_pickle=False)
        return status

    @classmethod
    def load(cls, path: str | Path, names: list[str], horizon: int,
             rows) -> np.ndarray:
        """The given rows of the values array save wrote at path for the
        series named names, read one by one into a float64 (len(rows),
        horizon, 39) stack. The file must hold one float64 array of shape
        (len(names), horizon, 39) and nothing after it; a non-finite frame
        of a row read, such as a leading power-flow gap hour, is refused by
        its series and hour. InputError names the file."""
        shape = (len(names), horizon, N_SENSORS)
        frames = np.empty((len(rows), horizon, N_SENSORS))
        try:
            with open(path, "rb") as fh:
                # the header of a later version does not parse as 1.0's
                np.lib.format.read_magic(fh)
                found, fortran, dtype = (
                    np.lib.format.read_array_header_1_0(fh))
                if dtype != np.float64 or found != shape or fortran:
                    kind = f"Fortran-ordered {dtype}" if fortran else dtype
                    raise ValueError(f"a {kind} array of shape {found}; the "
                                     f"config gives float64 of shape {shape}")
                start, size = fh.tell(), frames.itemsize * math.prod(shape)
                written = os.fstat(fh.fileno()).st_size - start
                if written != size:
                    raise ValueError("bytes after the array" if written > size
                                     else "the array is not fully written")
                for frame, k in zip(frames, rows):
                    fh.seek(start + k * frame.nbytes)
                    fh.readinto(frame)
                    finite = np.isfinite(frame).all(axis=1)
                    if not finite.all():
                        raise ValueError(
                            f"non-finite frames of series {names[k]} at "
                            f"hours {np.flatnonzero(~finite).tolist()}")
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
        return frames


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
