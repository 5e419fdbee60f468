from .case import (Branch, Bus, DEFAULT_CASE, GridCase, N_SENSORS, load_case,
                   sensor_map, sensor_map_hash)
from .estimation import RankDeficientError, estimate_state
from .powerflow import (PowerFlowSolution, measure, noise_scale,
                        solve_power_flow)

__all__ = [
    "Branch", "Bus", "DEFAULT_CASE", "GridCase", "N_SENSORS",
    "load_case", "sensor_map", "sensor_map_hash",
    "RankDeficientError", "estimate_state",
    "PowerFlowSolution", "measure", "noise_scale", "solve_power_flow",
]
