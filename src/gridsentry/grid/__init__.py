from .case import (Branch, Bus, CaseError, DEFAULT_CASE, GridCase, N_SENSORS,
                   load_case, sensor_map, sensor_map_csv, sensor_map_hash)
from .estimation import RankDeficientError, StateEstimate, estimate_state
from .powerflow import (PowerFlowSolution, measure, noise_scale,
                        solve_power_flow)

__all__ = [
    "Branch", "Bus", "CaseError", "DEFAULT_CASE", "GridCase", "N_SENSORS",
    "load_case", "sensor_map", "sensor_map_csv", "sensor_map_hash",
    "RankDeficientError", "StateEstimate", "estimate_state",
    "PowerFlowSolution", "measure", "noise_scale", "solve_power_flow",
]
