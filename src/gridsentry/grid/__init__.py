from .case import (Branch, Bus, DEFAULT_CASE, GridCase, N_SENSORS, load_case,
                   sensor_map)
from .estimation import (RankDeficientError, estimate_state,
                         linearized_predictions)
from .powerflow import (PowerFlowSolution, measure, noise_scale,
                        solve_power_flow)

__all__ = [
    "Branch", "Bus", "DEFAULT_CASE", "GridCase", "N_SENSORS",
    "load_case", "sensor_map",
    "RankDeficientError", "estimate_state", "linearized_predictions",
    "PowerFlowSolution", "measure", "noise_scale", "solve_power_flow",
]
