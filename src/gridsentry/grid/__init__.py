from .case import (Branch, Bus, CaseError, DEFAULT_CASE, GridCase, N_SENSORS,
                   build_admittance, generation_sensor_index, load_case,
                   sensor_map, sensor_map_csv, sensor_map_hash,
                   voltage_sensor_index)
from .estimation import RankDeficientError, StateEstimate, estimate_state
from .powerflow import (PowerFlowSolution, SingularJacobianError, measure,
                        noise_scale, sensor_values, solve_power_flow)

__all__ = [
    "Branch", "Bus", "CaseError", "DEFAULT_CASE", "GridCase", "N_SENSORS",
    "build_admittance", "generation_sensor_index", "load_case", "sensor_map",
    "sensor_map_csv", "sensor_map_hash", "voltage_sensor_index",
    "RankDeficientError", "StateEstimate", "estimate_state",
    "PowerFlowSolution", "SingularJacobianError", "measure", "noise_scale",
    "sensor_values", "solve_power_flow",
]
