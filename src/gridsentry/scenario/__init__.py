from .attacks import (Condition, GENERATOR_BUSES, KINDS, LABELS, LABEL_INDEX,
                      LEVEL_FRACTIONS, THREE_CLASSES, access_set,
                      condition_name, make_condition, mask_measurements,
                      reduce_target, simulate_nominal)
from .generate import STATUS_FLAGS, ScenarioSeries, generate_scenario

__all__ = [
    "Condition", "GENERATOR_BUSES", "KINDS", "LABELS", "LABEL_INDEX",
    "LEVEL_FRACTIONS", "THREE_CLASSES", "access_set", "condition_name",
    "make_condition", "mask_measurements", "reduce_target",
    "simulate_nominal",
    "STATUS_FLAGS", "ScenarioSeries", "generate_scenario",
]
