from .attacks import (AttackSpec, FaultSpec, GENERATOR_BUSES, LEVEL_FRACTIONS,
                      access_set, make_attack_spec, mask_measurements,
                      reduce_target, simulate_nominal)
from .generate import (LABELS, LABEL_INDEX, ScenarioSeries, condition_label,
                       generate_scenario)

__all__ = [
    "AttackSpec", "FaultSpec", "GENERATOR_BUSES", "LEVEL_FRACTIONS",
    "access_set", "make_attack_spec", "mask_measurements", "reduce_target",
    "simulate_nominal",
    "LABELS", "LABEL_INDEX", "ScenarioSeries", "condition_label",
    "generate_scenario",
]
