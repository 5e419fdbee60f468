"""Copy a model's parameters out of and back into its flat parameter view."""

from __future__ import annotations

import numpy as np


def get_state(model) -> dict[str, np.ndarray]:
    return {name: params[k].copy() for name, params, _, k in model.parameters()}


def set_state(model, state: dict[str, np.ndarray]) -> None:
    """Copy `state` into the model's parameters, which take the dtype of
    the state's arrays. No gradient is made: a fit binds its own."""
    for name, params, _, k in model.parameters():
        if name not in state:
            raise KeyError(f"missing parameter '{name}' in saved state")
        if state[name].shape != params[k].shape:
            raise ValueError(f"shape mismatch for '{name}'")
        params[k] = state[name].copy()

