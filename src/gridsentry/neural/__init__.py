from .layers import (Dense, LSTM, LeakyReLU, NumericalError, ReLU,
                     SequencePredictor, Sequential, Sigmoid, softmax)
from .losses import mse, softmax_cross_entropy
from .optim import Adam
from .serialize import get_state, set_state
from .train import TrainConfig, train

__all__ = [
    "Dense", "LSTM", "LeakyReLU", "NumericalError", "ReLU",
    "SequencePredictor", "Sequential", "Sigmoid", "softmax", "mse",
    "softmax_cross_entropy", "Adam", "get_state", "set_state", "TrainConfig",
    "train",
]
