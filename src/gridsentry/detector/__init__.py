from .models import (CLASSIFIER_INPUT, CODE_SIZE, LAGS, ModelBundle,
                     VARIANTS, classify, fit_autoencoder, fit_classifier,
                     fit_predictor, load_bundle, predict_and_residual,
                     save_bundle, state_checksum)
from .pipeline import evaluate_predictions, feature_rows, train_bundle
from .preprocess import EPSILON, PreprocessStats, fit_preprocess, preprocess

__all__ = [
    "CLASSIFIER_INPUT", "CODE_SIZE", "LAGS", "ModelBundle", "VARIANTS",
    "classify", "fit_autoencoder", "fit_classifier", "fit_predictor",
    "load_bundle", "predict_and_residual", "save_bundle", "state_checksum",
    "evaluate_predictions", "feature_rows", "train_bundle",
    "EPSILON", "PreprocessStats", "fit_preprocess", "preprocess",
]
