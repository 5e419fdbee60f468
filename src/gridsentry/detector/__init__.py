from .chisquare import chi_square_detect
from .models import (CLASSIFIER_INPUT, CODE_SIZE, LAGS, ModelBundle,
                     SensorMapMismatchError,
                     UntrainedBundleError, VARIANTS, check_sensor_map,
                     classify, fit_autoencoder, fit_classifier, fit_predictor,
                     load_bundle, predict_and_residual, save_bundle,
                     state_checksum)
from .pipeline import (dataset_features, evaluate_predictions, series_features,
                       train_bundle)
from .preprocess import (EPSILON, PreprocessStats, assert_normal_lineage,
                         fit_preprocess, preprocess)

__all__ = [
    "chi_square_detect", "CLASSIFIER_INPUT", "CODE_SIZE", "LAGS",
    "ModelBundle", "SensorMapMismatchError",
    "UntrainedBundleError", "VARIANTS", "check_sensor_map", "classify",
    "fit_autoencoder", "fit_classifier", "fit_predictor", "load_bundle",
    "predict_and_residual", "save_bundle", "state_checksum",
    "dataset_features", "evaluate_predictions", "series_features",
    "train_bundle", "EPSILON", "PreprocessStats", "assert_normal_lineage",
    "fit_preprocess", "preprocess",
]
