from .models import (CLASSIFIER_INPUT, CODE_SIZE, LAGS, ModelBundle,
                     SensorMapMismatchError, UntrainedBundleError, VARIANTS,
                     classify, fit_autoencoder, fit_classifier, fit_predictor,
                     load_bundle, predict_and_residual, save_bundle,
                     state_checksum, trained)
from .pipeline import (dataset_features, evaluate_predictions, feature_rows,
                       series_features, train_bundle)
from .preprocess import (EPSILON, PreprocessStats, assert_normal_lineage,
                         fit_preprocess, preprocess)

__all__ = [
    "CLASSIFIER_INPUT", "CODE_SIZE", "LAGS", "ModelBundle",
    "SensorMapMismatchError", "UntrainedBundleError", "VARIANTS", "classify",
    "fit_autoencoder", "fit_classifier", "fit_predictor", "load_bundle",
    "predict_and_residual", "save_bundle", "state_checksum", "trained",
    "dataset_features", "evaluate_predictions", "feature_rows",
    "series_features", "train_bundle", "EPSILON", "PreprocessStats",
    "assert_normal_lineage", "fit_preprocess", "preprocess",
]
