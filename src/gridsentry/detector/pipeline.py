"""End-to-end bundle training and feature extraction over scenario series."""

from __future__ import annotations

import numpy as np

from .. import InputError
from ..grid import N_SENSORS
from .models import (CLASSIFIER_INPUT, COMPUTE_DTYPE, LAGS, SUBMODELS,
                     ModelBundle, classify, fit_autoencoder, fit_classifier,
                     fit_predictor, predict_and_residual, state_checksum)
from .preprocess import fit_preprocess, preprocess

# frames per stacked residual forward in feature_rows: a larger stack runs
# faster, but its activations (dropped on return) grow with series x hours
# and set the peak memory; 480 holds four 120-h series or thirteen of 36 h
RESIDUAL_FRAMES = 480


def feature_rows(bundle: ModelBundle, series):
    """The frame table of series, load_dataset's (frames, labels, levels):
    (levels, features, label indices), one entry per residual frame, frames
    LAGS+1 .. T-1 of each series in order.

    A frame's level is its series' severity level, 0 for a normal series.
    Feature row = residual (standardized-difference space) ++ raw
    observation standardized per sensor, both at the frame; labels are the
    frames' own. The raw-standardized observation half keeps persistent
    level shifts visible to the classifier, which first differencing would
    cancel.

    The table is held in COMPUTE_DTYPE, the dtype the classifier trains and
    scores in, and filled in place from slices of as many whole series as
    RESIDUAL_FRAMES frames hold (at least one), so each half is rounded
    once, as it is written. Holdout and severity pick frames from it, so
    each series' features are computed once per stage.
    """
    frames, labels, levels = series
    features = np.empty(frames[:, LAGS + 1:].shape[:2] + (CLASSIFIER_INPUT,),
                        dtype=COMPUTE_DTYPE)
    size = max(1, RESIDUAL_FRAMES // frames.shape[1])
    for k in range(0, len(frames), size):
        group = frames[k:k + size]
        features[k:k + size, :, :N_SENSORS] = predict_and_residual(
            bundle, group)
        features[k:k + size, :, N_SENSORS:] = bundle.stats.standardize_raw(
            group[:, LAGS + 1:])
    return (np.repeat(levels, features.shape[1]),
            features.reshape(-1, CLASSIFIER_INPUT),
            labels[:, LAGS + 1:].ravel())


def train_bundle(variant: str, series, seed: int,
                 dataset: dict) -> ModelBundle:
    """Train one detector variant on load_dataset's (frames, labels, levels).

    Stage order: preprocess stats -> autoencoder (AEN variant) -> predictor
    (AEN/RNN variants) -> residual features with frozen upstream models ->
    classifier. Stats, autoencoder, and predictor see the normal (level 0)
    series only. Each fit trains under its STAGE_DEFAULTS row, seeded
    seed, seed+1, seed+2 in stage order. dataset is the generation
    settings of the series, which the bundle keeps; SE_DNN's residuals
    read its noise_sigma.
    """
    frames, _, levels = series
    normals = frames[levels == 0]
    if not len(normals):
        raise InputError("training set contains no normal series")

    bundle = ModelBundle(variant=variant, stats=fit_preprocess(normals),
                         dataset=dataset)
    if variant != "SE_DNN":
        z = preprocess(normals, bundle.stats)  # (S, T-1, 39)
        if variant == "AEN_RNN_DNN":
            enc, dec, hist = fit_autoencoder(z.reshape(-1, N_SENSORS), seed)
            bundle.encoder, bundle.decoder = enc, dec
            bundle.history["autoencoder"] = hist
            z = enc.forward(z.astype(enc.dtype))[0]
        bundle.predictor, hist = fit_predictor(z, seed + 1)
        bundle.history["predictor"] = hist

    # residual generation must not touch the frozen feature models
    frozen = {name: state_checksum(getattr(bundle, name))
              for name in SUBMODELS[variant] if name != "classifier"}
    _, x, y = feature_rows(bundle, series)
    for name, digest in frozen.items():
        if state_checksum(getattr(bundle, name)) != digest:
            raise RuntimeError(f"{name} parameters changed during "
                               "residual generation")

    bundle.classifier, hist = fit_classifier(x, y, seed + 2)
    bundle.history["classifier"] = hist
    return bundle


def evaluate_predictions(bundle: ModelBundle, series):
    """(predicted label indices, true label indices) over a dataset."""
    _, x, truth = feature_rows(bundle, series)
    return classify(bundle.classifier, x), truth
