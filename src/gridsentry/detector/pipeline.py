"""End-to-end bundle training and feature extraction over scenario series."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..grid import GridCase, sensor_map_hash
from ..neural import TrainConfig
from ..scenario.generate import LABEL_INDEX
from .models import (ModelBundle, classify, fit_autoencoder, fit_classifier,
                     fit_predictor, predict_and_residual, state_checksum)
from .preprocess import assert_normal_lineage, fit_preprocess, preprocess

# the one table of per-stage training defaults; callers re-seed each fit
STAGE_DEFAULTS = {
    "autoencoder": TrainConfig(learning_rate=1e-3, epochs=60, batch_size=256),
    "predictor": TrainConfig(learning_rate=5e-3, epochs=120, batch_size=8),
    "classifier": TrainConfig(learning_rate=2e-3, epochs=80, batch_size=256),
}


def series_features(bundle: ModelBundle, series, case: GridCase | None = None):
    """(features (M, 78), label indices (M,), timestamps (M,)) for one series.

    Feature row = residual (standardized-difference space) ++ raw observation
    standardized per sensor, both at the residual frame's timestamp; labels
    come from the series frame labels. The raw-standardized observation half
    keeps persistent level shifts visible to the classifier, which first
    differencing would cancel.
    """
    ts, residuals = predict_and_residual(bundle, series, case=case)
    obs = bundle.stats.standardize_raw(np.asarray(series.values)[ts])
    x = np.concatenate([residuals, obs], axis=1)
    labels = np.array([LABEL_INDEX[series.labels[t]] for t in ts])
    return x, labels, ts


def dataset_features(bundle: ModelBundle, series_list,
                     case: GridCase | None = None):
    xs, ys = [], []
    for series in series_list:
        x, y, _ = series_features(bundle, series, case=case)
        xs.append(x)
        ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


def train_bundle(variant: str, series_list, case: GridCase, seed: int = 0,
                 stage_configs: dict | None = None,
                 noise_sigma: float = 0.01) -> ModelBundle:
    """Train one detector variant on a list of ScenarioSeries.

    Stage order: preprocess stats -> autoencoder (AEN variant) -> predictor
    (AEN/RNN variants) -> residual features with frozen upstream models ->
    classifier. Stats, autoencoder, and predictor see normal series only.
    stage_configs maps stage names to TrainConfigs that replace that stage's
    STAGE_DEFAULTS row; fits are seeded seed, seed+1, seed+2 in stage order.
    """
    stages = {**STAGE_DEFAULTS, **(stage_configs or {})}
    normals = [s for s in series_list
               if s.metadata.get("condition", "normal") == "normal"
               and all(lbl == "normal" for lbl in s.labels)]
    if not normals:
        raise ValueError("training set contains no all-normal series")
    assert_normal_lineage(normals)

    stats = fit_preprocess(normals)
    bundle = ModelBundle(variant=variant, stats=stats,
                         sensor_hash=sensor_map_hash(case),
                         noise_sigma=noise_sigma)
    z_normals = [preprocess(s, stats) for s in normals]

    if variant == "AEN_RNN_DNN":
        cfg = replace(stages["autoencoder"], seed=seed)
        enc, dec, hist = fit_autoencoder(np.concatenate(z_normals), cfg)
        bundle.encoder, bundle.decoder = enc, dec
        bundle.history["autoencoder"] = hist
        codes = np.stack([enc.forward(z) for z in z_normals])
        cfg = replace(stages["predictor"], seed=seed + 1)
        bundle.predictor, hist = fit_predictor(codes, cfg)
        bundle.history["predictor"] = hist
    elif variant == "RNN_DNN":
        cfg = replace(stages["predictor"], seed=seed + 1)
        bundle.predictor, hist = fit_predictor(np.stack(z_normals), cfg)
        bundle.history["predictor"] = hist
    elif variant != "SE_DNN":
        raise ValueError(f"unknown variant {variant!r}")

    # residual generation must not touch the frozen feature models
    frozen = {name: state_checksum(m) for name, m in (
        ("encoder", bundle.encoder), ("decoder", bundle.decoder),
        ("predictor", bundle.predictor)) if m is not None}
    x, y = dataset_features(bundle, series_list, case=case)
    for name, digest in frozen.items():
        if state_checksum(getattr(bundle, name)) != digest:
            raise RuntimeError(f"{name} parameters changed during "
                               "residual generation")

    cfg = replace(stages["classifier"], seed=seed + 2)
    bundle.classifier, hist = fit_classifier(x, y, cfg)
    bundle.history["classifier"] = hist
    return bundle


def evaluate_predictions(bundle: ModelBundle, series_list,
                         case: GridCase | None = None):
    """(predicted label indices, true label indices) over a dataset."""
    x, truth = dataset_features(bundle, series_list, case=case)
    names, _ = classify(bundle, x)
    preds = np.array([LABEL_INDEX[name] for name in names])
    return preds, truth
