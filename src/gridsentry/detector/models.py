"""The three detection pipelines and their trained-model bundle.

Variant map:
  AEN_RNN_DNN - autoencoder code space, recurrent one-step predictor,
                residual = standardized diff minus decoded prediction
  RNN_DNN     - recurrent predictor straight in the 39-dim diff space
  SE_DNN      - residual from weighted-least-squares state estimation
All variants feed the same 78-dim (residual ++ observation) classifier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..grid import (GridCase, N_SENSORS, estimate_state, noise_scale,
                    sensor_map_hash)
from ..neural import (Dense, LeakyReLU, ReLU, SequencePredictor, Sequential,
                      Sigmoid, TrainConfig, get_state, set_state, softmax,
                      train)
from ..scenario.generate import LABELS
from .preprocess import PreprocessStats, preprocess

VARIANTS = ("AEN_RNN_DNN", "RNN_DNN", "SE_DNN")

CODE_SIZE = 13
LAGS = 10
CLASSIFIER_INPUT = 2 * N_SENSORS  # residual ++ observation = 78
N_LABELS = len(LABELS)

# hidden widths are not pinned down by the problem statement; fixed here
AEN_HIDDEN = (32, 20)
PREDICTOR_HIDDEN = 32
CLASSIFIER_HIDDEN = (64, 32)

BUNDLE_FORMAT_VERSION = 2


class UntrainedBundleError(RuntimeError):
    """A pipeline stage required by the variant has not been trained."""


class SensorMapMismatchError(RuntimeError):
    """Bundle was trained against a different sensor index map."""


@dataclass
class ModelBundle:
    variant: str
    stats: PreprocessStats
    classifier: Sequential | None = None
    encoder: Sequential | None = None
    decoder: Sequential | None = None
    predictor: SequencePredictor | None = None
    sensor_hash: str = ""
    noise_sigma: float = 0.01
    history: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.classifier is not None:
            head = self.classifier.layers[0]
            tail = self.classifier.layers[-1]
            if head.params["W"].shape[0] != CLASSIFIER_INPUT:
                raise ValueError(f"classifier input must be {CLASSIFIER_INPUT}")
            if tail.params["W"].shape[1] != N_LABELS:
                raise ValueError(f"classifier output must be {N_LABELS}")


def state_checksum(model) -> str:
    """Stable digest of a model's parameters (frozen-feature audits)."""
    digest = hashlib.sha256()
    for name, arr in sorted(get_state(model).items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _mlp(widths, activations, rng):
    layers = []
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        layers.append(Dense(a, b, rng))
        if i < len(activations):
            layers.append(activations[i]())
    return Sequential(layers)


def build_autoencoder(rng: np.random.Generator,
                      hidden=AEN_HIDDEN, code_size=CODE_SIZE):
    enc = _mlp((N_SENSORS, *hidden, code_size),
               [LeakyReLU] * len(hidden), rng)
    dec = _mlp((code_size, *reversed(hidden), N_SENSORS),
               [LeakyReLU] * len(hidden), rng)
    return enc, dec


def build_classifier(rng: np.random.Generator, hidden=CLASSIFIER_HIDDEN):
    # ReLU then Sigmoid hidden layers, softmax applied in the fused loss
    return _mlp((CLASSIFIER_INPUT, *hidden, N_LABELS), [ReLU, Sigmoid], rng)


def fit_autoencoder(z: np.ndarray, config: TrainConfig):
    """Train encoder+decoder on preprocessed normal frames (N, 39)."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != N_SENSORS:
        raise ValueError(f"autoencoder input must be (N, {N_SENSORS})")
    rng = np.random.default_rng(config.seed)
    enc, dec = build_autoencoder(rng)
    model = Sequential([enc, dec])
    history = train(model, z, z, config, loss="mse")
    return enc, dec, history


def fit_predictor(sequences: np.ndarray, config: TrainConfig):
    """Train a stateful one-step-ahead predictor on (N, T, C) sequences.

    Targets with index < LAGS are masked out, so a T-step series contributes
    T - LAGS training targets.
    """
    seq = np.asarray(sequences, dtype=float)
    if seq.ndim != 3:
        raise ValueError("predictor input must be (N, T, C)")
    n, t, c = seq.shape
    if t < LAGS + 1:
        raise ValueError(f"sequences must span at least {LAGS + 1} steps")
    model = SequencePredictor(c, PREDICTOR_HIDDEN, c,
                              np.random.default_rng(config.seed))
    x = seq[:, :-1]
    y = seq[:, 1:]
    mask = np.zeros((n, t - 1))
    mask[:, LAGS - 1:] = 1.0  # position j predicts original index j+1
    history = train(model, x, y, config, loss="mse", mask=mask)
    return model, history


def fit_classifier(features: np.ndarray, labels: np.ndarray,
                   config: TrainConfig):
    """Train the 9-label head on (N, 78) residual++observation features."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != CLASSIFIER_INPUT:
        raise ValueError(f"classifier input must be (N, {CLASSIFIER_INPUT})")
    present = set(np.unique(labels).tolist())
    missing = [LABELS[i] for i in range(N_LABELS) if i not in present]
    if missing:
        raise ValueError(f"training data missing classes: {missing}")
    model = build_classifier(np.random.default_rng(config.seed))
    history = train(model, features, labels.astype(int), config,
                    loss="cross_entropy")
    return model, history


def trained(bundle: ModelBundle, attr: str):
    """The bundle's `attr` model; UntrainedBundleError when it is missing."""
    value = getattr(bundle, attr)
    if value is None:
        raise UntrainedBundleError(
            f"variant {bundle.variant} needs a trained {attr}")
    return value


def _se_residual_row(case: GridCase, values: np.ndarray,
                     noise_sigma: float) -> np.ndarray:
    weights = noise_scale(values, noise_sigma) ** 2
    est = estimate_state(case, values, weights)
    return values - est.predicted_measurements


def predict_and_residual(bundle: ModelBundle, series, case: GridCase
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps (M,), residuals (M, 39)) for one series under the
    bundle's variant.

    Residuals live in standardized-difference space for every variant and
    are emitted for original frames LAGS+1 .. T-1 (the first LAGS differenced
    frames are predictor warm-up). Model parameters are never mutated.
    """
    z = preprocess(series, bundle.stats)  # (T-1, 39); row j <-> frame j+1
    t_z = z.shape[0]
    if t_z <= LAGS:
        raise ValueError(f"series too short for {LAGS} lags")
    idx = np.arange(LAGS, t_z)  # z rows with a usable prediction

    if bundle.variant == "AEN_RNN_DNN":
        encoder = trained(bundle, "encoder")
        decoder = trained(bundle, "decoder")
        predictor = trained(bundle, "predictor")
        codes = encoder.forward(z)
        pred_codes = predictor.forward(codes[None, :-1])[0]
        z_hat = decoder.forward(pred_codes)  # row j-1 predicts z row j
        residuals = z[idx] - z_hat[idx - 1]
    elif bundle.variant == "RNN_DNN":
        predictor = trained(bundle, "predictor")
        z_hat = predictor.forward(z[None, :-1])[0]
        residuals = z[idx] - z_hat[idx - 1]
    elif bundle.variant == "SE_DNN":
        values = np.asarray(series.values, dtype=float)
        rows = []
        for t in idx + 1:
            raw = _se_residual_row(case, values[t], bundle.noise_sigma)
            rows.append(raw / bundle.stats.std)
        residuals = np.array(rows)
    else:  # pragma: no cover - guarded by __post_init__
        raise ValueError(bundle.variant)

    return idx + 1, residuals


def classify(classifier: Sequential, features: np.ndarray) -> np.ndarray:
    """Label indices for (N, 78) features: the argmax of the softmax.

    Exact ties resolve to the lowest label index. The softmax stays before
    the argmax: two near-equal logits can round to equal probabilities, and
    the argmax of the raw logits would break that tie differently.
    """
    probs = softmax(classifier.forward(np.asarray(features, dtype=float)))
    return np.argmax(probs, axis=1)  # argmax takes the first maximum


# ------------------------------------------------------------------ storage

def _submodels(bundle: ModelBundle):
    out = {}
    for name in ("encoder", "decoder", "predictor", "classifier"):
        model = getattr(bundle, name)
        if model is not None:
            out[name] = model
    return out


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    arrays = {
        "meta/format_version": np.array(BUNDLE_FORMAT_VERSION),
        "meta/variant": np.array(bundle.variant),
        "meta/std": bundle.stats.std,
        "meta/raw_mean": bundle.stats.raw_mean,
        "meta/raw_std": bundle.stats.raw_std,
        "meta/sensor_hash": np.array(bundle.sensor_hash),
        "meta/noise_sigma": np.array(bundle.noise_sigma),
    }
    for name, model in _submodels(bundle).items():
        for key, arr in get_state(model).items():
            arrays[f"{name}/{key}"] = arr
    np.savez(path, **arrays)


def load_bundle(path: str | Path, case: GridCase) -> ModelBundle:
    """Read a bundle file trained against `case`'s sensor index map.

    A bundle whose sensor-map hash is missing, empty or not `case`'s is
    refused with SensorMapMismatchError.
    """
    with np.load(Path(path)) as data:
        if int(data["meta/format_version"]) != BUNDLE_FORMAT_VERSION:
            raise ValueError("unsupported bundle file version")
        if ("meta/sensor_hash" not in data.files
                or str(data["meta/sensor_hash"]) != sensor_map_hash(case)):
            raise SensorMapMismatchError(
                "bundle trained on a different sensor index map; "
                "refusing to run")
        variant = str(data["meta/variant"])
        stats = PreprocessStats(std=data["meta/std"],
                                raw_mean=data["meta/raw_mean"],
                                raw_std=data["meta/raw_std"])
        bundle = ModelBundle(
            variant=variant, stats=stats,
            sensor_hash=str(data["meta/sensor_hash"]),
            noise_sigma=float(data["meta/noise_sigma"]))
        rng = np.random.default_rng(0)
        if any(k.startswith("encoder/") for k in data.files):
            bundle.encoder, bundle.decoder = build_autoencoder(rng)
        if any(k.startswith("predictor/") for k in data.files):
            width = CODE_SIZE if variant == "AEN_RNN_DNN" else N_SENSORS
            bundle.predictor = SequencePredictor(width, PREDICTOR_HIDDEN,
                                                 width, rng)
        if any(k.startswith("classifier/") for k in data.files):
            bundle.classifier = build_classifier(rng)
        for name, model in _submodels(bundle).items():
            prefix = name + "/"
            state = {k[len(prefix):]: data[k] for k in data.files
                     if k.startswith(prefix)}
            set_state(model, state)
    return bundle
