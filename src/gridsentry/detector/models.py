"""The three detection pipelines and their trained-model bundle.

Variant map:
  AEN_RNN_DNN - autoencoder code space, recurrent one-step predictor,
                residual = standardized diff minus decoded prediction
  RNN_DNN     - recurrent predictor straight in the 39-dim diff space
  SE_DNN      - residual from weighted-least-squares state estimation,
                linearized at the mean normal training frame
All variants feed the same 78-dim (residual ++ observation) classifier.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import InputError
from ..grid import (N_SENSORS, estimate_state, linearized_predictions,
                    load_case, noise_scale)
from ..neural import (Dense, LSTM, LeakyReLU, ReLU, Sequential, Sigmoid,
                      TrainConfig, get_state, set_state, softmax, train)
from ..scenario import LABELS
from .preprocess import PreprocessStats, preprocess

# the sub-models each variant trains, by ModelBundle attribute
SUBMODELS = {
    "AEN_RNN_DNN": ("encoder", "decoder", "predictor", "classifier"),
    "RNN_DNN": ("predictor", "classifier"),
    "SE_DNN": ("classifier",),
}
VARIANTS = tuple(SUBMODELS)

CODE_SIZE = 13
LAGS = 10
CLASSIFIER_INPUT = 2 * N_SENSORS  # residual ++ observation = 78
N_LABELS = len(LABELS)

# hidden widths are not pinned down by the problem statement; fixed here
AEN_HIDDEN = (32, 20)
PREDICTOR_HIDDEN = 32
CLASSIFIER_HIDDEN = (64, 32)

# the dtype every fit trains its model in, and so the dtype of every
# trained bundle's parameters; inference takes the parameters' dtype
COMPUTE_DTYPE = np.float32

# the training settings of each fit, by stage; tests patch these rows
STAGE_DEFAULTS = {
    "autoencoder": TrainConfig(learning_rate=1e-3, epochs=60, batch_size=256),
    "predictor": TrainConfig(learning_rate=5e-3, epochs=120, batch_size=8),
    "classifier": TrainConfig(learning_rate=2e-3, epochs=80, batch_size=256),
}

BUNDLE_FORMAT_VERSION = 7


@dataclass
class ModelBundle:
    variant: str
    stats: PreprocessStats
    # the generation settings of the dataset trained on (cli.GENERATION_KEYS)
    dataset: dict
    classifier: Sequential | None = None
    encoder: Sequential | None = None
    decoder: Sequential | None = None
    predictor: Sequential | None = None
    history: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


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


def build_autoencoder(rng: np.random.Generator):
    enc = _mlp((N_SENSORS, *AEN_HIDDEN, CODE_SIZE),
               [LeakyReLU] * len(AEN_HIDDEN), rng)
    dec = _mlp((CODE_SIZE, *reversed(AEN_HIDDEN), N_SENSORS),
               [LeakyReLU] * len(AEN_HIDDEN), rng)
    return enc, dec


def build_predictor(width: int, rng: np.random.Generator):
    # an LSTM, then a dense readout at every time step back to `width`
    return Sequential([LSTM(width, PREDICTOR_HIDDEN, rng),
                       Dense(PREDICTOR_HIDDEN, width, rng)])


def build_classifier(rng: np.random.Generator):
    # ReLU then Sigmoid hidden layers, softmax applied in the fused loss
    return _mlp((CLASSIFIER_INPUT, *CLASSIFIER_HIDDEN, N_LABELS),
                [ReLU, Sigmoid], rng)


def _in_compute_dtype(model):
    """`model` with its parameters cast to COMPUTE_DTYPE, and no gradients."""
    set_state(model, {name: arr.astype(COMPUTE_DTYPE)
                      for name, arr in get_state(model).items()})
    return model


def fit_autoencoder(z: np.ndarray, seed: int):
    """Train encoder+decoder on preprocessed normal frames (N, 39) under
    STAGE_DEFAULTS["autoencoder"]; seed draws the initial weights and the
    mini-batch order."""
    z = np.asarray(z, dtype=COMPUTE_DTYPE)
    if z.ndim != 2 or z.shape[1] != N_SENSORS:
        raise ValueError(f"autoencoder input must be (N, {N_SENSORS})")
    enc, dec = build_autoencoder(np.random.default_rng(seed))
    model = _in_compute_dtype(Sequential([enc, dec]))
    history = train(model, z, z, STAGE_DEFAULTS["autoencoder"], seed,
                    loss="mse")
    return enc, dec, history


def fit_predictor(sequences: np.ndarray, seed: int):
    """Train a stateful one-step-ahead predictor on (N, T, C) sequences
    under STAGE_DEFAULTS["predictor"]; seed draws the initial weights and
    the mini-batch order.

    Targets with index < LAGS are masked out, so a T-step series contributes
    T - LAGS training targets.
    """
    seq = np.asarray(sequences, dtype=COMPUTE_DTYPE)
    if seq.ndim != 3:
        raise ValueError("predictor input must be (N, T, C)")
    n, t, c = seq.shape
    model = _in_compute_dtype(
        build_predictor(c, np.random.default_rng(seed)))
    x = seq[:, :-1]
    y = seq[:, 1:]
    mask = np.zeros((n, t - 1), dtype=seq.dtype)
    mask[:, LAGS - 1:] = 1.0  # position j predicts original index j+1
    history = train(model, x, y, STAGE_DEFAULTS["predictor"], seed,
                    loss="mse", mask=mask)
    return model, history


def fit_classifier(features: np.ndarray, labels: np.ndarray, seed: int):
    """Train the 9-label head on (N, 78) residual++observation features
    under STAGE_DEFAULTS["classifier"]; seed draws the initial weights and
    the mini-batch order."""
    features = np.asarray(features, dtype=COMPUTE_DTYPE)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != CLASSIFIER_INPUT:
        raise ValueError(f"classifier input must be (N, {CLASSIFIER_INPUT})")
    present = set(labels.tolist())
    missing = [LABELS[i] for i in range(N_LABELS) if i not in present]
    if missing:
        raise InputError(f"training data missing classes: {missing}")
    model = _in_compute_dtype(
        build_classifier(np.random.default_rng(seed)))
    history = train(model, features, labels.astype(int),
                    STAGE_DEFAULTS["classifier"], seed, loss="cross_entropy")
    return model, history


def predict_and_residual(bundle: ModelBundle,
                         frames: np.ndarray) -> np.ndarray:
    """The (S, T-1-LAGS, 39) residuals of the (S, T, 39) frame stack, in
    series order, under the bundle's variant.

    Residuals live in standardized-difference space for every variant, one
    row per original frame LAGS+1 .. T-1 (the first LAGS differenced frames
    are predictor warm-up). Model parameters are never mutated. The
    learned variants cast the standardized differences to the predictor's
    parameter dtype and return residuals in it; SE_DNN's are float64.

    The learned variants run their models once on the stack, as
    (S, 1, T, D): every series keeps its own batch of one, so its residuals
    have the bits of a one-series call. A (S, T, D) batch would not: its
    recurrent products take BLAS's matrix-matrix path, not the matrix-vector
    one. Memory grows with S x T, so feature_rows passes slices of at most
    pipeline.RESIDUAL_FRAMES frames (or one series).
    """
    if bundle.variant == "SE_DNN":
        frames, sigma = frames[:, LAGS + 1:], bundle.dataset["noise_sigma"]
        case, mean = load_case(), bundle.stats.raw_mean
        # the AC WLS fit of the mean normal frame anchors a linearized fit
        # of every frame, each sensor weighted by its noise variance
        anchor = estimate_state(case, mean, noise_scale(mean, sigma) ** 2)
        if not anchor.converged:
            raise InputError(
                "the WLS fit of the bundle's mean normal frame (raw_mean) "
                f"did not converge in {anchor.iterations} linearizations")
        rows = frames.reshape(-1, N_SENSORS)
        fitted = linearized_predictions(case, anchor, rows,
                                        noise_scale(rows, sigma) ** 2)
        return (frames - fitted.reshape(frames.shape)) / bundle.stats.std

    z = preprocess(frames, bundle.stats)  # z row j <-> frame j+1
    coded = bundle.variant == "AEN_RNN_DNN"
    z = z.astype(bundle.predictor.dtype)[:, None]  # (S, 1, T-1, 39)
    codes = bundle.encoder.forward(z)[0] if coded else z
    z_hat, _ = bundle.predictor.forward(codes[..., :-1, :])
    if coded:
        z_hat, _ = bundle.decoder.forward(z_hat)
    # z_hat row j-1 predicts z row j, for the rows j >= LAGS
    return z[:, 0, LAGS:] - z_hat[:, 0, LAGS - 1:]


def classify(classifier: Sequential, features: np.ndarray) -> np.ndarray:
    """Label indices for (N, 78) features: the argmax of the softmax.

    The features are cast to the classifier's parameter dtype, and its
    layers run one at a time, each cache dropped as soon as it is made.
    Exact ties resolve to the lowest label index. The softmax stays before
    the argmax: two near-equal logits can round to equal probabilities, and
    the argmax of the raw logits would break that tie differently.
    """
    x = np.asarray(features, dtype=classifier.dtype)
    for layer in classifier.layers:
        # no name keeps the cache, which would live through the next layer
        x = layer.forward(x)[0]
    return np.argmax(softmax(x), axis=1)  # argmax takes the first maximum


# ------------------------------------------------------------------ storage

def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    """Write `bundle` to an .npz file; load_bundle reads it back."""
    arrays = {
        "meta/format_version": np.array(BUNDLE_FORMAT_VERSION),
        "meta/variant": np.array(bundle.variant),
        "meta/std": bundle.stats.std,
        "meta/raw_mean": bundle.stats.raw_mean,
        "meta/raw_std": bundle.stats.raw_std,
        "meta/dataset": np.array(json.dumps(bundle.dataset, sort_keys=True)),
    }
    for name in SUBMODELS[bundle.variant]:
        for key, arr in get_state(getattr(bundle, name)).items():
            arrays[f"{name}/{key}"] = arr
    np.savez(path, **arrays)


def load_bundle(path: str | Path) -> ModelBundle:
    """Read a bundle file, with exactly the sub-models its variant trains.

    An InputError naming the file refuses a format version that is not the
    integer BUNDLE_FORMAT_VERSION, a file that is no .npz archive (an empty
    file, an .npy array), an unknown variant, a dataset record that is not
    a JSON object, and a missing (KeyError) or misshapen (ValueError)
    array, naming its sub-model or "meta"; a directory raises np.load's
    IsADirectoryError. The format version also stands for the sensor
    layout the bundle was trained on.
    """
    part = "meta"
    try:
        data = np.load(Path(path))
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("an .npy array, not an .npz archive")
        with data:
            version = data["meta/format_version"]
            # an integer scalar only: int() would read 5.5 as 5
            if (version.dtype.kind not in "iu"
                    or version.tolist() != BUNDLE_FORMAT_VERSION):
                raise InputError(
                    f"unsupported bundle file version {version.tolist()} in "
                    f"{path}; expected {BUNDLE_FORMAT_VERSION}")
            bundle = ModelBundle(
                variant=str(data["meta/variant"]),
                stats=PreprocessStats(std=data["meta/std"],
                                      raw_mean=data["meta/raw_mean"],
                                      raw_std=data["meta/raw_std"]),
                dataset=json.loads(str(data["meta/dataset"])))
            if not isinstance(bundle.dataset, dict):
                raise ValueError("meta/dataset is not a JSON object")
            variant = bundle.variant
            # the weights are overwritten from the file; the seed is arbitrary
            rng = np.random.default_rng(0)
            if variant == "AEN_RNN_DNN":
                bundle.encoder, bundle.decoder = build_autoencoder(rng)
                bundle.predictor = build_predictor(CODE_SIZE, rng)
            elif variant == "RNN_DNN":
                bundle.predictor = build_predictor(N_SENSORS, rng)
            bundle.classifier = build_classifier(rng)
            for part in SUBMODELS[variant]:
                prefix = part + "/"
                set_state(getattr(bundle, part),
                          {k[len(prefix):]: data[k] for k in data.files
                           if k.startswith(prefix)})
    except InputError:
        raise
    except (EOFError, KeyError, ValueError) as exc:
        raise InputError(f"{part} in bundle file {path}: {exc.args[0]}")
    return bundle
