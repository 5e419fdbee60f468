"""The three detection pipelines and their trained-model bundle.

Variant map:
  AEN_RNN_DNN - autoencoder code space, recurrent one-step predictor,
                residual = standardized diff minus decoded prediction
  RNN_DNN     - recurrent predictor straight in the 39-dim diff space
  SE_DNN      - residual from weighted-least-squares state estimation
All variants feed the same 78-dim (residual ++ observation) classifier.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..grid import (GridCase, N_SENSORS, estimate_state, noise_scale,
                    sensor_map_hash)
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

BUNDLE_FORMAT_VERSION = 4


class UntrainedBundleError(RuntimeError):
    """A pipeline stage required by the variant has not been trained."""


class SensorMapMismatchError(RuntimeError):
    """Bundle was trained against a different sensor index map."""


@dataclass
class ModelBundle:
    variant: str
    stats: PreprocessStats
    sensor_hash: str
    noise_sigma: float
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


def build_autoencoder(rng: np.random.Generator,
                      hidden=AEN_HIDDEN, code_size=CODE_SIZE):
    enc = _mlp((N_SENSORS, *hidden, code_size),
               [LeakyReLU] * len(hidden), rng)
    dec = _mlp((code_size, *reversed(hidden), N_SENSORS),
               [LeakyReLU] * len(hidden), rng)
    return enc, dec


def build_predictor(width: int, rng: np.random.Generator):
    # an LSTM, then a dense readout at every time step back to `width`
    return Sequential([LSTM(width, PREDICTOR_HIDDEN, rng),
                       Dense(PREDICTOR_HIDDEN, width, rng)])


def build_classifier(rng: np.random.Generator, hidden=CLASSIFIER_HIDDEN):
    # ReLU then Sigmoid hidden layers, softmax applied in the fused loss
    return _mlp((CLASSIFIER_INPUT, *hidden, N_LABELS), [ReLU, Sigmoid], rng)


def _in_compute_dtype(model):
    """`model`, its parameters and gradients cast to COMPUTE_DTYPE."""
    set_state(model, {name: arr.astype(COMPUTE_DTYPE)
                      for name, arr in get_state(model).items()})
    return model


def fit_autoencoder(z: np.ndarray, config: TrainConfig, seed: int):
    """Train encoder+decoder on preprocessed normal frames (N, 39); seed
    draws the initial weights and the mini-batch order."""
    z = np.asarray(z, dtype=COMPUTE_DTYPE)
    if z.ndim != 2 or z.shape[1] != N_SENSORS:
        raise ValueError(f"autoencoder input must be (N, {N_SENSORS})")
    enc, dec = build_autoencoder(np.random.default_rng(seed))
    model = _in_compute_dtype(Sequential([enc, dec]))
    history = train(model, z, z, config, seed, loss="mse")
    return enc, dec, history


def fit_predictor(sequences: np.ndarray, config: TrainConfig, seed: int):
    """Train a stateful one-step-ahead predictor on (N, T, C) sequences;
    seed draws the initial weights and the mini-batch order.

    Targets with index < LAGS are masked out, so a T-step series contributes
    T - LAGS training targets.
    """
    seq = np.asarray(sequences, dtype=COMPUTE_DTYPE)
    if seq.ndim != 3:
        raise ValueError("predictor input must be (N, T, C)")
    n, t, c = seq.shape
    if t < LAGS + 1:
        raise ValueError(f"sequences must span at least {LAGS + 1} steps")
    model = _in_compute_dtype(
        build_predictor(c, np.random.default_rng(seed)))
    x = seq[:, :-1]
    y = seq[:, 1:]
    mask = np.zeros((n, t - 1), dtype=seq.dtype)
    mask[:, LAGS - 1:] = 1.0  # position j predicts original index j+1
    history = train(model, x, y, config, seed, loss="mse", mask=mask)
    return model, history


def fit_classifier(features: np.ndarray, labels: np.ndarray,
                   config: TrainConfig, seed: int):
    """Train the 9-label head on (N, 78) residual++observation features;
    seed draws the initial weights and the mini-batch order."""
    features = np.asarray(features, dtype=COMPUTE_DTYPE)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != CLASSIFIER_INPUT:
        raise ValueError(f"classifier input must be (N, {CLASSIFIER_INPUT})")
    present = set(np.unique(labels).tolist())
    missing = [LABELS[i] for i in range(N_LABELS) if i not in present]
    if missing:
        raise ValueError(f"training data missing classes: {missing}")
    model = _in_compute_dtype(
        build_classifier(np.random.default_rng(seed)))
    history = train(model, features, labels.astype(int), config, seed,
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


def predict_and_residual(bundle: ModelBundle, series_list, case: GridCase
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (timestamps (M,), residuals (M, 39)) pair per series of
    series_list, in order, under the bundle's variant.

    Residuals live in standardized-difference space for every variant and
    are emitted for original frames LAGS+1 .. T-1 (the first LAGS differenced
    frames are predictor warm-up). Model parameters are never mutated. The
    learned variants cast the standardized differences to the predictor's
    parameter dtype and return residuals in it; SE_DNN's are float64.

    The learned variants run their models once per group of equal-length
    series, stacked (S, 1, T, D): every series keeps its own batch of one,
    so its residuals have the bits of a one-series call. A (S, T, D) batch
    would not: its recurrent products take BLAS's matrix-matrix path, not
    the matrix-vector one. The group's memory grows with S, so callers
    bound the list (pipeline.RESIDUAL_GROUP).
    """
    zs = [preprocess(series, bundle.stats) for series in series_list]
    for z in zs:  # z row j <-> frame j+1
        if z.shape[0] <= LAGS:
            raise ValueError(f"series too short for {LAGS} lags")

    if bundle.variant == "SE_DNN":
        out = []
        for series, z in zip(series_list, zs):
            ts = np.arange(LAGS, z.shape[0]) + 1
            values = np.asarray(series.values, dtype=float)
            rows = [_se_residual_row(case, values[t], bundle.noise_sigma)
                    / bundle.stats.std for t in ts]
            out.append((ts, np.array(rows)))
        return out

    coded = bundle.variant == "AEN_RNN_DNN"
    predictor = trained(bundle, "predictor")
    encoder = trained(bundle, "encoder") if coded else None
    decoder = trained(bundle, "decoder") if coded else None
    by_length: dict[int, list[int]] = {}
    for k, z in enumerate(zs):
        by_length.setdefault(z.shape[0], []).append(k)
    out = [None] * len(zs)
    for t_z, members in by_length.items():
        z = np.stack([zs[k] for k in members],
                     dtype=predictor.dtype)[:, None]  # (S, 1, T-1, 39)
        codes = encoder.forward(z)[0] if coded else z
        z_hat, _ = predictor.forward(codes[..., :-1, :])
        if coded:
            z_hat, _ = decoder.forward(z_hat)
        # z_hat row j-1 predicts z row j, for the rows j >= LAGS
        residuals = z[:, 0, LAGS:] - z_hat[:, 0, LAGS - 1:]
        for k, r in zip(members, residuals):
            out[k] = (np.arange(LAGS, t_z) + 1, r)
    return out


def classify(classifier: Sequential, features: np.ndarray) -> np.ndarray:
    """Label indices for (N, 78) features: the argmax of the softmax.

    The features are cast to the classifier's parameter dtype. Exact ties
    resolve to the lowest label index. The softmax stays before the argmax:
    two near-equal logits can round to equal probabilities, and the argmax
    of the raw logits would break that tie differently.
    """
    probs = softmax(classifier.forward(
        np.asarray(features, dtype=classifier.dtype))[0])
    return np.argmax(probs, axis=1)  # argmax takes the first maximum


# ------------------------------------------------------------------ storage

def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    """Write `bundle` to an .npz file; load_bundle reads it back.

    A bundle without a sensor-map hash (ValueError) or without one of its
    variant's trained sub-models (UntrainedBundleError) is refused here,
    since load_bundle would refuse the file it makes.
    """
    if not bundle.sensor_hash:
        raise ValueError("bundle has no sensor-map hash; load_bundle "
                         "would refuse it")
    arrays = {
        "meta/format_version": np.array(BUNDLE_FORMAT_VERSION),
        "meta/variant": np.array(bundle.variant),
        "meta/std": bundle.stats.std,
        "meta/raw_mean": bundle.stats.raw_mean,
        "meta/raw_std": bundle.stats.raw_std,
        "meta/sensor_hash": np.array(bundle.sensor_hash),
        "meta/noise_sigma": np.array(bundle.noise_sigma),
    }
    for name in SUBMODELS[bundle.variant]:
        for key, arr in get_state(trained(bundle, name)).items():
            arrays[f"{name}/{key}"] = arr
    np.savez(path, **arrays)


@contextlib.contextmanager
def _naming(part: str, path):
    """Re-raise a KeyError or ValueError naming `part` and bundle `path`."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise type(exc)(f"{part} in bundle file {path}: "
                        f"{exc.args[0]}") from exc


def load_bundle(path: str | Path, case: GridCase) -> ModelBundle:
    """Read a bundle file trained against `case`'s sensor index map.

    A bundle whose sensor-map hash is missing, empty or not `case`'s is
    refused with SensorMapMismatchError. The bundle gets exactly the
    sub-models its variant trains. A file that lacks (KeyError) or
    misshapes (ValueError) any of their arrays or of its meta arrays, or
    names an unknown variant (ValueError), is refused with an error naming
    the sub-model, or "meta", and the file.
    """
    with np.load(Path(path)) as data:
        with _naming("meta", path):
            version = int(data["meta/format_version"])
        if version != BUNDLE_FORMAT_VERSION:
            raise ValueError(f"unsupported bundle file version {version} in "
                             f"{path}; expected {BUNDLE_FORMAT_VERSION}")
        if ("meta/sensor_hash" not in data.files
                or str(data["meta/sensor_hash"]) != sensor_map_hash(case)):
            raise SensorMapMismatchError(
                "bundle trained on a different sensor index map; "
                "refusing to run")
        with _naming("meta", path):
            bundle = ModelBundle(
                variant=str(data["meta/variant"]),
                stats=PreprocessStats(std=data["meta/std"],
                                      raw_mean=data["meta/raw_mean"],
                                      raw_std=data["meta/raw_std"]),
                sensor_hash=str(data["meta/sensor_hash"]),
                noise_sigma=float(data["meta/noise_sigma"]))
        variant = bundle.variant
        # the weights are overwritten from the file; the seed is arbitrary
        rng = np.random.default_rng(0)
        if variant == "AEN_RNN_DNN":
            bundle.encoder, bundle.decoder = build_autoencoder(rng)
            bundle.predictor = build_predictor(CODE_SIZE, rng)
        elif variant == "RNN_DNN":
            bundle.predictor = build_predictor(N_SENSORS, rng)
        bundle.classifier = build_classifier(rng)
        for name in SUBMODELS[variant]:
            prefix = name + "/"
            state = {k[len(prefix):]: data[k] for k in data.files
                     if k.startswith(prefix)}
            with _naming(name, path):
                set_state(getattr(bundle, name), state)
    return bundle
