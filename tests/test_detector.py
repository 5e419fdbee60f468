import numpy as np
import pytest

from gridsentry.detector import (CLASSIFIER_INPUT, CODE_SIZE, EPSILON, LAGS,
                                 ModelBundle, PreprocessStats,
                                 SensorMapMismatchError, UntrainedBundleError,
                                 assert_normal_lineage, classify,
                                 evaluate_predictions, fit_autoencoder,
                                 fit_classifier, fit_predictor, fit_preprocess,
                                 load_bundle, predict_and_residual, preprocess,
                                 save_bundle, series_features, state_checksum)
from gridsentry.detector.models import build_classifier
from gridsentry.dispatch import plan_generation, synthesize_loads
from gridsentry.grid import N_SENSORS, load_case, sensor_map_hash
from gridsentry.neural import TrainConfig, softmax
from gridsentry.scenario import LABELS, ScenarioSeries, generate_scenario
from oracles import chi_square_detect


@pytest.fixture(scope="module")
def case():
    return load_case()


@pytest.fixture(scope="module")
def normal_series(case):
    rng = np.random.default_rng(200)
    out = []
    for k in range(3):
        loads = synthesize_loads((90, 110), 48, rng)
        plan = plan_generation(loads)
        out.append(generate_scenario(case, plan, loads, None,
                                     noise_sigma=0.01, seed=300 + k))
    return out


def synthetic_series(values, label="normal"):
    values = np.asarray(values, dtype=float)
    return ScenarioSeries(values=values,
                          labels=[label] * values.shape[0],
                          metadata={"condition": label})


def unit_stats():
    return PreprocessStats(std=np.ones(N_SENSORS),
                           raw_mean=np.zeros(N_SENSORS),
                           raw_std=np.ones(N_SENSORS))


# ---------------------------------------------------------------- preprocess

def test_preprocess_constant_series():
    series = synthetic_series(np.ones((50, N_SENSORS)))
    stats = unit_stats()
    np.testing.assert_array_equal(preprocess(series, stats), 0.0)


def test_preprocess_single_frame_errors():
    series = synthetic_series(np.ones((1, N_SENSORS)))
    stats = unit_stats()
    with pytest.raises(ValueError):
        preprocess(series, stats)


def test_fit_preprocess_self_standardizes():
    rng = np.random.default_rng(0)
    data = [synthetic_series(np.cumsum(
        rng.standard_normal((2000, N_SENSORS)), axis=0))]
    stats = fit_preprocess(data)
    z = preprocess(data[0], stats)
    np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, rtol=0.05)


def test_fit_preprocess_iid_difference_identity():
    # var of the first difference of i.i.d. noise is 2 sigma^2
    sigma = 0.3
    rng = np.random.default_rng(1)
    data = [synthetic_series(sigma * rng.standard_normal((20000, N_SENSORS)))]
    stats = fit_preprocess(data)
    np.testing.assert_allclose(stats.std, sigma * np.sqrt(2), rtol=0.05)


def test_fit_preprocess_constant_sensor_floor():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((500, N_SENSORS))
    values[:, 7] = 3.25
    stats = fit_preprocess([synthetic_series(values)])
    assert stats.std[7] == EPSILON


def test_fit_preprocess_insufficient_data():
    with pytest.raises(ValueError):
        fit_preprocess([synthetic_series(np.ones((40, N_SENSORS)))])


def test_fit_preprocess_deterministic():
    rng = np.random.default_rng(3)
    data = [synthetic_series(rng.standard_normal((300, N_SENSORS)))]
    s1 = fit_preprocess(data)
    s2 = fit_preprocess(data)
    np.testing.assert_array_equal(s1.std, s2.std)


def test_lineage_assertion():
    good = synthetic_series(np.ones((5, N_SENSORS)))
    assert_normal_lineage([good])
    bad = synthetic_series(np.ones((5, N_SENSORS)))
    bad.labels[2] = "attack_2"
    with pytest.raises(ValueError, match="attack_2"):
        assert_normal_lineage([bad])


# ---------------------------------------------------------------- autoencoder

def test_autoencoder_code_width_and_learning():
    rng = np.random.default_rng(4)
    basis = rng.standard_normal((5, N_SENSORS))
    z = rng.standard_normal((600, 5)) @ basis  # rank-5 data, learnable
    cfg = TrainConfig(learning_rate=1e-3, epochs=30, batch_size=64, seed=0)
    enc, dec, history = fit_autoencoder(z, cfg)
    codes = enc.forward(z)
    assert codes.shape == (600, CODE_SIZE)
    assert history[-1] < history[0] * 0.5


def test_autoencoder_rejects_wrong_width():
    with pytest.raises(ValueError):
        fit_autoencoder(np.zeros((10, 5)), TrainConfig())


# ---------------------------------------------------------------- predictor

def test_predictor_constant_sequence():
    seq = np.ones((4, 30, CODE_SIZE)) * 0.5
    cfg = TrainConfig(learning_rate=1e-2, epochs=80, batch_size=4, seed=0)
    model, history = fit_predictor(seq, cfg)
    pred = model.forward(seq[:, :-1])
    mse = np.mean((pred[:, LAGS - 1:] - seq[:, LAGS:]) ** 2)
    assert mse < 1e-3


def test_predictor_window_arithmetic():
    # a T-step series contributes T - LAGS masked-in targets
    t = 25
    seq = np.zeros((2, t, 3))
    mask = np.zeros((2, t - 1))
    mask[:, LAGS - 1:] = 1.0
    assert mask[0].sum() == t - LAGS


def test_predictor_too_short():
    with pytest.raises(ValueError):
        fit_predictor(np.zeros((1, LAGS, 3)), TrainConfig())


# ---------------------------------------------------------------- residuals

def make_stub_bundle(variant, case, **kwargs):
    stats = unit_stats()
    return ModelBundle(variant=variant, stats=stats,
                       sensor_hash=sensor_map_hash(case), **kwargs)


def test_untrained_bundle_errors(case, normal_series):
    bundle = make_stub_bundle("RNN_DNN", case)
    with pytest.raises(UntrainedBundleError):
        predict_and_residual(bundle, normal_series[0], case)
    with pytest.raises(UntrainedBundleError, match="classifier"):
        evaluate_predictions(bundle, normal_series[:1], case)


def test_se_residuals_near_zero_on_noiseless(case):
    rng = np.random.default_rng(5)
    loads = synthesize_loads((90, 110), 24, rng)
    plan = plan_generation(loads)
    series = generate_scenario(case, plan, loads, None,
                               noise_sigma=0.0, seed=0)
    stats = fit_preprocess([synthetic_series(
        np.random.default_rng(6).standard_normal((200, N_SENSORS)))])
    bundle = ModelBundle(variant="SE_DNN", stats=stats, noise_sigma=0.01)
    ts, residuals = predict_and_residual(bundle, series, case=case)
    assert residuals.shape == (series.horizon - 1 - LAGS, N_SENSORS)
    np.testing.assert_array_equal(ts, np.arange(LAGS + 1, series.horizon))
    assert np.max(np.abs(residuals * stats.std)) < 1e-6


def test_residual_alignment_rnn(case, normal_series):
    series = normal_series[0]
    stats = fit_preprocess(normal_series)
    bundle = ModelBundle(variant="RNN_DNN", stats=stats)
    cfg = TrainConfig(learning_rate=5e-3, epochs=10, batch_size=4, seed=0)
    z = np.stack([preprocess(s, stats) for s in normal_series])
    bundle.predictor, _ = fit_predictor(z, cfg)
    ts, residuals = predict_and_residual(bundle, series, case)
    assert ts[0] == LAGS + 1
    assert ts[-1] == series.horizon - 1
    assert residuals.shape == (len(ts), N_SENSORS)
    x, y, feature_ts = series_features(bundle, series, case)
    assert x.shape == (len(ts), CLASSIFIER_INPUT)
    np.testing.assert_array_equal(feature_ts, ts)
    np.testing.assert_array_equal(x[:, :N_SENSORS], residuals)
    np.testing.assert_array_equal(y, 0)  # all-normal series


def test_residual_generation_leaves_models_frozen(case, normal_series):
    stats = fit_preprocess(normal_series)
    bundle = ModelBundle(variant="RNN_DNN", stats=stats)
    z = np.stack([preprocess(s, stats) for s in normal_series])
    bundle.predictor, _ = fit_predictor(
        z, TrainConfig(epochs=3, batch_size=4, seed=0))
    before = state_checksum(bundle.predictor)
    predict_and_residual(bundle, normal_series[0], case)
    assert state_checksum(bundle.predictor) == before


# ---------------------------------------------------------------- classifier

def separable_toy(n_per_class=80, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for k in range(9):
        center = np.zeros(CLASSIFIER_INPUT)
        center[k] = 6.0
        xs.append(center + 0.3 * rng.standard_normal(
            (n_per_class, CLASSIFIER_INPUT)))
        ys.append(np.full(n_per_class, k))
    return np.concatenate(xs), np.concatenate(ys)


def test_classifier_separable_toy():
    x, y = separable_toy()
    cfg = TrainConfig(learning_rate=2e-3, epochs=60, batch_size=64, seed=0)
    model, _ = fit_classifier(x, y, cfg)
    probs = softmax(model.forward(x))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    accuracy = np.mean(classify(model, x) == y)
    assert accuracy > 0.99


def test_classifier_missing_class_listed():
    x, y = separable_toy(n_per_class=10)
    keep = y != 4
    with pytest.raises(ValueError, match="attack_8"):
        fit_classifier(x[keep], y[keep], TrainConfig(epochs=1))


def test_classify_trivial_and_ties():
    model = build_classifier(np.random.default_rng(0))
    x = np.zeros((1, CLASSIFIER_INPUT))

    # force known logits through a zeroed final layer
    for layer in model.layers:
        for k in layer.params:
            layer.params[k] = np.zeros_like(layer.params[k])
    final = model.layers[-1]
    final.params["b"] = np.array([10.0, 0, 0, 0, 0, 0, 0, 0, 0])
    assert [LABELS[i] for i in classify(model, x)] == ["normal"]
    assert softmax(model.forward(x))[0, 0] > 0.999

    final.params["b"] = np.array([0.0, 5.0, 5.0, 0, 0, 0, 0, 0, 0])
    names = [LABELS[i] for i in classify(model, x)]
    assert names == ["attack_2"]  # exact tie resolves to the lower index

    again = [LABELS[i] for i in classify(model, x)]
    assert again == names


def test_variant_shared_classifier_path(case):
    # RNN_DNN and AEN_RNN_DNN differ only in the residual generator; the
    # classifier path is byte-identical given identical features
    stats = unit_stats()
    model = build_classifier(np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((5, CLASSIFIER_INPUT))
    outs = []
    for variant in ("RNN_DNN", "AEN_RNN_DNN"):
        bundle = ModelBundle(variant=variant, stats=stats, classifier=model)
        outs.append(bundle.classifier.forward(x))
    np.testing.assert_array_equal(outs[0], outs[1])


# ---------------------------------------------------------------- bundle io

def test_bundle_roundtrip(tmp_path, case, normal_series):
    stats = fit_preprocess(normal_series)
    bundle = ModelBundle(variant="RNN_DNN", stats=stats,
                         sensor_hash=sensor_map_hash(case))
    z = np.stack([preprocess(s, stats) for s in normal_series])
    bundle.predictor, _ = fit_predictor(
        z, TrainConfig(epochs=3, batch_size=4, seed=0))
    x, y = separable_toy(n_per_class=60)
    bundle.classifier, _ = fit_classifier(
        x, y, TrainConfig(epochs=5, batch_size=64, seed=0))

    path = tmp_path / "bundle.npz"
    save_bundle(bundle, path)
    loaded = load_bundle(path, case)
    assert loaded.variant == "RNN_DNN"
    for name in ("std", "raw_mean", "raw_std"):
        np.testing.assert_array_equal(getattr(loaded.stats, name),
                                      getattr(stats, name))
    probe = np.random.default_rng(3).standard_normal((4, CLASSIFIER_INPUT))
    np.testing.assert_array_equal(loaded.classifier.forward(probe),
                                  bundle.classifier.forward(probe))
    _, r1 = predict_and_residual(bundle, normal_series[0], case)
    _, r2 = predict_and_residual(loaded, normal_series[0], case)
    np.testing.assert_array_equal(r1, r2)


def test_sensor_map_mismatch_refused(tmp_path, case):
    stats = unit_stats()
    path = tmp_path / "bundle.npz"
    # a different hash, an empty one, and none at all are all refused
    for sensor_hash in ("not-the-real-hash", ""):
        save_bundle(ModelBundle(variant="SE_DNN", stats=stats,
                                sensor_hash=sensor_hash), path)
        with pytest.raises(SensorMapMismatchError):
            load_bundle(path, case)
    good = ModelBundle(variant="SE_DNN", stats=stats,
                       sensor_hash=sensor_map_hash(case))
    save_bundle(good, path)
    assert load_bundle(path, case).sensor_hash == sensor_map_hash(case)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "meta/sensor_hash"}
    np.savez(path, **arrays)
    with pytest.raises(SensorMapMismatchError):
        load_bundle(path, case)


def test_bundle_architecture_conformance():
    with pytest.raises(ValueError):
        ModelBundle(variant="nope", stats=unit_stats())


# ---------------------------------------------------------------- chi square

def test_chi_square_zero_residuals_silent():
    alarms = chi_square_detect(np.zeros((200, N_SENSORS)), window=4,
                               alpha=0.01)
    assert alarms.shape == (50,)
    assert not alarms.any()


def test_chi_square_false_alarm_rate():
    rng = np.random.default_rng(7)
    window = 4
    n_windows = 10000
    residuals = rng.standard_normal((n_windows * window, N_SENSORS))
    alarms = chi_square_detect(residuals, window=window, alpha=0.01)
    rate = alarms.mean()
    assert 0.005 <= rate <= 0.02


def test_chi_square_detects_gross_bias():
    rng = np.random.default_rng(8)
    residuals = rng.standard_normal((400, N_SENSORS)) + 1.0
    alarms = chi_square_detect(residuals, window=4, alpha=0.01)
    assert alarms.all()


def test_chi_square_validation():
    with pytest.raises(ValueError):
        chi_square_detect(np.zeros((10, 3)), window=0, alpha=0.01)
    with pytest.raises(ValueError):
        chi_square_detect(np.zeros((10, 3)), window=2, alpha=1.5)
