import re

import numpy as np
import pytest

from gridsentry.detector import (CLASSIFIER_INPUT, CODE_SIZE, EPSILON, LAGS,
                                 ModelBundle, PreprocessStats,
                                 SensorMapMismatchError, UntrainedBundleError,
                                 VARIANTS, assert_normal_lineage, classify,
                                 evaluate_predictions, feature_rows,
                                 fit_autoencoder, fit_classifier,
                                 fit_predictor, fit_preprocess, load_bundle,
                                 predict_and_residual, preprocess, save_bundle,
                                 state_checksum, train_bundle)
from gridsentry.detector.models import (SUBMODELS, build_autoencoder,
                                       build_classifier, build_predictor)
from gridsentry.detector.pipeline import RESIDUAL_GROUP
from gridsentry.dispatch import plan_generation, synthesize_loads
from gridsentry.grid import N_SENSORS, load_case, sensor_map_hash
from gridsentry.neural import TrainConfig, get_state, set_state, softmax
from gridsentry.scenario import LABELS, ScenarioSeries, generate_scenario
from oracles import chi_square_detect

# for fits that are refused before training, or only need to run once
TINY = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4)


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


def test_fit_preprocess_refuses_non_finite_frames(case, normal_series):
    # a power-flow gap hour with nothing before it to repeat is an all-NaN
    # row (generate.py); fitting and every variant's features refuse it by
    # that cause, not by the NaN stats or model outputs it would make
    rng = np.random.default_rng(4)
    values = rng.standard_normal((200, N_SENSORS))
    values[0] = np.nan
    gappy = ScenarioSeries(values=values, labels=["normal"] * 200,
                           metadata={"condition": "normal", "seed": 41,
                                     "gap_hours": [0]})
    clean = synthetic_series(rng.standard_normal((200, N_SENSORS)))
    named = r"seed 41 .*gap hours \[0\]"
    with pytest.raises(ValueError, match=named):
        fit_preprocess([clean, gappy])
    for variant in VARIANTS:
        bundle = small_bundle(variant, case, normal_series)
        with pytest.raises(ValueError, match=named):
            feature_rows(bundle, [normal_series[0], gappy], case)


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


def test_train_bundle_refuses_tainted_normal_series(case, normal_series):
    # a normal-condition series with an attack label fails the training
    # run before any fit, instead of dropping out of the training data
    tainted = normal_series[0]
    labels = list(tainted.labels)
    labels[10] = "attack_2"
    tainted = ScenarioSeries(values=tainted.values, labels=labels,
                             metadata=dict(tainted.metadata))
    assert tainted.metadata["condition"] == "normal"
    stages = dict.fromkeys(("autoencoder", "predictor", "classifier"), TINY)
    seed = tainted.metadata["seed"]
    with pytest.raises(ValueError, match=rf"seed {seed} carries non-normal "
                                         r"labels \['attack_2'\]"):
        train_bundle("RNN_DNN", [*normal_series, tainted], case, seed=0,
                     stage_configs=stages, noise_sigma=0.01)


def test_preprocess_stats_refuse_non_finite():
    for name in ("std", "raw_mean", "raw_std"):
        for bad in (np.nan, np.inf, -np.inf):
            fields = {"std": np.ones(N_SENSORS),
                      "raw_mean": np.zeros(N_SENSORS),
                      "raw_std": np.ones(N_SENSORS)}
            fields[name][3] = bad
            with pytest.raises(ValueError, match=f"^{name} must be 39 finite"):
                PreprocessStats(**fields)


# ---------------------------------------------------------------- autoencoder

def test_autoencoder_code_width_and_learning():
    rng = np.random.default_rng(4)
    basis = rng.standard_normal((5, N_SENSORS))
    z = rng.standard_normal((600, 5)) @ basis  # rank-5 data, learnable
    cfg = TrainConfig(learning_rate=1e-3, epochs=30, batch_size=64)
    enc, dec, history = fit_autoencoder(z, cfg, seed=0)
    codes, _ = enc.forward(z)
    assert codes.shape == (600, CODE_SIZE)
    assert history[-1] < history[0] * 0.5


def test_autoencoder_rejects_wrong_width():
    with pytest.raises(ValueError):
        fit_autoencoder(np.zeros((10, 5)), TINY, seed=0)


# ---------------------------------------------------------------- predictor

def test_predictor_constant_sequence():
    seq = np.ones((4, 30, CODE_SIZE)) * 0.5
    cfg = TrainConfig(learning_rate=1e-2, epochs=80, batch_size=4)
    model, history = fit_predictor(seq, cfg, seed=0)
    pred, _ = model.forward(seq[:, :-1])
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
        fit_predictor(np.zeros((1, LAGS, 3)), TINY, seed=0)


# ---------------------------------------------------------------- residuals

def make_stub_bundle(variant, case, stats=None, **kwargs):
    return ModelBundle(variant=variant, stats=stats or unit_stats(),
                       sensor_hash=sensor_map_hash(case), noise_sigma=0.01,
                       **kwargs)


def test_untrained_bundle_errors(case, normal_series):
    bundle = make_stub_bundle("RNN_DNN", case)
    with pytest.raises(UntrainedBundleError):
        predict_and_residual(bundle, normal_series[:1], case)
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
    bundle = make_stub_bundle("SE_DNN", case, stats)
    [(ts, residuals)] = predict_and_residual(bundle, [series], case=case)
    assert residuals.shape == (len(series.values) - 1 - LAGS, N_SENSORS)
    np.testing.assert_array_equal(ts,
                                  np.arange(LAGS + 1, len(series.values)))
    assert np.max(np.abs(residuals * stats.std)) < 1e-6


def test_residual_alignment_rnn(case, normal_series):
    series = normal_series[0]
    stats = fit_preprocess(normal_series)
    bundle = make_stub_bundle("RNN_DNN", case, stats)
    cfg = TrainConfig(learning_rate=5e-3, epochs=10, batch_size=4)
    z = np.stack([preprocess(s, stats) for s in normal_series])
    bundle.predictor, _ = fit_predictor(z, cfg, seed=0)
    [(ts, residuals)] = predict_and_residual(bundle, [series], case)
    assert ts[0] == LAGS + 1
    assert ts[-1] == len(series.values) - 1
    assert residuals.shape == (len(ts), N_SENSORS)
    [(_, x, y)] = feature_rows(bundle, [series], case)
    assert x.shape == (len(ts), CLASSIFIER_INPUT)
    np.testing.assert_array_equal(x[:, :N_SENSORS], residuals)
    np.testing.assert_array_equal(
        x[:, N_SENSORS:], stats.standardize_raw(series.values[ts]))
    np.testing.assert_array_equal(y, 0)  # all-normal series


def test_residual_generation_leaves_models_frozen(case, normal_series):
    stats = fit_preprocess(normal_series)
    bundle = make_stub_bundle("RNN_DNN", case, stats)
    z = np.stack([preprocess(s, stats) for s in normal_series])
    bundle.predictor, _ = fit_predictor(
        z, TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4), seed=0)
    before = state_checksum(bundle.predictor)
    predict_and_residual(bundle, normal_series, case)
    assert state_checksum(bundle.predictor) == before


@pytest.mark.parametrize("variant", ["RNN_DNN", "AEN_RNN_DNN"])
def test_stacked_residuals_match_one_series_form(case, normal_series,
                                                 variant):
    # 48- and 30-frame series interleaved, more of them than one group of
    # feature_rows holds: every series' residuals carry the bits of the
    # one-series form (2-D code rows, a (1, T, D) predictor batch) run in
    # the models' parameter dtype, float64 and float32
    stats = fit_preprocess(normal_series)
    bundle = make_stub_bundle(variant, case, stats)
    r = np.random.default_rng(7)
    coded = variant == "AEN_RNN_DNN"
    if coded:
        bundle.encoder, bundle.decoder = build_autoencoder(r)
    bundle.predictor = build_predictor(CODE_SIZE if coded else N_SENSORS, r)
    drawn = {name: get_state(getattr(bundle, name))
             for name in SUBMODELS[variant] if name != "classifier"}
    series = []
    for k in range(2 * RESIDUAL_GROUP + 3):
        base, n = normal_series[k % 3], 48 if k % 4 else 30
        series.append(ScenarioSeries(values=base.values[:n],
                                     labels=base.labels[:n],
                                     metadata=dict(base.metadata)))
    for dtype in (np.float64, np.float32):
        for name, state in drawn.items():
            set_state(getattr(bundle, name),
                      {k: v.astype(dtype) for k, v in state.items()})
        stacked = predict_and_residual(bundle, series, case)
        rows = feature_rows(bundle, series, case)
        assert len(stacked) == len(rows) == len(series)
        for one, (ts, residuals), (_, x, _) in zip(series, stacked, rows):
            z = preprocess(one, stats).astype(dtype)
            codes = bundle.encoder.forward(z)[0] if coded else z
            z_hat, _ = bundle.predictor.forward(codes[None, :-1])
            z_hat = z_hat[0]
            if coded:
                z_hat, _ = bundle.decoder.forward(z_hat)
            idx = np.arange(LAGS, z.shape[0])
            assert np.array_equal(ts, idx + 1)
            assert residuals.dtype == dtype
            assert np.array_equal(residuals, z[idx] - z_hat[idx - 1])
            [(_, alone)] = predict_and_residual(bundle, [one], case)
            assert np.array_equal(alone, residuals)
            assert np.array_equal(x[:, :N_SENSORS], residuals)


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
    cfg = TrainConfig(learning_rate=2e-3, epochs=60, batch_size=64)
    model, _ = fit_classifier(x, y, cfg, seed=0)
    probs = softmax(model.forward(x)[0])
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    accuracy = np.mean(classify(model, x) == y)
    assert accuracy > 0.99


def test_classifier_missing_class_listed():
    x, y = separable_toy(n_per_class=10)
    keep = y != 4
    with pytest.raises(ValueError, match="attack_8"):
        fit_classifier(x[keep], y[keep], TINY, seed=0)


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
    assert softmax(model.forward(x)[0])[0, 0] > 0.999

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
        bundle = make_stub_bundle(variant, case, stats, classifier=model)
        outs.append(bundle.classifier.forward(x)[0])
    np.testing.assert_array_equal(outs[0], outs[1])


# ---------------------------------------------------------------- bundle io

def small_bundle(variant, case, normal_series):
    """A bundle of `variant` with every sub-model fitted for a few epochs."""
    stats = fit_preprocess(normal_series)
    bundle = make_stub_bundle(variant, case, stats)
    z = np.stack([preprocess(s, stats) for s in normal_series])
    cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4)
    if variant == "AEN_RNN_DNN":
        bundle.encoder, bundle.decoder, _ = fit_autoencoder(
            np.concatenate(z), cfg, seed=0)
        z, _ = bundle.encoder.forward(z)  # the predictor works on 13-wide codes
    if variant != "SE_DNN":
        bundle.predictor, _ = fit_predictor(z, cfg, seed=0)
    x, y = separable_toy(n_per_class=60)
    bundle.classifier, _ = fit_classifier(
        x, y, TrainConfig(learning_rate=1e-3, epochs=5, batch_size=64),
        seed=0)
    return bundle


def test_bundle_roundtrip(tmp_path, case, normal_series):
    probe = np.random.default_rng(3).standard_normal((4, CLASSIFIER_INPUT))
    for variant in VARIANTS:
        bundle = small_bundle(variant, case, normal_series)
        path = tmp_path / f"bundle_{variant}.npz"
        save_bundle(bundle, path)
        loaded = load_bundle(path, case)
        assert loaded.variant == variant
        for name in ("std", "raw_mean", "raw_std"):
            np.testing.assert_array_equal(getattr(loaded.stats, name),
                                          getattr(bundle.stats, name))
        # exactly the variant's sub-models, each with every saved array
        for name in ("encoder", "decoder", "predictor", "classifier"):
            if name not in SUBMODELS[variant]:
                assert getattr(loaded, name) is None, (variant, name)
                continue
            saved = get_state(getattr(bundle, name))
            back = get_state(getattr(loaded, name))
            assert saved.keys() == back.keys(), (variant, name)
            for key in saved:
                assert np.array_equal(saved[key], back[key]), (variant, key)
        with np.load(path) as data:
            assert ("predictor/layer0.LSTM.Wx" in data.files) == (
                variant != "SE_DNN")
        np.testing.assert_array_equal(loaded.classifier.forward(probe)[0],
                                      bundle.classifier.forward(probe)[0])
        [(_, r1)] = predict_and_residual(bundle, normal_series[:1], case)
        [(_, r2)] = predict_and_residual(loaded, normal_series[:1], case)
        np.testing.assert_array_equal(r1, r2)


def stub_classifier_bundle(case, **kwargs):
    """An SE_DNN bundle with an untrained classifier: a complete bundle."""
    return make_stub_bundle("SE_DNN", case, **kwargs,
                            classifier=build_classifier(
                                np.random.default_rng(0)))


def saved_arrays(path):
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def test_sensor_map_mismatch_refused(tmp_path, case):
    path = tmp_path / "bundle.npz"
    # an empty hash is refused at write time
    bundle = stub_classifier_bundle(case)
    bundle.sensor_hash = ""
    with pytest.raises(ValueError, match="sensor-map hash"):
        save_bundle(bundle, path)
    assert not path.exists()
    bundle.sensor_hash = "not-the-real-hash"
    save_bundle(bundle, path)
    with pytest.raises(SensorMapMismatchError):
        load_bundle(path, case)
    save_bundle(stub_classifier_bundle(case), path)
    assert load_bundle(path, case).sensor_hash == sensor_map_hash(case)
    arrays = saved_arrays(path)
    # a hand-written file with an empty hash, or with none at all, is
    # refused at load time
    for drop in (False, True):
        written = dict(arrays)
        if drop:
            del written["meta/sensor_hash"]
        else:
            written["meta/sensor_hash"] = np.array("")
        np.savez(path, **written)
        with pytest.raises(SensorMapMismatchError):
            load_bundle(path, case)


def test_save_refuses_bundle_missing_a_submodel(tmp_path, case):
    # load_bundle would refuse the file, so save_bundle does not write it
    path = tmp_path / "bundle.npz"
    bundle = make_stub_bundle(
        "RNN_DNN", case, classifier=build_classifier(np.random.default_rng(0)))
    with pytest.raises(UntrainedBundleError, match="RNN_DNN needs a trained "
                                                   "predictor"):
        save_bundle(bundle, path)
    assert not path.exists()


def test_load_refuses_older_format(tmp_path, case):
    # version 3 held float64 parameters; the message names the file, the
    # version found and the one expected
    path = tmp_path / "bundle.npz"
    save_bundle(stub_classifier_bundle(case), path)
    for old in (2, 3):
        np.savez(path, **{**saved_arrays(path),
                          "meta/format_version": np.array(old)})
        with pytest.raises(ValueError, match=(
                f"^unsupported bundle file version {old} in "
                f"{re.escape(str(path))}; expected 4$")):
            load_bundle(path, case)


def test_load_names_submodel_and_file_of_a_bad_array(tmp_path, case):
    path = tmp_path / "bundle.npz"
    save_bundle(stub_classifier_bundle(case), path)
    arrays = saved_arrays(path)
    np.savez(path, **{**arrays, "classifier/layer2.Dense.W": np.zeros(3)})
    with pytest.raises(ValueError, match=f"classifier in bundle file "
                       f"{re.escape(str(path))}: shape mismatch"):
        load_bundle(path, case)
    # a missing meta array or an unknown variant names the file too
    named = f"meta in bundle file {re.escape(str(path))}: "
    for key in ("meta/format_version", "meta/variant", "meta/std"):
        np.savez(path, **{k: v for k, v in arrays.items() if k != key})
        with pytest.raises(KeyError, match=named + key):
            load_bundle(path, case)
    np.savez(path, **{**arrays, "meta/variant": np.array("XX")})
    with pytest.raises(ValueError, match=named + "unknown variant 'XX'$"):
        load_bundle(path, case)


def test_bundle_architecture_conformance():
    with pytest.raises(ValueError):
        ModelBundle(variant="nope", stats=unit_stats(), sensor_hash="",
                    noise_sigma=0.01)


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
