import re
from dataclasses import replace

import numpy as np
import pytest

from gridsentry import InputError
from gridsentry.detector import (CLASSIFIER_INPUT, CODE_SIZE, EPSILON, LAGS,
                                 ModelBundle, PreprocessStats, VARIANTS,
                                 classify,
                                 feature_rows,
                                 fit_autoencoder, fit_classifier,
                                 fit_predictor, fit_preprocess, load_bundle,
                                 predict_and_residual, preprocess, save_bundle,
                                 state_checksum)
from gridsentry.detector import models
from gridsentry.detector.models import (COMPUTE_DTYPE, STAGE_DEFAULTS,
                                       SUBMODELS, build_autoencoder,
                                       build_classifier, build_predictor)
from gridsentry.detector.pipeline import RESIDUAL_FRAMES
from gridsentry.dispatch import plan_generation, synthesize_loads
from gridsentry.grid import (N_SENSORS, estimate_state, estimation, load_case,
                             noise_scale)
from gridsentry.grid.powerflow import sensor_function
from gridsentry.neural import TrainConfig, get_state, set_state, softmax
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
        loads = synthesize_loads(48, rng)
        plan = plan_generation(loads)
        out.append(generate_scenario(case, plan, loads, None,
                                     noise_sigma=0.01, seed=300 + k))
    return out


def normal_stack(series_list):
    """The (frames, labels, levels) stack of normal series, as
    cli.load_dataset returns a dataset's part: every frame normal, at
    level 0."""
    frames = np.array([s.values for s in series_list])
    return (frames, np.full(frames.shape[:2], LABELS.index("normal")),
            np.zeros(len(frames), dtype=int))


@pytest.fixture(scope="module")
def normal_frames(normal_series):
    return normal_stack(normal_series)[0]


def unit_stats():
    return PreprocessStats(std=np.ones(N_SENSORS),
                           raw_mean=np.zeros(N_SENSORS),
                           raw_std=np.ones(N_SENSORS))


# ---------------------------------------------------------------- preprocess

def test_preprocess_constant_series():
    frames = np.ones((1, 50, N_SENSORS))
    np.testing.assert_array_equal(preprocess(frames, unit_stats())[0], 0.0)


def test_fit_preprocess_self_standardizes():
    rng = np.random.default_rng(0)
    data = np.cumsum(rng.standard_normal((1, 2000, N_SENSORS)), axis=1)
    stats = fit_preprocess(data)
    z = preprocess(data, stats)[0]
    np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, rtol=0.05)


def test_fit_preprocess_iid_difference_identity():
    # var of the first difference of i.i.d. noise is 2 sigma^2
    sigma = 0.3
    rng = np.random.default_rng(1)
    data = sigma * rng.standard_normal((1, 20000, N_SENSORS))
    stats = fit_preprocess(data)
    np.testing.assert_allclose(stats.std, sigma * np.sqrt(2), rtol=0.05)


def test_fit_preprocess_constant_sensor_floor():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((500, N_SENSORS))
    values[:, 7] = 3.25
    stats = fit_preprocess(values[None])
    assert stats.std[7] == EPSILON


def test_fit_preprocess_insufficient_data():
    with pytest.raises(ValueError):
        fit_preprocess(np.ones((1, 40, N_SENSORS)))


def test_fit_preprocess_deterministic():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((1, 300, N_SENSORS))
    s1 = fit_preprocess(data)
    s2 = fit_preprocess(data)
    np.testing.assert_array_equal(s1.std, s2.std)


def ref_fit_preprocess(frames):
    """(std, raw_mean, raw_std) in the per-series form: each series'
    differences and frames concatenated, then the std and mean."""
    diffs = np.concatenate([np.diff(one, axis=0) for one in frames])
    raw = np.concatenate(list(frames))
    return (np.maximum(diffs.std(axis=0, ddof=1), EPSILON), raw.mean(axis=0),
            np.maximum(raw.std(axis=0, ddof=1), EPSILON))


def ref_preprocess(values, stats):
    """One series' standardized differences, on its own."""
    return np.diff(values, axis=0) / stats.std


def test_stacked_preprocess_matches_per_series_form(normal_frames):
    # the stack's reshapes and its diff along time keep the bits of the
    # per-series forms
    rng = np.random.default_rng(8)
    drawn = np.array([np.cumsum(rng.standard_normal((60, N_SENSORS)), axis=0)
                      for _ in range(5)])
    for frames in (normal_frames, drawn):
        stats = fit_preprocess(frames)
        for got, want in zip((stats.std, stats.raw_mean, stats.raw_std),
                             ref_fit_preprocess(frames)):
            assert np.array_equal(got, want)
        z = preprocess(frames, stats)
        assert z.shape == (len(frames), frames.shape[1] - 1, N_SENSORS)
        for one, rows in zip(frames, z):
            assert np.array_equal(rows, ref_preprocess(one, stats))


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

def test_autoencoder_code_width_and_learning(monkeypatch):
    rng = np.random.default_rng(4)
    basis = rng.standard_normal((5, N_SENSORS))
    z = rng.standard_normal((600, 5)) @ basis  # rank-5 data, learnable
    monkeypatch.setitem(STAGE_DEFAULTS, "autoencoder", TrainConfig(
        learning_rate=1e-3, epochs=30, batch_size=64))
    enc, dec, history = fit_autoencoder(z, seed=0)
    codes, _ = enc.forward(z)
    assert codes.shape == (600, CODE_SIZE)
    assert history[-1] < history[0] * 0.5


def test_autoencoder_rejects_wrong_width():
    with pytest.raises(ValueError):
        fit_autoencoder(np.zeros((10, 5)), seed=0)


# ---------------------------------------------------------------- predictor

def test_predictor_constant_sequence(monkeypatch):
    seq = np.ones((4, 30, CODE_SIZE)) * 0.5
    monkeypatch.setitem(STAGE_DEFAULTS, "predictor", TrainConfig(
        learning_rate=1e-2, epochs=80, batch_size=4))
    model, history = fit_predictor(seq, seed=0)
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


# ---------------------------------------------------------------- residuals

def make_stub_bundle(variant, stats=None, **kwargs):
    return ModelBundle(variant=variant, stats=stats or unit_stats(),
                       dataset={"noise_sigma": 0.01},
                       **kwargs)


def se_bundle_and_anchor(case, normal_frames):
    """An SE_DNN stub bundle on the normal frames' stats, and the AC WLS
    fit of their mean frame, which anchors the bundle's linearized fit."""
    bundle = make_stub_bundle("SE_DNN", fit_preprocess(normal_frames))
    mean = bundle.stats.raw_mean
    sigma = bundle.dataset["noise_sigma"]
    return bundle, estimate_state(case, mean, noise_scale(mean, sigma) ** 2)


def test_se_residuals_vanish_in_the_linearized_model(case, normal_frames):
    # frames h0 + H0 delta lie in the range of the model linearized at the
    # anchor, so the linearized WLS fit predicts each one exactly
    bundle, anchor = se_bundle_and_anchor(case, normal_frames)
    assert anchor.converged
    topo = case.topology
    vm = anchor.voltage_magnitude
    V = vm * np.exp(1j * anchor.voltage_angle)
    h0, S = sensor_function(topo, V, vm)
    H0 = estimation._linearize(topo, V, S)
    delta = 1e-2 * np.random.default_rng(7).standard_normal(
        (2, LAGS + 13, H0.shape[1]))
    [residuals, _] = predict_and_residual(bundle, h0 + delta @ H0.T)
    # one row per frame LAGS+1 .. T-1
    assert residuals.shape == (12, N_SENSORS)
    assert np.max(np.abs(residuals * bundle.stats.std)) <= 1e-9


def test_se_stacked_residuals_match_one_series_calls(case, normal_frames):
    # BLAS sums the batched gain product in an order that depends on the
    # stack's size, so a slice agrees with its one-series call to float64
    # rounding (about 1e-14 here), not to the bit
    bundle, _ = se_bundle_and_anchor(case, normal_frames)
    stacked = predict_and_residual(bundle, normal_frames)
    assert stacked.dtype == np.float64
    for k, frames in enumerate(normal_frames):
        np.testing.assert_allclose(
            stacked[k], predict_and_residual(bundle, frames[None])[0],
            rtol=0, atol=1e-12)


def test_se_unconverged_anchor_is_refused(case, normal_frames, monkeypatch):
    # the linearized fit needs a converged anchor: a fit that stops short
    # says so, naming the frame it could not fit
    bundle, anchor = se_bundle_and_anchor(case, normal_frames)
    monkeypatch.setattr(models, "estimate_state", lambda *args: replace(
        anchor, converged=False))
    with pytest.raises(InputError, match="bundle's mean normal frame"):
        predict_and_residual(bundle, normal_frames)


def test_residual_alignment_rnn(normal_series, normal_frames, monkeypatch):
    series = normal_series[0]
    stats = fit_preprocess(normal_frames)
    bundle = make_stub_bundle("RNN_DNN", stats)
    monkeypatch.setitem(STAGE_DEFAULTS, "predictor", TrainConfig(
        learning_rate=5e-3, epochs=10, batch_size=4))
    z = preprocess(normal_frames, stats)
    bundle.predictor, _ = fit_predictor(z, seed=0)
    [residuals] = predict_and_residual(bundle, normal_frames[:1])
    ts = np.arange(LAGS + 1, len(series.values))  # the residual frames
    assert residuals.shape == (len(ts), N_SENSORS)
    levels, x, y = feature_rows(bundle, normal_stack([series]))
    assert x.shape == (len(ts), CLASSIFIER_INPUT)
    np.testing.assert_array_equal(x[:, :N_SENSORS],
                                  residuals.astype(x.dtype))
    np.testing.assert_array_equal(
        x[:, N_SENSORS:],
        stats.standardize_raw(series.values[ts]).astype(x.dtype))
    np.testing.assert_array_equal(y, 0)  # all-normal series
    np.testing.assert_array_equal(levels, np.zeros(len(ts)))


def test_residual_generation_leaves_models_frozen(normal_frames, monkeypatch):
    stats = fit_preprocess(normal_frames)
    bundle = make_stub_bundle("RNN_DNN", stats)
    z = preprocess(normal_frames, stats)
    monkeypatch.setitem(STAGE_DEFAULTS, "predictor", TrainConfig(
        learning_rate=1e-3, epochs=3, batch_size=4))
    bundle.predictor, _ = fit_predictor(z, seed=0)
    before = state_checksum(bundle.predictor)
    predict_and_residual(bundle, normal_frames)
    assert state_checksum(bundle.predictor) == before


@pytest.mark.parametrize("variant", ["RNN_DNN", "AEN_RNN_DNN"])
def test_stacked_residuals_match_one_series_form(normal_series, normal_frames,
                                                 variant):
    # equal-length series, more of them than two groups of feature_rows
    # hold: every series' residuals carry the bits of the one-series form
    # (2-D code rows, a (1, T, D) predictor batch) run in the models'
    # parameter dtype, float64 and float32
    stats = fit_preprocess(normal_frames)
    bundle = make_stub_bundle(variant, stats)
    r = np.random.default_rng(7)
    coded = variant == "AEN_RNN_DNN"
    if coded:
        bundle.encoder, bundle.decoder = build_autoencoder(r)
    bundle.predictor = build_predictor(CODE_SIZE if coded else N_SENSORS, r)
    drawn = {name: get_state(getattr(bundle, name))
             for name in SUBMODELS[variant] if name != "classifier"}
    t = 40
    series = []
    for k in range(2 * (RESIDUAL_FRAMES // t) + 3):
        base, start = normal_series[k % 3], k % 4
        series.append(ScenarioSeries(values=base.values[start:start + t],
                                     metadata=dict(base.metadata)))
    for dtype in (np.float64, np.float32):
        for name, state in drawn.items():
            set_state(getattr(bundle, name),
                      {k: v.astype(dtype) for k, v in state.items()})
        stack = normal_stack(series)
        stacked = predict_and_residual(bundle, stack[0])
        _, table, _ = feature_rows(bundle, stack)
        # the table is held in the classifier's dtype, whatever the models'
        assert table.dtype == COMPUTE_DTYPE
        assert stacked.shape == (len(series), t - 1 - LAGS, N_SENSORS)
        # the table's frames are each series' residual frames, in order
        assert len(table) == len(series) * (t - 1 - LAGS)
        for one, residuals, x in zip(series, stacked,
                                     np.split(table, len(series))):
            frames = one.values[None]
            z = preprocess(frames, stats)[0].astype(dtype)
            codes = bundle.encoder.forward(z)[0] if coded else z
            z_hat, _ = bundle.predictor.forward(codes[None, :-1])
            z_hat = z_hat[0]
            if coded:
                z_hat, _ = bundle.decoder.forward(z_hat)
            idx = np.arange(LAGS, z.shape[0])
            assert residuals.shape == (len(idx), N_SENSORS)
            assert residuals.dtype == dtype
            assert np.array_equal(residuals, z[idx] - z_hat[idx - 1])
            [alone] = predict_and_residual(bundle, frames)
            assert np.array_equal(alone, residuals)
            assert np.array_equal(x[:, :N_SENSORS], residuals.astype(x.dtype))


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


def test_classifier_separable_toy(monkeypatch):
    x, y = separable_toy()
    monkeypatch.setitem(STAGE_DEFAULTS, "classifier", TrainConfig(
        learning_rate=2e-3, epochs=60, batch_size=64))
    model, _ = fit_classifier(x, y, seed=0)
    probs = softmax(model.forward(x)[0])
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    accuracy = np.mean(classify(model, x) == y)
    assert accuracy > 0.99


def test_classifier_missing_class_listed():
    x, y = separable_toy(n_per_class=10)
    keep = y != 4
    with pytest.raises(ValueError, match="attack_8"):
        fit_classifier(x[keep], y[keep], seed=0)


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


def test_classify_is_the_argmax_of_the_forward_softmax(monkeypatch):
    # classify runs the layers one at a time and drops each cache, which
    # moves no bit: on float64 and float32 classifiers it labels every
    # frame as the argmax of the softmax of the full forward does
    x, y = separable_toy(n_per_class=20)
    monkeypatch.setitem(STAGE_DEFAULTS, "classifier", TrainConfig(
        learning_rate=2e-3, epochs=40, batch_size=32))
    model, _ = fit_classifier(x, y, 0)
    drawn = get_state(model)
    for dtype in (np.float64, np.float32):
        set_state(model, {k: v.astype(dtype) for k, v in drawn.items()})
        expected = np.argmax(softmax(model.forward(x.astype(dtype))[0]),
                             axis=1)
        assert len(set(expected.tolist())) > 1
        assert np.array_equal(classify(model, x), expected)


def test_variant_shared_classifier_path():
    # RNN_DNN and AEN_RNN_DNN differ only in the residual generator; the
    # classifier path is byte-identical given identical features
    stats = unit_stats()
    model = build_classifier(np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((5, CLASSIFIER_INPUT))
    outs = []
    for variant in ("RNN_DNN", "AEN_RNN_DNN"):
        bundle = make_stub_bundle(variant, stats, classifier=model)
        outs.append(bundle.classifier.forward(x)[0])
    np.testing.assert_array_equal(outs[0], outs[1])


# ---------------------------------------------------------------- bundle io

def small_bundle(variant, frames, monkeypatch):
    """A bundle of `variant` with every sub-model fitted for a few epochs."""
    stats = fit_preprocess(frames)
    bundle = make_stub_bundle(variant, stats)
    z = preprocess(frames, stats)
    for stage in ("autoencoder", "predictor"):
        monkeypatch.setitem(STAGE_DEFAULTS, stage, TrainConfig(
            learning_rate=1e-3, epochs=3, batch_size=4))
    monkeypatch.setitem(STAGE_DEFAULTS, "classifier", TrainConfig(
        learning_rate=1e-3, epochs=5, batch_size=64))
    if variant == "AEN_RNN_DNN":
        bundle.encoder, bundle.decoder, _ = fit_autoencoder(
            np.concatenate(z), seed=0)
        z, _ = bundle.encoder.forward(z)  # the predictor works on 13-wide codes
    if variant != "SE_DNN":
        bundle.predictor, _ = fit_predictor(z, seed=0)
    x, y = separable_toy(n_per_class=60)
    bundle.classifier, _ = fit_classifier(x, y, seed=0)
    return bundle


def test_bundle_roundtrip(tmp_path, normal_frames, monkeypatch):
    probe = np.random.default_rng(3).standard_normal((4, CLASSIFIER_INPUT))
    for variant in VARIANTS:
        bundle = small_bundle(variant, normal_frames, monkeypatch)
        path = tmp_path / f"bundle_{variant}.npz"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded.variant == variant
        assert loaded.dataset == bundle.dataset == {"noise_sigma": 0.01}
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
        [r1] = predict_and_residual(bundle, normal_frames[:1])
        [r2] = predict_and_residual(loaded, normal_frames[:1])
        np.testing.assert_array_equal(r1, r2)


def stub_classifier_bundle(**kwargs):
    """An SE_DNN bundle with an untrained classifier: a complete bundle."""
    return make_stub_bundle("SE_DNN", **kwargs,
                            classifier=build_classifier(
                                np.random.default_rng(0)))


def saved_arrays(path):
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def test_load_refuses_older_format(tmp_path):
    # version 3 held float64 parameters, version 4 the noise level alone,
    # not the record of the dataset trained on, version 5 a record with
    # the case_file key, and version 6 a sensor-map hash; the message names
    # the file, the version found and the one expected; a version that is
    # not an integer scalar is refused too (int() raised a TypeError on a
    # list or a string, and read 7.5 as 7)
    path = tmp_path / "bundle.npz"
    save_bundle(stub_classifier_bundle(), path)
    for old in (2, 3, 4, 5, 6, 7.5, [7, 7], ["7"]):
        np.savez(path, **{**saved_arrays(path),
                          "meta/format_version": np.array(old)})
        with pytest.raises(InputError, match=(
                f"^unsupported bundle file version {re.escape(str(old))} in "
                f"{re.escape(str(path))}; expected 7$")):
            load_bundle(path)


def test_load_names_submodel_and_file_of_a_bad_array(tmp_path):
    path = tmp_path / "bundle.npz"
    save_bundle(stub_classifier_bundle(), path)
    arrays = saved_arrays(path)
    np.savez(path, **{**arrays, "classifier/layer2.Dense.W": np.zeros(3)})
    with pytest.raises(InputError, match=f"classifier in bundle file "
                       f"{re.escape(str(path))}: shape mismatch"):
        load_bundle(path)
    # a missing meta array or an unknown variant names the file too
    named = f"meta in bundle file {re.escape(str(path))}: "
    for key in ("meta/format_version", "meta/variant", "meta/std",
                "meta/dataset"):
        np.savez(path, **{k: v for k, v in arrays.items() if k != key})
        with pytest.raises(InputError, match=named + key):
            load_bundle(path)
    # the dataset record is one JSON object
    for record, cause in (("{", "Expecting property name"),
                          ("[0.01]", "meta/dataset is not a JSON object$")):
        np.savez(path, **{**arrays, "meta/dataset": np.array(record)})
        with pytest.raises(InputError, match=named + cause):
            load_bundle(path)
    np.savez(path, **{**arrays, "meta/variant": np.array("XX")})
    with pytest.raises(InputError, match=named + "unknown variant 'XX'$"):
        load_bundle(path)


def test_bundle_architecture_conformance():
    with pytest.raises(ValueError):
        ModelBundle(variant="nope", stats=unit_stats(),
                    dataset={"noise_sigma": 0.01})


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
