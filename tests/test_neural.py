import numpy as np
import pytest

from gridsentry.neural import (Adam, Dense, LSTM, LeakyReLU, NumericalError,
                               ReLU, Sequential, Sigmoid, TrainConfig,
                               get_state, mse, set_state, softmax,
                               softmax_cross_entropy, train)
from gridsentry.detector.models import build_autoencoder, build_classifier
from gridsentry.neural.layers import LEAKY_SLOPE, _row_max, _sigmoid
from gridsentry.neural.train import flatten_parameters
from oracles import grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


def lstm_readout(in_dim, hidden, out_dim, r):
    """The predictor's shape (build_predictor) at test widths."""
    return Sequential([LSTM(in_dim, hidden, r), Dense(hidden, out_dim, r)])


# ---------------------------------------------------------------- dense

def test_dense_identity():
    d = Dense(3, 3, rng())
    d.params["W"] = np.eye(3)
    d.params["b"] = np.zeros(3)
    x = rng(1).standard_normal((5, 3))
    np.testing.assert_array_equal(d.forward(x)[0], x)


def test_dense_constant():
    d = Dense(4, 2, rng())
    d.params["W"] = np.zeros((4, 2))
    d.params["b"] = np.array([1.5, -2.0])
    x = rng(1).standard_normal((7, 4))
    out, _ = d.forward(x)
    np.testing.assert_allclose(out, np.broadcast_to([1.5, -2.0], (7, 2)))


def test_dense_shape_error():
    d = Dense(4, 2, rng())
    with pytest.raises(ValueError):
        d.forward(np.zeros((3, 5)))


def test_dense_grad_matches_finite_differences():
    d = Dense(4, 3, rng(2))
    x = rng(3).standard_normal((6, 4))
    y = rng(4).standard_normal((6, 3))
    m = Sequential([d])
    assert grad_check(m, x, y) < 1e-4


# ---------------------------------------------------------------- activations

def test_relu_values():
    r = ReLU()
    np.testing.assert_array_equal(r.forward(np.array([-1.0, 2.0]))[0],
                                  np.array([0.0, 2.0]))


def test_softmax_rows_sum_to_one():
    x = rng(5).standard_normal((20, 9)) * 10
    p = softmax(x)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0) and np.all(p < 1)


def test_softmax_overflow_stable():
    p = softmax(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.all(np.isfinite(p))
    assert p[0, 0] == pytest.approx(1.0)


def test_leaky_relu_negative_slope():
    lr = LeakyReLU()
    x = np.array([[-2.0, 3.0]])
    _, mask = lr.forward(x)
    grad = lr.backward(mask, np.ones_like(x))
    np.testing.assert_allclose(grad, [[0.01, 1.0]])


# ---------------------------------------------------------------- LSTM

def test_lstm_zero_weights():
    cell = LSTM(2, 3, rng(0))
    for k in cell.params:
        cell.params[k] = np.zeros_like(cell.params[k])
    out, _ = cell.forward(np.ones((1, 4, 2)))
    np.testing.assert_array_equal(out, np.zeros((1, 4, 3)))


def test_lstm_forget_gate_saturation():
    # forget bias -> +inf: the second step's cell state approaches c1 + i2*g2
    H = 3
    cell = LSTM(2, H, rng(1))
    cell.params["b"][H:2 * H] = 20.0
    x = rng(3).standard_normal((1, 2, 2))
    hs, _ = cell.forward(x)
    Wx, Wh, b = cell.params["Wx"], cell.params["Wh"], cell.params["b"]

    def gates(z):
        i = 1 / (1 + np.exp(-z[:, :H]))
        o = 1 / (1 + np.exp(-z[:, 3 * H:]))
        return i, np.tanh(z[:, 2 * H:3 * H]), o

    i1, g1, o1 = gates(x[:, 0] @ Wx + b)  # first step, from zero state
    c1 = i1 * g1
    h1 = o1 * np.tanh(c1)
    np.testing.assert_allclose(hs[:, 0], h1, atol=1e-12)
    i2, g2, o2 = gates(x[:, 1] @ Wx + h1 @ Wh + b)
    np.testing.assert_allclose(hs[:, 1], o2 * np.tanh(c1 + i2 * g2),
                               atol=1e-6)


def test_lstm_bptt_grad_matches_finite_differences():
    cell = LSTM(3, 4, rng(6))
    x = rng(7).standard_normal((2, 8, 3))
    y = rng(8).standard_normal((2, 8, 4))
    assert grad_check(cell, x, y) < 1e-4


def test_sequence_predictor_grad_with_mask():
    model = lstm_readout(3, 5, 3, rng(9))
    x = rng(10).standard_normal((2, 12, 3))
    y = rng(11).standard_normal((2, 12, 3))
    mask = np.zeros((2, 12))
    mask[:, 4:] = 1.0
    assert grad_check(model, x, y, mask=mask) < 1e-4


# ---------------------------------------------------------------- reference forms
# The kernels must return the same bits as these plain forms: a masked
# sigmoid, a per-step LSTM, an out-of-place per-parameter Adam, a copying
# cross entropy and a training loop over per-parameter arrays.

def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm(params, x, dhs):
    """Per-step forward and backward from zero state; (hs, dx, grads)."""
    Wx, Wh, b = params["Wx"], params["Wh"], params["b"]
    B, T, _ = x.shape
    H = Wh.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    h0 = h
    hs = np.empty((B, T, H))
    cache = []
    for t in range(T):
        z = x[:, t] @ Wx + h @ Wh + b
        i = ref_sigmoid(z[:, :H])
        f = ref_sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = ref_sigmoid(z[:, 3 * H:])
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        hs[:, t] = h
        cache.append((i, f, g, o, c_prev, tc, h))
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dx = np.empty_like(x)
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        i, f, g, o, c_prev, tc, _h = cache[t]
        dh = dhs[:, t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz = np.concatenate([dc * g * i * (1.0 - i),
                             dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g),
                             do * o * (1.0 - o)], axis=1)
        h_prev = cache[t - 1][6] if t > 0 else h0
        grads["Wx"] += x[:, t].T @ dz
        grads["Wh"] += h_prev.T @ dz
        grads["b"] += dz.sum(axis=0)
        dx[:, t] = dz @ Wx.T
        dh_next = dz @ Wh.T
        dc_next = dc * f
    return hs, dx, grads


def ref_adam_step(state, params, grads, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    for k, g in grads.items():
        m, v = state.get(k, (np.zeros_like(g), np.zeros_like(g)))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        state[k] = (m, v)
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        params[k] = params[k] - lr * mhat / (np.sqrt(vhat) + eps)


def test_sigmoid_bits_match_reference():
    x = np.concatenate([rng(40).standard_normal(997) * 12,
                        [0.0, -0.0, 800.0, -800.0, np.nan]])
    for arr in (x, x.reshape(1, -1), x[:1000].reshape(40, 25)):
        ref = ref_sigmoid(arr)
        out = _sigmoid(arr)
        np.testing.assert_array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
    assert _sigmoid(np.array([-800.0]))[0] == 0.0


# Plain forms of the elementwise kernels: out-of-place, a boolean mask
# times a float, np.where selections and np.clip.

def ref_relu(x, dy):
    mask = x > 0
    return x * mask, dy * mask


def ref_leaky_relu(x, dy):
    mask = x > 0
    return (np.where(mask, x, LEAKY_SLOPE * x),
            np.where(mask, dy, LEAKY_SLOPE * dy))


def special_values(seed, shape):
    """Random values with +-0, +-800, +-inf and NaN spread through them."""
    x = rng(seed).standard_normal(shape) * 12
    flat = x.reshape(-1)
    specials = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
    at = rng(seed + 1).choice(flat.size, size=3 * len(specials),
                              replace=False)
    flat[at] = np.tile(specials, 3)
    return x


def assert_same_bits(a, b):
    # bit patterns, so that the sign of zero and every NaN count
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


@pytest.mark.parametrize("shape", [(40, 25), (3, 1, 7, 16), (1, 128)])
@np.errstate(all="ignore")
def test_activation_bits_match_reference(shape):
    x = special_values(80, shape)
    dy = special_values(82, shape)
    for layer, ref in ((ReLU(), ref_relu), (LeakyReLU(), ref_leaky_relu)):
        y_ref, dx_ref = ref(x, dy)
        y, cache = layer.forward(x)
        assert_same_bits(y, y_ref)
        assert_same_bits(layer.backward(cache, dy), dx_ref)
    sig = Sigmoid()
    y, cache = sig.forward(x)
    assert_same_bits(y, ref_sigmoid(x))
    assert_same_bits(sig.backward(cache, dy), dy * y * (1.0 - y))


def test_dense_bits_match_reference():
    # stacked (S, 1, T, D) inputs take the per-block products of 2-D ones
    d = Dense(16, 9, rng(84))
    d.params["b"] = rng(85).standard_normal(9)
    x = rng(86).standard_normal((3, 1, 7, 16)) * 12
    x.reshape(-1)[[0, 5, 9, 30]] = [0.0, -0.0, 800.0, -800.0]
    W, b = d.params["W"], d.params["b"]
    assert_same_bits(d.forward(x)[0], x @ W + b)
    for block in x:
        assert_same_bits(d.forward(block[0])[0], block[0] @ W + b)
    for bad in (np.nan, np.inf):
        x[0, 0, 0, 0] = bad
        with pytest.raises(NumericalError, match="Dense"):
            d.forward(x)


@np.errstate(all="ignore")
def test_softmax_bits_match_reference():
    logits = special_values(87, (64, 9))
    assert_same_bits(softmax(logits), ref_softmax(logits))
    logits = np.nan_to_num(logits, nan=0.0, posinf=700.0, neginf=-700.0)
    labels = np.arange(64) % 9
    loss, grad = softmax_cross_entropy(logits, labels)
    ref_loss, ref_grad = ref_cross_entropy(logits, labels)
    assert_same_bits(np.array(loss), np.array(ref_loss))
    assert_same_bits(grad, ref_grad)
    # a row whose label's probability underflows is floored at EPS
    logits[0] = [800.0, -800.0] + [0.0] * 7
    loss, grad = softmax_cross_entropy(logits, np.r_[1, labels[1:]])
    ref_loss, ref_grad = ref_cross_entropy(logits, np.r_[1, labels[1:]])
    assert_same_bits(np.array(loss), np.array(ref_loss))
    assert_same_bits(grad, ref_grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(9,), (300, 9), (4, 5, 9), (50, 2)])
@np.errstate(all="ignore")
def test_row_max_matches_max(dtype, shape):
    # rows drawn from NaN, +-inf, +-0.0 and ordinary values, so that rows
    # hold several specials and zeros of both signs tie for the max
    picks = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0])
    x = rng(91).choice(picks, size=shape).astype(dtype)
    got, ref = _row_max(x), x.max(axis=-1, keepdims=True)
    assert got.shape == ref.shape and got.dtype == ref.dtype == dtype
    # the same bits, but for the sign of a zero max: adding +0.0 makes
    # every zero +0.0 and keeps every other value's bits
    uint = np.uint32 if dtype == np.float32 else np.uint64
    assert np.array_equal((got + dtype(0)).view(uint),
                          (ref + dtype(0)).view(uint))
    # which zero is the max does not reach the softmax: x - (+-0) differs
    # only in the sign of a zero, and exp maps both zeros to 1
    assert np.array_equal(softmax(x).view(uint), ref_softmax(x).view(uint))


def call_everything(model, x, dy):
    """forward, then backward with an input gradient when it has one."""
    out, cache = model.forward(x)
    model.backward(cache, dy)
    return out


def test_calls_leave_caller_arrays_alone():
    # no call writes into an array its caller passed in, and no array a
    # call returned is written by a later call
    r = rng(88)
    layers = [(Dense(6, 4, r), (5, 6), (5, 4)), (ReLU(), (5, 6), (5, 6)),
              (LeakyReLU(), (5, 6), (5, 6)), (Sigmoid(), (5, 6), (5, 6)),
              (LSTM(6, 4, r), (2, 5, 6), (2, 5, 4)),
              (build_classifier(r), (5, 78), (5, 9)),
              (Sequential(list(build_autoencoder(r))), (5, 39), (5, 39)),
              (lstm_readout(6, 4, 6, r), (2, 5, 6), (2, 5, 6))]
    for model, in_shape, out_shape in layers:
        x = rng(89).standard_normal(in_shape)
        dy = rng(90).standard_normal(out_shape)
        x0, dy0 = x.copy(), dy.copy()
        if model.parameters():
            flatten_parameters(model)
        first = call_everything(model, x, dy)
        kept = first.copy()
        second = call_everything(model, 2.0 * x, dy)
        assert_same_bits(x, x0)
        assert_same_bits(dy, dy0)
        assert_same_bits(first, kept)
        assert not np.shares_memory(first, second), type(model).__name__
    logits, labels = rng(91).standard_normal((5, 9)), np.arange(5)
    kept = logits.copy()
    p = softmax(logits)
    _, grad = softmax_cross_entropy(logits, labels)
    assert_same_bits(logits, kept)
    assert not np.shares_memory(p, grad)
    flat = rng(92).standard_normal(7)
    opt = Adam(1e-3, flat)
    grads = rng(93).standard_normal(7)
    kept = grads.copy()
    opt.step(flat, grads)
    assert_same_bits(grads, kept)


def test_interleaved_calls_match_lone_calls():
    # forward A, forward B, backward B, backward A: each call reads only
    # its arguments, so each backward gives the bits of a lone forward and
    # backward on its own batch (at one batch size more for B)
    r = rng(120)
    models = [(Dense(6, 4, r), (5, 6)), (LSTM(6, 4, r), (2, 5, 6)),
              (build_classifier(r), (5, 78)),
              (Sequential(list(build_autoencoder(r))), (5, 39)),
              (lstm_readout(6, 4, 6, r), (2, 5, 6))]
    for model, shape in models:
        name = type(model).__name__
        xs = [rng(121).standard_normal(shape),
              rng(122).standard_normal((shape[0] + 1, *shape[1:]))]
        lone = []
        for k, x in enumerate(xs):
            y, cache = model.forward(x)
            dy = rng(123 + k).standard_normal(y.shape)
            flatten_parameters(model)
            lone.append((y, dy, model.backward(cache, dy), get_grads(model)))
        caches = []
        for x, (y_lone, *_) in zip(xs, lone):
            y, cache = model.forward(x)
            assert_same_bits(y, y_lone)
            caches.append(cache)
        for k in (1, 0):
            _, dy, dx_lone, grads_lone = lone[k]
            flatten_parameters(model)
            assert_same_bits(model.backward(caches[k], dy), dx_lone)
            grads = get_grads(model)
            assert grads.keys() == grads_lone.keys(), name
            for pname, g in grads.items():
                assert_same_bits(g, grads_lone[pname])


@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_train_leaves_its_data_alone(loss):
    x = rng(94).standard_normal((40, 78))
    if loss == "mse":
        model, y = Sequential([Dense(78, 78, rng(95))]), x
    else:
        model, y = build_classifier(rng(95)), np.arange(40) % 9
    x0, y0 = x.copy(), y.copy()
    train(model, x, y, TrainConfig(learning_rate=1e-3, epochs=2,
                                   batch_size=16), seed=0, loss=loss)
    assert np.array_equal(x, x0) and np.array_equal(y, y0)


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("reused", [False, True])
@pytest.mark.parametrize("D", [13, 39])
def test_lstm_bits_match_per_step_reference(batch, reused, D):
    # the predictor's widths: 13 codes (AEN_RNN_DNN) or 39 sensors (RNN_DNN);
    # a cell reused after another forward and backward starts from zeros
    H, T = 32, 11
    cell = LSTM(D, H, rng(41))
    cell.params["b"] = rng(42).standard_normal(4 * H)
    x = rng(43).standard_normal((batch, T, D))
    dhs = rng(44).standard_normal((batch, T, H))
    if reused:
        earlier = rng(45).standard_normal((batch, T + 2, D))
        _, cache = cell.forward(earlier)
        flatten_parameters(cell)
        cell.backward(cache, np.ones((batch, T + 2, H)))
    hs_ref, dx_ref, grads_ref = ref_lstm(cell.params, x, dhs)
    hs, cache = cell.forward(x)
    flatten_parameters(cell)
    dx = cell.backward(cache, dhs)
    assert np.array_equal(hs, hs_ref)
    assert np.array_equal(dx, dx_ref)
    for k in ("Wx", "Wh", "b"):
        assert np.array_equal(cell.grads[k], grads_ref[k]), k


def ref_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_cross_entropy(logits, labels):
    p = ref_softmax(logits)
    n = logits.shape[0]
    picked = np.clip(p[np.arange(n), labels], 1e-12, None)
    loss = float(-np.mean(np.log(picked)))
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def ref_train(model, x, y, config, seed, loss="mse", mask=None):
    """train() over per-parameter arrays: full backward, per-name Adam."""
    order_rng = np.random.default_rng(seed)
    state, history, step = {}, [], 0
    for _ in range(config.epochs):
        order = order_rng.permutation(x.shape[0])
        total, batches = 0.0, 0
        for start in range(0, x.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            out, cache = model.forward(x[idx])
            if loss == "mse":
                mb = mask[idx] if mask is not None else None
                value, grad = mse(out, y[idx], mask=mb)
            else:
                value, grad = ref_cross_entropy(out, y[idx])
            entries = model.parameters()
            for _, p, g, k in entries:
                g[k] = np.zeros_like(p[k])
            model.backward(cache, grad)
            step += 1
            params = {name: p[k] for name, p, _, k in entries}
            grads = {name: g[k] for name, _, g, k in entries}
            ref_adam_step(state, params, grads, step, config.learning_rate)
            for name, p, _, k in entries:
                p[k] = params[name]
            total += value
            batches += 1
        history.append(total / batches)
    return history


def test_adam_bits_match_reference():
    model = lstm_readout(5, 6, 5, rng(47))
    params = {name: p[k].copy() for name, p, _, k in model.parameters()}
    flat_params, flat_grads = flatten_parameters(model)
    opt, ref_state = Adam(5e-3, flat_params), {}
    for step in range(1, 6):
        r = rng(48 + step)
        grads = {}
        for name, _, g, k in model.parameters():
            g[k][...] = r.standard_normal(g[k].shape)
            grads[name] = g[k].copy()
        opt.step(flat_params, flat_grads)
        ref_adam_step(ref_state, params, grads, step, 5e-3)
    start = 0
    for name, p, _, k in model.parameters():
        stop = start + p[k].size
        m = opt.m[start:stop].reshape(p[k].shape)
        v = opt.v[start:stop].reshape(p[k].shape)
        assert np.shares_memory(p[k], flat_params), name
        assert np.array_equal(p[k], params[name]), name
        assert np.array_equal(m, ref_state[name][0]), name
        assert np.array_equal(v, ref_state[name][1]), name
        start = stop
    assert start == flat_params.size


def _classifier_fit():
    x = rng(60).standard_normal((300, 78))
    return (lambda: build_classifier(rng(61)), x, np.arange(300) % 9,
            TrainConfig(learning_rate=2e-3, epochs=4, batch_size=128),
            {"seed": 62, "loss": "cross_entropy"})


def _predictor_fit():
    mask = np.zeros((7, 12))
    mask[:, 4:] = 1.0
    seq = rng(63).standard_normal((7, 13, 5))
    return (lambda: lstm_readout(5, 6, 5, rng(64)), seq[:, :-1],
            seq[:, 1:], TrainConfig(learning_rate=5e-3, epochs=3,
                                    batch_size=3), {"seed": 65, "mask": mask})


def _autoencoder_fit():
    x = rng(66).standard_normal((50, 39))
    return (lambda: Sequential(list(build_autoencoder(rng(67)))), x, x,
            TrainConfig(learning_rate=1e-3, epochs=3, batch_size=16),
            {"seed": 68})


@pytest.mark.parametrize("fit", [_classifier_fit, _predictor_fit,
                                 _autoencoder_fit],
                         ids=["classifier", "masked_predictor",
                              "autoencoder"])
def test_train_bits_match_reference(fit):
    # partial last batches: 300 = 2*128 + 44, 7 = 2*3 + 1, 50 = 3*16 + 2
    build, x, y, config, kwargs = fit()
    model, ref_model = build(), build()
    history = train(model, x, y, config, **kwargs)
    ref_history = ref_train(ref_model, x, y, config, **kwargs)
    assert np.array_equal(history, ref_history)
    state, ref_state = get_state(model), get_state(ref_model)
    assert state.keys() == ref_state.keys()
    for name in state:
        assert np.array_equal(state[name], ref_state[name]), name
    # every parameter and gradient is a view of one flat vector apiece
    entries = model.parameters()
    params = [p[k] for _, p, _, k in entries]
    grads = [g[k] for _, _, g, k in entries]
    for arrays in (params, grads):
        flat = arrays[0].base
        assert flat.ndim == 1 and flat.size == sum(a.size for a in arrays)
        for a in arrays:
            assert a.base is flat and np.shares_memory(a, flat)
            assert a.flags.c_contiguous
    assert not np.shares_memory(params[0].base, grads[0].base)


def get_grads(model):
    return {name: g[k].copy() for name, _, g, k in model.parameters()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_only_a_fit_binds_gradients(dtype):
    # a build or a set_state makes no gradient array: a fit binds them
    r = rng(130)
    for model in (Dense(4, 3, r), LSTM(3, 4, r), lstm_readout(3, 4, 3, r),
                  build_classifier(r)):
        name = type(model).__name__
        assert all(k not in g for _, _, g, k in model.parameters()), name
        set_state(model, {k: v.astype(dtype)
                          for k, v in get_state(model).items()})
        assert all(k not in g for _, _, g, k in model.parameters()), name
    # after a fit, flatten_parameters binds a zeroed gradient vector in the
    # parameters' dtype and keeps the trained parameters
    x = rng(131).standard_normal((20, 3)).astype(dtype)
    model = Sequential([Dense(3, 5, rng(132)), Sigmoid(), Dense(5, 3, r)])
    set_state(model, {k: v.astype(dtype) for k, v in get_state(model).items()})
    train(model, x, x, TrainConfig(learning_rate=1e-2, epochs=2,
                                   batch_size=8), seed=0)
    trained = get_state(model)
    params, grads = flatten_parameters(model)
    assert params.dtype == grads.dtype == dtype
    assert grads.shape == params.shape and not np.any(grads)
    for name, p, g, k in model.parameters():
        assert g[k].base is grads and p[k].base is params, name
        assert g[k].shape == p[k].shape, name
        assert np.array_equal(p[k], trained[name]), name


def test_backward_without_input_grad():
    # input_grad=False returns None and leaves the parameter gradients as
    # they are with it
    r = rng(70)
    models = [
        (Dense(4, 3, r), r.standard_normal((6, 4))),
        (LSTM(3, 4, r), r.standard_normal((2, 5, 3))),
        (make_mlp([4, 5, 3], seed=71), r.standard_normal((6, 4))),
        (lstm_readout(3, 4, 2, r), r.standard_normal((2, 5, 3))),
    ]
    for model, x in models:
        y, cache = model.forward(x)
        dy = rng(72).standard_normal(y.shape)
        flatten_parameters(model)
        dx = model.backward(cache, dy)
        assert dx.shape == x.shape
        full = get_grads(model)
        flatten_parameters(model)
        assert model.backward(cache, dy, input_grad=False) is None
        for name, g in get_grads(model).items():
            assert np.array_equal(g, full[name]), name


# ---------------------------------------------------------------- losses

def test_mse_zero_on_equal():
    x = rng(0).standard_normal((4, 3))
    loss, grad = mse(x, x.copy())
    assert loss == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_cross_entropy_uniform():
    logits = np.zeros((5, 9))
    loss, _ = softmax_cross_entropy(logits, np.arange(5) % 9)
    p = softmax(logits)
    assert loss == pytest.approx(np.log(9))
    np.testing.assert_allclose(p, 1 / 9)


def test_fused_ce_gradient_formula_and_fd():
    logits = rng(12).standard_normal((6, 4))
    labels = np.array([0, 1, 2, 3, 0, 1])
    _, grad = softmax_cross_entropy(logits, labels)
    p = softmax(logits)
    onehot = np.eye(4)[labels]
    np.testing.assert_allclose(grad, (p - onehot) / 6, atol=1e-12)

    model = Sequential([Dense(3, 4, rng(13))])
    x = rng(14).standard_normal((6, 3))
    assert grad_check(model, x, labels, loss="cross_entropy") < 1e-4


# ---------------------------------------------------------------- training

def make_mlp(sizes, seed=0, act=ReLU):
    r = rng(seed)
    layers = []
    for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Dense(a, b, r))
        if i < len(sizes) - 2:
            layers.append(act())
    return Sequential(layers)


def test_train_zero_learning_rate():
    model = make_mlp([2, 4, 1], seed=1)
    before = get_state(model)
    x = rng(2).standard_normal((32, 2))
    y = rng(3).standard_normal((32, 1))
    train(model, x, y, TrainConfig(learning_rate=0.0, epochs=3,
                                   batch_size=64), seed=0)
    after = get_state(model)
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_train_linear_regression():
    # closed-form oracle: y = 2x + 1
    x = np.linspace(-1, 1, 100).reshape(-1, 1)
    y = 2.0 * x + 1.0
    model = Sequential([Dense(1, 1, rng(4))])
    train(model, x, y, TrainConfig(learning_rate=0.05, epochs=400,
                                   batch_size=25), seed=0)
    assert model.layers[0].params["W"][0, 0] == pytest.approx(2.0, abs=1e-2)
    assert model.layers[0].params["b"][0] == pytest.approx(1.0, abs=1e-2)


def test_train_deterministic():
    x = rng(5).standard_normal((64, 3))
    y = rng(6).standard_normal((64, 2))
    cfg = TrainConfig(learning_rate=1e-3, epochs=5, batch_size=64)
    h1 = train(make_mlp([3, 8, 2], seed=7), x, y, cfg, seed=11)
    h2 = train(make_mlp([3, 8, 2], seed=7), x, y, cfg, seed=11)
    assert h1 == h2


def test_train_rejects_empty():
    with pytest.raises(ValueError):
        train(make_mlp([2, 1]), np.zeros((0, 2)), np.zeros((0, 1)),
              TrainConfig(learning_rate=1e-3, epochs=1, batch_size=64),
              seed=0)


# ---------------------------------------------------------------- autoencoder shape

def test_autoencoder_grad_check():
    # seed chosen so no pre-activation sits within the finite-difference
    # step of the leaky ReLU kink
    r = rng(26)
    enc = Sequential([Dense(6, 5, r), LeakyReLU(), Dense(5, 4, r),
                      LeakyReLU(), Dense(4, 3, r)])
    dec = Sequential([Dense(3, 4, r), LeakyReLU(), Dense(4, 5, r),
                      LeakyReLU(), Dense(5, 6, r)])
    model = Sequential([enc, dec])
    x = rng(126).standard_normal((4, 6))
    assert grad_check(model, x, x.copy()) < 1e-4


# ---------------------------------------------------------------- persistence

def test_set_state_shape_guard():
    model = make_mlp([3, 5, 2], seed=3)
    state = get_state(model)
    key = next(iter(state))
    state[key] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        set_state(model, state)


# ---------------------------------------------------------------- dtype
# The library is dtype-preserving: float32 parameters and inputs give
# float32 outputs, input and parameter gradients, losses' gradients and
# Adam moments, and float64 ones float64.

def in_dtype(model, dtype):
    """`model` with its parameters cast to `dtype` and, when it has
    parameters, gradients bound in that dtype."""
    set_state(model, {k: v.astype(dtype) for k, v in get_state(model).items()})
    if model.parameters():
        flatten_parameters(model)
    return model


def dtype_cases(r):
    """(model, input shape) for each layer and the detector's containers."""
    return [(Dense(6, 4, r), (5, 6)), (ReLU(), (5, 6)),
            (LeakyReLU(), (5, 6)), (Sigmoid(), (5, 6)),
            (LSTM(6, 4, r), (2, 5, 6)), (build_classifier(r), (5, 78)),
            (Sequential(list(build_autoencoder(r))), (5, 39)),
            (lstm_readout(6, 4, 6, r), (2, 5, 6))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layers_keep_the_dtype(dtype):
    for model, shape in dtype_cases(rng(100)):
        name = type(model).__name__
        model = in_dtype(model, dtype)
        x = rng(101).standard_normal(shape).astype(dtype)
        y, cache = model.forward(x)
        dy = rng(102).standard_normal(y.shape).astype(dtype)
        dx = model.backward(cache, dy)
        assert (y.dtype, dx.dtype) == (dtype, dtype), name
        if model.parameters():
            assert model.dtype == dtype, name
        for pname, params, grads, k in model.parameters():
            assert params[k].dtype == grads[k].dtype == dtype, (name, pname)
            assert np.any(grads[k] != 0), (name, pname)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_losses_and_adam_keep_the_dtype(dtype):
    pred = rng(103).standard_normal((2, 6, 3)).astype(dtype)
    target = rng(104).standard_normal((2, 6, 3)).astype(dtype)
    mask = np.zeros((2, 6), dtype=dtype)
    mask[:, 2:] = 1.0
    for m in (None, mask, mask.astype(np.float64)):
        loss, grad = mse(pred, target, mask=m)
        assert isinstance(loss, float) and grad.dtype == dtype
    logits = rng(105).standard_normal((6, 9)).astype(dtype)
    loss, grad = softmax_cross_entropy(logits, np.arange(6))
    assert isinstance(loss, float) and grad.dtype == dtype
    assert softmax(logits).dtype == dtype
    flat = rng(106).standard_normal(7).astype(dtype)
    opt = Adam(1e-3, flat)
    for step in range(3):
        opt.step(flat, rng(107 + step).standard_normal(7).astype(dtype))
    assert flat.dtype == opt.m.dtype == opt.v.dtype == dtype


def test_float32_kernels_stay_finite_at_the_extremes():
    # the sigmoid's exponential is at most 1; the softmax subtracts its row
    # maximum and floors the picked probability at EPS = 1e-12, a normal
    # float32; Adam's EPS = 1e-8 is one too, so a zero second moment still
    # divides to a finite step. No overflow or invalid operation happens,
    # so no non-finite check can fire. (Adam's second moment overflows
    # float32 only for a gradient above about 1.8e19.)
    with np.errstate(over="raise", invalid="raise"):
        x = np.array([-1e30, -200.0, -90.0, 0.0, 90.0, 200.0, 3e38],
                     dtype=np.float32)
        s = _sigmoid(x)
        assert s.dtype == np.float32 and np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[-1] == 1.0 and s[3] == 0.5
        logits = np.array([[1e4, -1e4, 0.0], [0.0, 0.0, 0.0]],
                          dtype=np.float32)
        loss, grad = softmax_cross_entropy(logits, np.array([1, 0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss == pytest.approx((-np.log(np.float32(1e-12))
                                      + np.log(3)) / 2, rel=1e-6)
        flat = np.zeros(3, dtype=np.float32)
        opt = Adam(1e-3, flat)
        opt.step(flat, np.array([0.0, 1e-30, 1e15], dtype=np.float32))
        assert np.all(np.isfinite(flat)) and flat[0] == 0.0
        assert flat[2] == pytest.approx(-1e-3, rel=1e-5)


@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_train_in_float32_keeps_the_dtype(loss):
    x = rng(108).standard_normal((40, 78)).astype(np.float32)
    if loss == "mse":
        model, y = Sequential([Dense(78, 78, rng(109))]), x
    else:
        model, y = build_classifier(rng(109)), np.arange(40) % 9
    model = in_dtype(model, np.float32)
    history = train(model, x, y, TrainConfig(learning_rate=1e-3, epochs=2,
                                             batch_size=16),
                    seed=0, loss=loss)
    assert all(np.isfinite(history))
    for name, params, grads, k in model.parameters():
        assert params[k].dtype == grads[k].dtype == np.float32, name


def test_train_refuses_a_dtype_other_than_the_parameters():
    # one float64 array would carry every float32 step back into float64
    cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4)
    model = in_dtype(lstm_readout(3, 4, 3, rng(110)), np.float32)
    seq = rng(111).standard_normal((2, 6, 3)).astype(np.float32)
    mask = np.ones((2, 6), dtype=np.float32)
    for name, args in (("x", (seq.astype(np.float64), seq, mask)),
                       ("y", (seq, seq.astype(np.float64), mask)),
                       ("mask", (seq, seq, mask.astype(np.float64)))):
        with pytest.raises(ValueError, match=f"^{name} is float64 but the "
                           "model's parameters are float32$"):
            train(model, *args[:2], cfg, seed=0, mask=args[2])
    with pytest.raises(ValueError, match="^x is float32 but the model's "
                       "parameters are float64$"):
        train(build_classifier(rng(112)), np.zeros((4, 78), np.float32),
              np.arange(4), cfg, seed=0, loss="cross_entropy")
    # matching dtypes train; integer labels are not checked
    train(model, seq, seq, cfg, seed=0, mask=mask)
    train(build_classifier(rng(112)), np.zeros((4, 78)), np.arange(4), cfg,
          seed=0, loss="cross_entropy")


def test_float32_training_tracks_float64():
    # the same fit in both dtypes, from the same float64 draw: the loss
    # histories agree to float32 rounding, far inside the loss's own fall
    build, x, y, config, kwargs = _classifier_fit()
    wide = train(build(), x, y, config, **kwargs)
    narrow = train(in_dtype(build(), np.float32), x.astype(np.float32), y,
                   config, **kwargs)
    np.testing.assert_allclose(narrow, wide, rtol=1e-4)
    assert wide[-1] < wide[0]
