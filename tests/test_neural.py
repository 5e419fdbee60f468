import numpy as np
import pytest

from gridsentry.neural import (Adam, Dense, LSTM, LeakyReLU, ReLU,
                               SequencePredictor, Sequential, TrainConfig,
                               get_state, mse, set_state, softmax,
                               softmax_cross_entropy, train)
from gridsentry.neural.layers import _sigmoid
from oracles import grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- dense

def test_dense_identity():
    d = Dense(3, 3, rng())
    d.params["W"] = np.eye(3)
    d.params["b"] = np.zeros(3)
    x = rng(1).standard_normal((5, 3))
    np.testing.assert_array_equal(d.forward(x), x)


def test_dense_constant():
    d = Dense(4, 2, rng())
    d.params["W"] = np.zeros((4, 2))
    d.params["b"] = np.array([1.5, -2.0])
    x = rng(1).standard_normal((7, 4))
    out = d.forward(x)
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
    np.testing.assert_array_equal(r.forward(np.array([-1.0, 2.0])),
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
    lr = LeakyReLU(alpha=0.01)
    x = np.array([[-2.0, 3.0]])
    lr.forward(x)
    grad = lr.backward(np.ones_like(x))
    np.testing.assert_allclose(grad, [[0.01, 1.0]])


# ---------------------------------------------------------------- LSTM

def test_lstm_zero_weights():
    cell = LSTM(2, 3, rng(0))
    for k in cell.params:
        cell.params[k] = np.zeros_like(cell.params[k])
    out = cell.forward(np.ones((1, 4, 2)))
    np.testing.assert_array_equal(out, np.zeros((1, 4, 3)))


def test_lstm_forget_gate_saturation():
    # forget bias -> +inf: new cell state approaches c + i*g
    H = 3
    cell = LSTM(2, H, rng(1))
    cell.params["b"][H:2 * H] = 20.0
    h0 = np.zeros((1, H))
    c0 = rng(2).standard_normal((1, H))
    x = rng(3).standard_normal((1, 2))
    cell.forward(x[:, None], state=(h0, c0))
    _, c1 = cell.final_state
    z = x @ cell.params["Wx"] + h0 @ cell.params["Wh"] + cell.params["b"]
    i = 1 / (1 + np.exp(-z[:, :H]))
    g = np.tanh(z[:, 2 * H:3 * H])
    np.testing.assert_allclose(c1, c0 + i * g, atol=1e-6)


def test_lstm_chunked_forward_matches_full():
    # stateful contract: carrying final_state across chunks of one series
    # gives the same hidden states and final state as one full pass
    cell = LSTM(3, 4, rng(4))
    x = rng(5).standard_normal((2, 6, 3))
    hs = cell.forward(x)
    h_end, c_end = cell.final_state
    head = cell.forward(x[:, :2])
    tail = cell.forward(x[:, 2:], state=cell.final_state)
    np.testing.assert_allclose(np.concatenate([head, tail], axis=1), hs,
                               atol=1e-12)
    np.testing.assert_allclose(cell.final_state[0], h_end, atol=1e-12)
    np.testing.assert_allclose(cell.final_state[1], c_end, atol=1e-12)


def test_lstm_bptt_grad_matches_finite_differences():
    cell = LSTM(3, 4, rng(6))
    x = rng(7).standard_normal((2, 8, 3))
    y = rng(8).standard_normal((2, 8, 4))
    assert grad_check(cell, x, y) < 1e-4


def test_sequence_predictor_grad_with_mask():
    model = SequencePredictor(3, 5, 3, rng(9))
    x = rng(10).standard_normal((2, 12, 3))
    y = rng(11).standard_normal((2, 12, 3))
    mask = np.zeros((2, 12))
    mask[:, 4:] = 1.0
    assert grad_check(model, x, y, mask=mask) < 1e-4


# ---------------------------------------------------------------- reference forms
# The kernels must return the same bits as these plain forms: a masked
# sigmoid, a per-step LSTM and an out-of-place Adam.

def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm(params, x, dhs, state=None):
    """Per-step forward and backward; (hs, final_state, dx, grads)."""
    Wx, Wh, b = params["Wx"], params["Wh"], params["b"]
    B, T, _ = x.shape
    H = Wh.shape[0]
    h = np.zeros((B, H)) if state is None else state[0].copy()
    c = np.zeros((B, H)) if state is None else state[1].copy()
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
    final = (h, c)
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
    return hs, final, dx, grads


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


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("with_state", [False, True])
@pytest.mark.parametrize("D", [13, 39])
def test_lstm_bits_match_per_step_reference(batch, with_state, D):
    # the predictor's widths: 13 codes (AEN_RNN_DNN) or 39 sensors (RNN_DNN)
    H, T = 32, 11
    cell = LSTM(D, H, rng(41))
    cell.params["b"] = rng(42).standard_normal(4 * H)
    x = rng(43).standard_normal((batch, T, D))
    dhs = rng(44).standard_normal((batch, T, H))
    state = None
    if with_state:
        state = (rng(45).standard_normal((batch, H)),
                 rng(46).standard_normal((batch, H)))
    hs_ref, final_ref, dx_ref, grads_ref = ref_lstm(cell.params, x, dhs,
                                                    state)
    hs = cell.forward(x, state=state)
    cell.zero_grad()
    dx = cell.backward(dhs)
    assert np.array_equal(hs, hs_ref)
    assert np.array_equal(cell.final_state[0], final_ref[0])
    assert np.array_equal(cell.final_state[1], final_ref[1])
    assert np.array_equal(dx, dx_ref)
    for k in ("Wx", "Wh", "b"):
        assert np.array_equal(cell.grads[k], grads_ref[k]), k


def test_adam_bits_match_reference():
    model = SequencePredictor(5, 6, 5, rng(47))
    params = {name: p[k].copy() for name, p, _, k in model.parameters()}
    opt, ref_state = Adam(5e-3), {}
    for step in range(1, 6):
        r = rng(48 + step)
        grads = {}
        for name, _, g, k in model.parameters():
            g[k][...] = r.standard_normal(g[k].shape)
            grads[name] = g[k].copy()
        opt.step(model.parameters())
        ref_adam_step(ref_state, params, grads, step, 5e-3)
    for name, p, _, k in model.parameters():
        assert np.array_equal(p[k], params[name]), name
        assert np.array_equal(opt.m[name], ref_state[name][0]), name
        assert np.array_equal(opt.v[name], ref_state[name][1]), name


# ---------------------------------------------------------------- losses

def test_mse_zero_on_equal():
    x = rng(0).standard_normal((4, 3))
    loss, grad = mse(x, x.copy())
    assert loss == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_cross_entropy_uniform():
    logits = np.zeros((5, 9))
    loss, _, p = softmax_cross_entropy(logits, np.arange(5) % 9)
    assert loss == pytest.approx(np.log(9))
    np.testing.assert_allclose(p, 1 / 9)


def test_fused_ce_gradient_formula_and_fd():
    logits = rng(12).standard_normal((6, 4))
    labels = np.array([0, 1, 2, 3, 0, 1])
    _, grad, p = softmax_cross_entropy(logits, labels)
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
    train(model, x, y, TrainConfig(learning_rate=0.0, epochs=3, seed=0))
    after = get_state(model)
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_train_linear_regression():
    # closed-form oracle: y = 2x + 1
    x = np.linspace(-1, 1, 100).reshape(-1, 1)
    y = 2.0 * x + 1.0
    model = Sequential([Dense(1, 1, rng(4))])
    train(model, x, y, TrainConfig(learning_rate=0.05, epochs=400,
                                   batch_size=25, seed=0))
    assert model.layers[0].params["W"][0, 0] == pytest.approx(2.0, abs=1e-2)
    assert model.layers[0].params["b"][0] == pytest.approx(1.0, abs=1e-2)


def test_train_deterministic():
    x = rng(5).standard_normal((64, 3))
    y = rng(6).standard_normal((64, 2))
    h1 = train(make_mlp([3, 8, 2], seed=7), x, y,
               TrainConfig(epochs=5, seed=11))
    h2 = train(make_mlp([3, 8, 2], seed=7), x, y,
               TrainConfig(epochs=5, seed=11))
    assert h1 == h2


def test_train_rejects_empty():
    with pytest.raises(ValueError):
        train(make_mlp([2, 1]), np.zeros((0, 2)), np.zeros((0, 1)),
              TrainConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=2.5)


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
