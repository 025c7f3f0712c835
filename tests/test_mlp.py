import hashlib

import numpy as np
import pytest

from regime_xai.mlp import (
    VALIDATION_FRACTION,
    MlpNet,
    MlpParams,
    TrainingDivergedError,
    fit_mlp,
    grad_check,
    initial_net,
    predict_mlp,
)
from regime_xai.timeseries import FeatureMatrix


def matrix(X, y):
    X = np.asarray(X, dtype=float)
    names = tuple(f"x{i + 1}" for i in range(X.shape[1]))
    return FeatureMatrix(names, X, np.asarray(y, dtype=float), np.arange(len(y)))


def small_net(seed=0, n_in=4, hidden=(8, 8)):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((64, n_in))
    y = rng.standard_normal(64)
    return initial_net(matrix(X, y), MlpParams(hidden_sizes=hidden), seed=seed), X, y


def validation_mse(net, fm):
    n_val = int(np.clip(round(VALIDATION_FRACTION * len(fm)), 1, len(fm) - 1))
    X_val, y_val = fm.X[-n_val:], fm.y[-n_val:]
    return float(np.mean((predict_mlp(net, X_val, {}) - y_val) ** 2))


# -------------------------------------------------------------------- fitting


def test_constant_target_absorbed_by_bias():
    rng = np.random.default_rng(0)
    c = 5.0
    fm = matrix(rng.uniform(-1, 1, size=(400, 3)), np.full(400, c))
    params = MlpParams(hidden_sizes=(16,), max_epochs=400)
    net = fit_mlp(fm, params, seed=0)
    assert validation_mse(net, fm) < 1e-4 * max(1.0, c * c)


def test_product_target_needs_hidden_layers():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(2000, 2))
    y = X[:, 0] * X[:, 1]
    fm = matrix(X, y)
    params = MlpParams(hidden_sizes=(64, 64), max_epochs=300)
    net = fit_mlp(fm, params, seed=1)
    n_val = int(round(0.2 * 2000))
    pred = predict_mlp(net, X[-n_val:], {})
    r2 = 1 - np.mean((pred - y[-n_val:]) ** 2) / np.var(y[-n_val:])
    assert r2 > 0.95


def test_linear_target_high_r2():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, size=(1500, 2))
    y = 3 * X[:, 0] + X[:, 1]
    fm = matrix(X, y)
    net = fit_mlp(fm, MlpParams(hidden_sizes=(32, 32), max_epochs=300), seed=2)
    n_val = int(round(0.2 * 1500))
    pred = predict_mlp(net, X[-n_val:], {})
    r2 = 1 - np.mean((pred - y[-n_val:]) ** 2) / np.var(y[-n_val:])
    assert r2 > 0.99


def test_empty_training_set_rejected():
    fm = matrix(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="empty"):
        fit_mlp(fm, MlpParams(), seed=0)


def test_divergence_reports_epoch():
    # targets this large overflow the squared error in the first epoch
    rng = np.random.default_rng(3)
    fm = matrix(rng.standard_normal((128, 2)), np.where(rng.random(128) < 0.5, -1e200, 1e200))
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="non-finite loss at epoch 0"):
        fit_mlp(fm, MlpParams(hidden_sizes=(8,), max_epochs=50), seed=3)


def test_fixed_seed_reproduces_parameters():
    rng = np.random.default_rng(4)
    fm = matrix(rng.uniform(-1, 1, size=(300, 3)), rng.standard_normal(300))
    params = MlpParams(hidden_sizes=(16, 16), max_epochs=30)
    n1, n2 = fit_mlp(fm, params, seed=11), fit_mlp(fm, params, seed=11)
    for a, b in zip(n1.weights + n1.biases, n2.weights + n2.biases):
        np.testing.assert_array_equal(a, b)


def seeded_matrix(seed, n_rows, n_features):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n_rows, n_features))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, -1] + 0.1 * rng.standard_normal(n_rows)
    return matrix(X, y)


@pytest.mark.parametrize(
    "fm, params, seed, digest",
    [
        (seeded_matrix(21, 300, 4), MlpParams(hidden_sizes=(16, 16), max_epochs=40), 3,
         "7ab4c6f039afb835797cfaa0dd7af7bc488b65020dfc4d0301cee37547a22d67"),
        (seeded_matrix(22, 450, 8), MlpParams(hidden_sizes=(32, 32), max_epochs=25), 4,
         "237564026bbb76f8835f0aadb75c0ca67b5f04bc365e24b047c6c7949c5646a0"),
    ],
    ids=["16x16", "32x32"],
)
def test_fitted_parameters_are_pinned(fm, params, seed, digest):
    # any change to the initial draws, the gradient, the order of Adam's
    # elementwise arithmetic or the early stop moves these digests (the
    # matmuls run through BLAS, so another BLAS build may give other bits)
    net = fit_mlp(fm, params, seed)
    h = hashlib.sha256()
    for W, b in zip(net.weights, net.biases):
        h.update(W.tobytes())
        h.update(b.tobytes())
    assert h.hexdigest() == digest


def test_training_reduces_mse():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(400, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(400)
        fm = matrix(X, y)
        params = MlpParams(hidden_sizes=(16,), max_epochs=50)
        before = float(np.mean((predict_mlp(initial_net(fm, params, seed), X, {}) - y) ** 2))
        after = float(np.mean((predict_mlp(fit_mlp(fm, params, seed), X, {}) - y) ** 2))
        assert after <= before


# ----------------------------------------------------------------- prediction


def test_zero_weights_output_bias():
    weights = (np.zeros((4, 2)), np.zeros((1, 4)))
    biases = (np.zeros(4), np.array([3.5]))
    net = MlpNet(weights, biases, np.zeros(2), np.ones(2))
    np.testing.assert_array_equal(predict_mlp(net, np.random.default_rng(0).normal(size=(5, 2)), {}), np.full(5, 3.5))


def test_single_hidden_unit_hand_computed():
    net = MlpNet(
        (np.array([[2.0]]), np.array([[3.0]])),
        (np.array([0.5]), np.array([-1.0])),
        np.zeros(1),
        np.ones(1),
    )
    out = predict_mlp(net, np.array([[0.25], [-1.0]]), {})
    # x=0.25: relu(2*0.25+0.5)=1.0 -> 3*1.0-1 = 2.0; x=-1: relu(-1.5)=0 -> -1.0
    np.testing.assert_allclose(out, [2.0, -1.0])


def test_duplicate_rows_identical_outputs():
    net, X, _ = small_net(seed=5)
    row = X[:1]
    out = predict_mlp(net, np.repeat(row, 7, axis=0), {})
    assert np.all(out == out[0])


def test_column_count_mismatch_rejected():
    net, _, _ = small_net()
    with pytest.raises(ValueError, match="columns"):
        predict_mlp(net, np.zeros((3, 9)), {})


def test_shared_work_gives_the_bits_of_a_fresh_one():
    net, _, _ = small_net(seed=6)
    other, _, _ = small_net(seed=7, hidden=(16, 3))
    rng = np.random.default_rng(6)
    work = {}
    big = rng.standard_normal((5000, 4))
    np.testing.assert_array_equal(predict_mlp(net, big, work), predict_mlp(net, big, {}))
    buffers = [id(b) for b in work.values()]
    small = rng.standard_normal((7, 4))
    np.testing.assert_array_equal(predict_mlp(net, small, work), predict_mlp(net, small, {}))
    # the smaller call ran in the larger call's buffers
    assert [id(b) for b in work.values()] == buffers
    np.testing.assert_array_equal(predict_mlp(other, big, work), predict_mlp(other, big, {}))


def test_returned_array_survives_later_calls_on_the_same_work():
    net, _, _ = small_net(seed=8)
    rng = np.random.default_rng(8)
    work = {}
    first = predict_mlp(net, rng.standard_normal((300, 4)), work)
    kept = first.copy()
    predict_mlp(net, rng.standard_normal((300, 4)), work)
    predict_mlp(net, rng.standard_normal((20, 4)), work)
    np.testing.assert_array_equal(first, kept)


# ----------------------------------------------------------------- grad_check


def test_grad_check_fresh_net():
    net, X, y = small_net(seed=6)
    assert grad_check(net, X[:8], y[:8]) < 1e-4


def test_grad_check_zero_net_zero_targets():
    net = MlpNet((np.zeros((3, 2)), np.zeros((1, 3))), (np.zeros(3), np.zeros(1)), np.zeros(2), np.ones(2))
    X = np.random.default_rng(7).normal(size=(4, 2))
    assert grad_check(net, X, np.zeros(4)) == 0.0


def test_grad_check_trained_net_off_kinks():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, size=(300, 3))
    y = X @ np.array([1.0, 0.5, -1.0])
    net = fit_mlp(matrix(X, y), MlpParams(hidden_sizes=(8,), max_epochs=40), seed=8)
    X_check = X[:16] + 1e-3 * rng.standard_normal((16, 3))
    assert grad_check(net, X_check, y[:16]) < 1e-4


def test_grad_check_over_random_small_nets():
    for seed in range(20):
        net, X, y = small_net(seed=seed, n_in=3, hidden=(6, 5))
        X_check = np.random.default_rng(1000 + seed).standard_normal((8, 3))
        assert grad_check(net, X_check, y[:8]) < 1e-4


def test_grad_check_row_on_a_kink():
    # initial_net's hidden biases are 0, so projecting a row's standardized
    # inputs onto a first-layer unit's weight plane puts that unit at its kink;
    # a difference that straddles the kink reads a relative error of 0.57 here
    net, X, y = small_net(seed=3, n_in=3, hidden=(6, 5))
    w = net.weights[0][2]
    Z = (X[:8] - net.x_mean) / net.x_std
    Z[0] -= (Z[0] @ w) / (w @ w) * w
    X_check = Z * net.x_std + net.x_mean
    assert abs(((X_check[0] - net.x_mean) / net.x_std) @ w) < 1e-12
    assert grad_check(net, X_check, y[:8]) < 1e-4


def test_grad_check_rejects_large_input():
    net, X, y = small_net()
    with pytest.raises(ValueError, match="32"):
        grad_check(net, np.zeros((64, 4)), np.zeros(64))


def test_constant_feature_gets_unit_std():
    rng = np.random.default_rng(10)
    X = rng.uniform(-1, 1, size=(100, 2))
    X[:, 1] = 4.2
    net = initial_net(matrix(X, X[:, 0]), MlpParams(hidden_sizes=(4,)), seed=0)
    assert net.x_std[1] == 1.0
    assert net.x_mean[1] == pytest.approx(4.2)
