"""Test-side checks of regime_xai.mlp: the untrained net fit_mlp starts from,
and the finite-difference check of the hand-written backpropagation.

Both reach into mlp's private helpers (_start, _unflatten, _backprop, _mse),
so they test the very code fit_mlp runs. The file is not named test_*, so
pytest imports it from the tests that use it and collects nothing in it.
"""

import numpy as np

from regime_xai.mlp import MlpNet, MlpParams, _backprop, _mse, _start, _unflatten
from regime_xai.timeseries import FeatureMatrix

GRAD_CHECK_EPSILON = 1e-5  # central-difference step of grad_check


def initial_net(train: FeatureMatrix, params: MlpParams, seed: int) -> MlpNet:
    """The untrained net fit_mlp would start from (same seed, same init draws)."""
    return _start(train, params, seed)[0]


def grad_check(net: MlpNet, X, y) -> float:
    """Compare analytic MSE gradients with central finite differences of
    step GRAD_CHECK_EPSILON; return the maximum relative error,
    |a - n| / max(|a|, |n|, 1e-8), over the entries whose difference is valid.
    A difference that turns any hidden unit on or off on any row straddles a
    rectifier's kink, so its entry is left out; output-layer entries change no
    hidden unit, so they are always checked. Any rows will do.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] > 32:
        raise ValueError("grad_check is meant for small inputs (<= 32 rows)")

    Z = (X - net.x_mean) / net.x_std
    sizes = (net.n_features,) + tuple(len(b) for b in net.biases)
    theta = np.concatenate([p.ravel() for layer in zip(net.weights, net.biases) for p in layer])
    weights, biases = _unflatten(theta, sizes)
    grad = np.empty_like(theta)
    work: dict = {}
    _backprop(weights, biases, Z, y, work, _unflatten(grad, sizes))

    def units_on():  # per hidden layer and row, as the last pass on work left them
        return [work[l] > 0 for l in range(len(weights) - 1)]

    base = units_on()
    max_err = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + GRAD_CHECK_EPSILON
        up = _mse(weights, biases, Z, y, work)
        kept = all(map(np.array_equal, units_on(), base))
        theta[i] = orig - GRAD_CHECK_EPSILON
        down = _mse(weights, biases, Z, y, work)
        theta[i] = orig
        if not (kept and all(map(np.array_equal, units_on(), base))):
            continue
        numeric = (up - down) / (2 * GRAD_CHECK_EPSILON)
        err = abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-8)
        max_err = max(max_err, err)
    return max_err
