"""Small feedforward neural-network regressor with verifiable gradients.

The net standardizes inputs with training statistics, applies rectified
hidden layers and a linear output, and trains on mean squared error with
mini-batch adaptive-moment (Adam) updates. Backpropagation is hand-written
and checked against central finite differences (grad_check), which is the
correctness anchor for everything the optimizer does. The training terms
(batch size, Adam step, early-stopping patience, validation tail) are fixed
constants; only the layer sizes and the epoch budget are settings.

There is one forward pass, _forward, and it does its arithmetic in buffers
kept in a dict its caller owns: predict_mlp's caller for one explanation (or
one window), fit_mlp and grad_check for one call. KernelSHAP predicts
thousands of times on up to 65,536 rows; fresh arrays that large would be
mapped and page-faulted in again on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from regime_xai.timeseries import FeatureMatrix


GRAD_CHECK_EPSILON = 1e-5  # central-difference step of grad_check
BATCH_SIZE = 64  # rows per Adam step
STEP_SIZE = 1e-3  # Adam step size
EARLY_STOP_PATIENCE = 20  # epochs without a better validation loss before fit_mlp stops
VALIDATION_FRACTION = 0.2  # share of a window's rows, at its end, held out for early stopping


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True, eq=False)
class MlpNet:
    """Feedforward regressor: standardize, rectified hidden layers, affine output.

    weights[l] has shape (fan_out, fan_in) and biases[l] shape (fan_out,); the
    last layer has one output. x_std entries are strictly positive (constant
    features are stored with std 1 so they are centered only).
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    x_mean: np.ndarray
    x_std: np.ndarray

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[1]


@dataclass(frozen=True)
class MlpParams:
    hidden_sizes: tuple[int, ...] = (64, 64)
    max_epochs: int = 300

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if any(h < 1 for h in self.hidden_sizes) or not self.hidden_sizes:
            raise ValueError("hidden_sizes must be positive")
        if any(h > np.iinfo(np.intp).max for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be at most {np.iinfo(np.intp).max} (numpy's dimension limit)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


def _init_params(rng: np.random.Generator, sizes: tuple[int, ...], y_mean: float):
    """Uniform fan-in-scaled weights; zero biases except the output bias,
    which starts at the target mean so the net begins centered on the data."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    biases[-1][0] = y_mean
    return weights, biases


def _buffer(work: dict, key, rows: int, width: int) -> np.ndarray:
    """The first rows of work[key], replaced only when it has fewer rows
    than asked or another width."""
    buf = work.get(key)
    if buf is None or buf.shape[0] < rows or buf.shape[1] != width:
        buf = work[key] = np.empty((rows, width))
    return buf[:rows]


def _forward(weights, biases, Z, work: dict):
    """Forward pass on standardized inputs; returns activations per layer,
    Z first, then layer l's output in work's buffer l (valid until the next
    pass on the same work)."""
    acts = [Z]
    last = len(weights) - 1
    for l, (W, b) in enumerate(zip(weights, biases)):
        h = _buffer(work, l, Z.shape[0], W.shape[0])
        np.matmul(acts[-1], W.T, out=h)
        np.add(h, b, out=h)
        if l < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def _mse(weights, biases, Z, y, work: dict) -> float:
    pred = _forward(weights, biases, Z, work)[-1][:, 0]
    return float(np.mean((pred - y) ** 2))


def _backprop(weights, biases, Z, y, work: dict):
    """Gradient of the MSE loss with respect to every weight and bias."""
    acts = _forward(weights, biases, Z, work)
    n = len(y)
    delta = (2.0 / n) * (acts[-1][:, 0] - y)[:, None]
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l]) * (acts[l] > 0)
    return grads_w, grads_b


def _standardize_stats(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    constant = X.max(axis=0) == X.min(axis=0)
    std = np.where(constant | (std == 0), 1.0, std)
    return mean, std


def _start(train: FeatureMatrix, params: MlpParams, seed: int):
    """The untrained net, the generator past its init draws, and the number
    of head rows that are fitted on (the tail is held out for validation)."""
    n = len(train)
    if n == 0:
        raise ValueError("empty training set")
    sizes = (train.X.shape[1],) + params.hidden_sizes + (1,)
    n_val = int(np.clip(round(VALIDATION_FRACTION * n), 1, max(n - 1, 1)))
    n_fit = max(n - n_val, 1)
    mean, std = _standardize_stats(train.X[:n_fit])
    rng = np.random.default_rng(seed)
    weights, biases = _init_params(rng, sizes, float(train.y[:n_fit].mean()))
    return MlpNet(tuple(weights), tuple(biases), mean, std), rng, n_fit


def initial_net(train: FeatureMatrix, params: MlpParams, seed: int) -> MlpNet:
    """The untrained net fit_mlp would start from (same seed, same init draws)."""
    return _start(train, params, seed)[0]


def fit_mlp(train: FeatureMatrix, params: MlpParams, seed: int) -> MlpNet:
    """Train by mini-batch Adam on MSE with early stopping.

    The validation slice is the time-ordered tail of the window
    (VALIDATION_FRACTION of the rows); input standardization uses the
    remaining head so the held-out rows never leak into the statistics.
    Targets stay in original units. Deterministic for a fixed seed.
    """
    net, rng, n_fit = _start(train, params, seed)
    weights, biases = list(net.weights), list(net.biases)
    Z = (train.X - net.x_mean) / net.x_std
    Z_fit, y_fit = Z[:n_fit], train.y[:n_fit]
    Z_val, y_val = (Z[n_fit:], train.y[n_fit:]) if len(train) > 1 else (Z_fit, y_fit)

    adam_m = [np.zeros_like(p) for p in weights + biases]
    adam_v = [np.zeros_like(p) for p in weights + biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    work: dict = {}

    best_val = _mse(weights, biases, Z_val, y_val, work)
    best = ([W.copy() for W in weights], [b.copy() for b in biases])
    stale = 0

    for epoch in range(params.max_epochs):
        perm = rng.permutation(n_fit)
        for start in range(0, n_fit, BATCH_SIZE):
            idx = perm[start : start + BATCH_SIZE]
            grads_w, grads_b = _backprop(weights, biases, Z_fit[idx], y_fit[idx], work)
            t += 1
            for k, (p, g) in enumerate(zip(weights + biases, grads_w + grads_b)):
                adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * g
                adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * g * g
                m_hat = adam_m[k] / (1 - beta1**t)
                v_hat = adam_v[k] / (1 - beta2**t)
                p -= STEP_SIZE * m_hat / (np.sqrt(v_hat) + eps)

        val = _mse(weights, biases, Z_val, y_val, work)
        if not np.isfinite(val):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        if val < best_val:
            best_val = val
            best = ([W.copy() for W in weights], [b.copy() for b in biases])
            stale = 0
        else:
            stale += 1
            if stale >= EARLY_STOP_PATIENCE:
                break

    return MlpNet(tuple(best[0]), tuple(best[1]), net.x_mean, net.x_std)


def predict_mlp(net: MlpNet, X, work: dict) -> np.ndarray:
    """Forward pass: standardize, hidden rectifiers, affine output.

    Every step writes into buffers kept in work, a dict the caller owns and
    may pass to later calls (on any net) so they reuse its memory; the
    result is a fresh array that later calls do not touch.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n_features:
        raise ValueError(
            f"X has {X.shape[1] if X.ndim == 2 else 'bad'} columns, net expects {net.n_features}"
        )
    Z = _buffer(work, "z", X.shape[0], X.shape[1])
    np.subtract(X, net.x_mean, out=Z)
    np.divide(Z, net.x_std, out=Z)
    return _forward(net.weights, net.biases, Z, work)[-1][:, 0].copy()


def grad_check(net: MlpNet, X, y) -> float:
    """Compare analytic MSE gradients with central finite differences of
    step GRAD_CHECK_EPSILON.

    Returns the maximum relative error over every weight and bias entry,
    with relative error |a - n| / max(|a|, |n|, 1e-8).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] > 32:
        raise ValueError("grad_check is meant for small inputs (<= 32 rows)")

    Z = (X - net.x_mean) / net.x_std
    weights = [W.copy() for W in net.weights]
    biases = [b.copy() for b in net.biases]
    work: dict = {}
    grads_w, grads_b = _backprop(weights, biases, Z, y, work)

    max_err = 0.0
    for params, grads in ((weights, grads_w), (biases, grads_b)):
        for p, g in zip(params, grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + GRAD_CHECK_EPSILON
                up = _mse(weights, biases, Z, y, work)
                flat_p[i] = orig - GRAD_CHECK_EPSILON
                down = _mse(weights, biases, Z, y, work)
                flat_p[i] = orig
                numeric = (up - down) / (2 * GRAD_CHECK_EPSILON)
                analytic = flat_g[i]
                err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                max_err = max(max_err, err)
    return max_err
