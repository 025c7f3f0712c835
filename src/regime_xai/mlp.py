"""Small feedforward neural-network regressor with verifiable gradients.

The net standardizes inputs with training statistics, applies rectified
hidden layers and a linear output, and trains on mean squared error with
mini-batch adaptive-moment (Adam) updates. Hand-written backpropagation is
the correctness anchor for all the optimizer does; the gradient check in
tests/mlp_reference.py compares it with central finite differences at any
rows, skipping the differences that straddle a rectifier's kink. Batch
size, Adam step, early-stopping patience and validation tail are fixed;
layer sizes and epoch budget are settings.

There is one forward pass, _forward, and it does its arithmetic in buffers
kept in a dict its caller owns: predict_mlp's caller for one explanation
(each KernelSHAP share of rows owns one) or one window, fit_mlp for one
call. A dict serves one thread at a time. KernelSHAP predicts thousands of
times on up to 4,096 rows; fresh arrays would be mapped and page-faulted in
again on every call.

fit_mlp keeps every weight and bias as a view of one flat parameter vector,
and _backprop writes each gradient into the same views of one flat gradient
vector. Adam is elementwise, so fit_mlp steps the whole vector with a few
numpy calls per batch instead of a few per array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from regime_xai.timeseries import FeatureMatrix


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
    features are stored with std 1 so they are centered only). A net made by
    fit_mlp holds views of one parameter vector (_unflatten).
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
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes must list at least one layer")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be positive")
        if any(h > np.iinfo(np.intp).max for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be at most {np.iinfo(np.intp).max} (numpy's dimension limit)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


def _unflatten(flat: np.ndarray, sizes: tuple[int, ...]):
    """Layer l's weights and biases as views of flat, laid out layer after
    layer, each weight matrix (row-major) followed by its bias."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return tuple(weights), tuple(biases)


def _init_params(rng: np.random.Generator, sizes: tuple[int, ...], y_mean: float) -> np.ndarray:
    """The parameter vector: uniform fan-in-scaled weights; zero biases except
    the output bias, which starts at the target mean so the net begins
    centered on the data."""
    theta = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:])))
    weights, biases = _unflatten(theta, sizes)
    for W in weights:
        bound = 1.0 / np.sqrt(W.shape[1])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    biases[-1][0] = y_mean
    return theta


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


def _backprop(weights, biases, Z, y, work: dict, grads) -> None:
    """Gradient of the MSE loss with respect to every weight and bias,
    written into grads, a (weights, biases) pair of arrays shaped like them."""
    acts = _forward(weights, biases, Z, work)
    n = len(y)
    delta = (2.0 / n) * (acts[-1][:, 0] - y)[:, None]
    grads_w, grads_b = grads
    for l in range(len(weights) - 1, -1, -1):
        np.matmul(delta.T, acts[l], out=grads_w[l])
        np.sum(delta, axis=0, out=grads_b[l])
        if l > 0:
            delta = (delta @ weights[l]) * (acts[l] > 0)


def _standardize_stats(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    constant = X.max(axis=0) == X.min(axis=0)
    std = np.where(constant | (std == 0), 1.0, std)
    return mean, std


def _start(train: FeatureMatrix, params: MlpParams, seed: int):
    """The untrained net, its layer sizes, its parameter vector (which its
    weights and biases view), the generator past its init draws, and the
    number of head rows that are fitted on (the tail is held out for
    validation)."""
    n = len(train)
    if n == 0:
        raise ValueError("empty training set")
    sizes = (train.X.shape[1],) + params.hidden_sizes + (1,)
    n_val = int(np.clip(round(VALIDATION_FRACTION * n), 1, max(n - 1, 1)))
    n_fit = max(n - n_val, 1)
    mean, std = _standardize_stats(train.X[:n_fit])
    rng = np.random.default_rng(seed)
    theta = _init_params(rng, sizes, float(train.y[:n_fit].mean()))
    return MlpNet(*_unflatten(theta, sizes), mean, std), sizes, theta, rng, n_fit


def fit_mlp(train: FeatureMatrix, params: MlpParams, seed: int) -> MlpNet:
    """Train by mini-batch Adam on MSE with early stopping.

    The validation slice is the time-ordered tail of the window
    (VALIDATION_FRACTION of the rows); input standardization uses the
    remaining head so the held-out rows never leak into the statistics.
    Targets stay in original units. Deterministic for a fixed seed.

    Adam steps one parameter vector per batch, and the net returned is a
    copy of that vector at the best validation loss, which its weights and
    biases view.
    """
    net, sizes, theta, rng, n_fit = _start(train, params, seed)
    weights, biases = net.weights, net.biases
    Z = (train.X - net.x_mean) / net.x_std
    Z_fit, y_fit = Z[:n_fit], train.y[:n_fit]
    Z_val, y_val = (Z[n_fit:], train.y[n_fit:]) if len(train) > 1 else (Z_fit, y_fit)

    grad = np.empty_like(theta)
    grads = _unflatten(grad, sizes)
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    work: dict = {}

    best_val = _mse(weights, biases, Z_val, y_val, work)
    best = theta.copy()
    stale = 0

    for epoch in range(params.max_epochs):
        perm = rng.permutation(n_fit)
        for start in range(0, n_fit, BATCH_SIZE):
            idx = perm[start : start + BATCH_SIZE]
            _backprop(weights, biases, Z_fit[idx], y_fit[idx], work, grads)
            t += 1
            adam_m = beta1 * adam_m + (1 - beta1) * grad
            adam_v = beta2 * adam_v + (1 - beta2) * grad * grad
            m_hat = adam_m / (1 - beta1**t)
            v_hat = adam_v / (1 - beta2**t)
            theta -= STEP_SIZE * m_hat / (np.sqrt(v_hat) + eps)

        val = _mse(weights, biases, Z_val, y_val, work)
        if not np.isfinite(val):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        if val < best_val:
            best_val = val
            best[:] = theta
            stale = 0
        else:
            stale += 1
            if stale >= EARLY_STOP_PATIENCE:
                break

    return MlpNet(*_unflatten(best, sizes), net.x_mean, net.x_std)


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

