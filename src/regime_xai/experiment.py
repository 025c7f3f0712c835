"""Protocol orchestration: sliding windows per regime period, block-wise
train/test splits, model fitting, explanation, and before/after comparison.

A period is the rows of its feature matrix, in strictly increasing time;
the run config holds its bounds, and the join that builds the matrix keeps
only the rows inside them. Each period gets n_windows overlapping windows
(six by default) covering half the period each, and run_period runs each by
one run_window call.
Within a window the test set is a random 20% of consecutive blocks of
BLOCK_DAYS days; a model is fitted on the remaining rows and explained on the
test rows. Window width and block length are fixed terms of the protocol, not
settings. The per-window normalized importances are aggregated to a mean and
standard deviation per feature, and the two periods are compared feature by
feature.

Every random choice is driven by seeds derived from (master seed, window
index, purpose), so a run is reproducible to the last exported digit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from regime_xai.gbt import GbtParams, fit_gbt, predict_gbt
from regime_xai.mlp import MlpParams, fit_mlp, predict_mlp
from regime_xai.seeds import derive_seed
from regime_xai.shap import Background, explain_dataset, feature_importance
from regime_xai.timeseries import FeatureMatrix, TimeSeriesError, format_timestamps, rows_per_day, write_csv


BLOCK_DAYS = 4  # days per test block: whole days, so a block holds every hour of the day
MIN_BLOCKS = 5  # whole blocks a window must span, so train and test both hold whole blocks


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    gbt: GbtParams = field(default_factory=GbtParams)
    mlp: MlpParams = field(default_factory=MlpParams)

    def __post_init__(self):
        if self.kind not in ("gbt", "mlp"):
            raise ValueError(f"kind: expected one of ['gbt', 'mlp'], got {self.kind!r}")


@dataclass(frozen=True)
class WindowConfig:
    n_windows: int = 6
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


@dataclass(frozen=True)
class ShapConfig:
    background_size: int = 100
    explain_on: str = "test"

    def __post_init__(self):
        if self.background_size < 1:
            raise ValueError("background_size must be >= 1")
        if self.explain_on not in ("test", "train"):
            raise ValueError(f"explain_on must be 'test' or 'train', got {self.explain_on!r}")


@dataclass(frozen=True, eq=False)
class WindowResult:
    """One window's split (ascending period rows), fit and explanation: `phi`
    holds one row of SHAP values per row of `explained`, and `importance` is
    feature_importance's shares of it."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    phi: np.ndarray
    explained: FeatureMatrix
    importance: np.ndarray
    test_mse: float
    test_r2: float


@dataclass(frozen=True, eq=False)
class PeriodResult:
    """Window splits, explanations and importances for one regime period."""

    feature_names: tuple[str, ...]
    windows: tuple[WindowResult, ...]

    @property
    def degenerate_windows(self) -> tuple[int, ...]:
        """The windows whose importances are all zero: every attribution was zero."""
        return tuple(i for i, w in enumerate(self.windows) if not w.importance.any())


@dataclass(frozen=True, eq=False)
class RegimeComparison:
    """Per-feature importance statistics for two periods plus deltas, as
    compare_periods computes them."""

    feature_names: tuple[str, ...]
    before_mean: np.ndarray
    before_std: np.ndarray
    after_mean: np.ndarray
    after_std: np.ndarray
    delta: np.ndarray
    flagged: np.ndarray


def make_windows(n_rows: int, n_windows: int) -> list[range]:
    """Evenly spaced windows of n_rows // 2 rows each; the first starts at row
    0 and the last ends at row n_rows, so with two or more windows the first
    and the last share no row. One window covers only the first half. With
    two windows and an odd n_rows the middle row is in no window. n_windows
    is at least 1, as a WindowConfig holds it."""
    width = n_rows // 2
    if width < 1 or n_rows < n_windows:
        raise TimeSeriesError(f"period too short: {n_rows} rows for {n_windows} windows")
    span = n_rows - width
    offsets = [round(i * span / max(n_windows - 1, 1)) for i in range(n_windows)]
    return [range(off, off + width) for off in offsets]


def split_blocks(window: range, test_fraction: float, seed: int, rows_per_day: int) -> tuple[np.ndarray, np.ndarray]:
    """Partition a window into consecutive blocks of BLOCK_DAYS days and pick
    round(test_fraction * n_blocks) of them, uniformly without replacement,
    as the test set. A trailing partial block goes to the training set.
    Returns the ascending train and test rows, which partition the window.
    rows_per_day is at least 1, as timeseries.rows_per_day returns it."""
    rows = np.arange(window.start, window.stop, dtype=np.intp)
    rows_per_block = BLOCK_DAYS * rows_per_day
    n_blocks = len(rows) // rows_per_block
    if n_blocks < MIN_BLOCKS:
        raise TimeSeriesError(
            f"window of {len(rows)} rows spans only {n_blocks} blocks of "
            f"{rows_per_block} rows; need at least {MIN_BLOCKS}"
        )
    n_test = int(np.clip(round(test_fraction * n_blocks), 1, n_blocks - 1))
    rng = np.random.default_rng(seed)
    test_blocks = rng.choice(n_blocks, size=n_test, replace=False)
    test_mask = np.isin(np.arange(len(rows)) // rows_per_block, test_blocks)
    return rows[~test_mask], rows[test_mask]


def run_window(
    data: FeatureMatrix,
    window: range,
    w: int,
    per_day: int,
    model: ModelConfig,
    windows: WindowConfig,
    shap: ShapConfig,
    seed: int,
) -> WindowResult:
    """Split, fit, score and explain window w, rows `window` of data at
    per_day rows a day. A tree model is explained with the tree engine, a net
    with the kernel engine, both against a background drawn from the training
    rows. Seeds derive from (seed, w), so no window depends on another. A
    non-finite test prediction fails before the explanation; a failure reads
    "window w: ..."."""
    try:
        train_rows, test_rows = split_blocks(window, windows.test_fraction, derive_seed(seed, w, 0), per_day)
        train = data.take(train_rows)
        test = data.take(test_rows)
        # One of the two branches on the model kind (shap.explain_dataset has
        # the other). The functions are looked up here, at call time, so a
        # profiler that rebinds these module names sees each call.
        if model.kind == "gbt":
            fitted = fit_gbt(train, model.gbt)
            pred, method = predict_gbt(fitted, test.X), "tree"
        else:
            fitted = fit_mlp(train, model.mlp, derive_seed(seed, w, 1))
            pred, method = predict_mlp(fitted, test.X, work={}), "kernel"
        if not np.isfinite(pred).all():
            raise ValueError(f"non-finite prediction for test row {int(np.argmin(np.isfinite(pred)))}")

        bg = Background.subsample(train.X, shap.background_size, derive_seed(seed, w, 2))
        explain = test if shap.explain_on == "test" else train
        phi = explain_dataset(fitted, explain.X, bg, method=method, seed=derive_seed(seed, w, 3))
        importance = feature_importance(phi)

        mse = float(np.mean((pred - test.y) ** 2))
        sst = float(np.sum((test.y - test.y.mean()) ** 2))
        r2 = 1.0 - float(np.sum((pred - test.y) ** 2)) / sst if sst > 0 else float("nan")
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"window {w}: {exc}") from exc
    return WindowResult(train_rows, test_rows, phi, explain, importance, test_mse=mse, test_r2=r2)


def run_period(data: FeatureMatrix, model: ModelConfig, windows: WindowConfig, shap: ShapConfig, seed: int) -> PeriodResult:
    """Fit, explain and score one model per sliding window of the period
    whose rows data holds, each by run_window. The caller, which knows the
    period's name, adds it to a window's failure. A period too short for the
    protocol is a TimeSeriesError."""
    spans = enumerate(make_windows(len(data), windows.n_windows))
    # the smallest step is the resolution: rows dropped by the join leave wider ones
    per_day = rows_per_day(int(np.diff(data.timestamps).min()))
    results = tuple(run_window(data, window, w, per_day, model, windows, shap, seed) for w, window in spans)
    return PeriodResult(feature_names=data.feature_names, windows=results)


def compare_periods(before: PeriodResult, after: PeriodResult) -> RegimeComparison:
    """Per-feature importance mean and spread of each period, their deltas
    and the shift flags.

    A period's mean and spread are the mean and the population standard
    deviation of its window importances. A feature is flagged as shifted when
    |delta| exceeds the sum of the two spreads, i.e. when the error bars of
    the two periods would not overlap. A period of one window has no spread,
    so then no feature is flagged.
    """
    if before.feature_names != after.feature_names:
        raise ValueError(
            f"feature lists differ: {before.feature_names} vs {after.feature_names}"
        )
    fi_before = np.vstack([w.importance for w in before.windows])
    fi_after = np.vstack([w.importance for w in after.windows])
    before_mean, before_std = fi_before.mean(axis=0), fi_before.std(axis=0)
    after_mean, after_std = fi_after.mean(axis=0), fi_after.std(axis=0)
    delta = after_mean - before_mean
    return RegimeComparison(
        feature_names=before.feature_names,
        before_mean=before_mean,
        before_std=before_std,
        after_mean=after_mean,
        after_std=after_std,
        delta=delta,
        flagged=(np.abs(delta) > (before_std + after_std)) & (min(len(fi_before), len(fi_after)) > 1),
    )


# ----------------------------------------------------------------- exporters


def write_importance_csv(path, results: dict[str, PeriodResult]) -> None:
    """One row per (period, window, feature): relative SHAP importance."""
    blocks = (
        (name, i, result.feature_names, w.importance)
        for name, result in results.items()
        for i, w in enumerate(result.windows)
    )
    write_csv(path, ["period", "window", "feature", "fi"], blocks)


def write_comparison_csv(path, comparison: RegimeComparison) -> None:
    c = comparison
    flags = ["true" if hit else "false" for hit in c.flagged.tolist()]
    header = ["feature", "before_mean", "before_std", "after_mean", "after_std", "delta", "flagged"]
    write_csv(path, header, [(c.feature_names, c.before_mean, c.before_std, c.after_mean, c.after_std, c.delta, flags)])


def write_dependence_csv(path, results: dict[str, PeriodResult]) -> None:
    """One row per (period, feature, explained row): feature and SHAP value."""
    blocks = chain.from_iterable(_dependence_blocks(name, result) for name, result in results.items())
    write_csv(path, ["period", "window", "timestamp", "feature", "x_value", "phi_value"], blocks)


def _dependence_blocks(name: str, result: PeriodResult):
    """One period's write_csv blocks, one per feature, each holding the
    feature's rows of every window in window order. The windows overlap, so
    a row may be explained in several: its stamp is formatted once for the
    period, and write_csv formats each distinct x value of a feature once."""
    explained = [w.explained for w in result.windows]
    rows, inverse = np.unique(np.concatenate([e.timestamps for e in explained]), return_inverse=True)
    stamps = np.array(format_timestamps(rows), dtype=object)[inverse].tolist()
    windows = list(chain.from_iterable(repeat(str(i), len(e)) for i, e in enumerate(explained)))
    for j, feat in enumerate(result.feature_names):
        x = np.concatenate([e.X[:, j] for e in explained])
        phi = np.concatenate([w.phi[:, j] for w in result.windows])
        yield name, windows, stamps, feat, x, phi


def window_metrics(result: PeriodResult) -> list[dict]:
    """Per-window fit quality for the run manifest."""
    degenerate = set(result.degenerate_windows)
    return [
        {
            "window": i,
            "n_train": len(w.train_indices),
            "n_test": len(w.test_indices),
            "test_mse": w.test_mse,
            "test_r2": None if np.isnan(w.test_r2) else w.test_r2,
            "degenerate_importance": i in degenerate,
        }
        for i, w in enumerate(result.windows)
    ]


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
