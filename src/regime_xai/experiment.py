"""Protocol orchestration: sliding windows per regime period, block-wise
train/test splits, model fitting, explanation, and before/after comparison.

Each period gets six overlapping windows covering half the period each.
Within a window the test set is a random 20% of consecutive four-day blocks;
a model is fitted on the remaining rows and explained on the test rows. The
per-window normalized importances are aggregated to a mean and standard
deviation per feature, and the two periods are compared feature by feature.

Every random choice is driven by seeds derived from (master seed, window
index, purpose), so a run is reproducible to the last exported digit.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from regime_xai.gbt import GbtParams, fit_gbt, predict_gbt
from regime_xai.mlp import MlpParams, fit_mlp, predict_mlp
from regime_xai.seeds import derive_seed
from regime_xai.shap import Background, Explanation, ImportanceVector, explain_dataset, feature_importance
from regime_xai.timeseries import FeatureMatrix, TimeSeriesError, format_timestamp, rows_per_day, write_csv

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PeriodSpec:
    """Named half-open interval [start, end) of UTC epoch seconds."""

    name: str
    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"end must be after start {format_timestamp(self.start)}, got {format_timestamp(self.end)}")


@dataclass(frozen=True)
class SplitPlan:
    """Train/test row indices for one window; test rows are whole blocks."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        train = np.asarray(self.train_indices, dtype=np.intp)
        test = np.asarray(self.test_indices, dtype=np.intp)
        if np.intersect1d(train, test).size:
            raise ValueError("train and test indices overlap")
        object.__setattr__(self, "train_indices", train)
        object.__setattr__(self, "test_indices", test)


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
    window_fraction: float = 0.5
    block_days: int = 4
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if not 0 < self.window_fraction <= 1:
            raise ValueError("window_fraction must be in (0, 1]")
        if self.block_days < 1:
            raise ValueError("block_days must be >= 1")
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
    """One window's split, fit and explanation; `explained` holds the rows `explanation.phi` covers."""

    split: SplitPlan
    explanation: Explanation
    explained: FeatureMatrix
    importance: ImportanceVector
    test_mse: float
    test_r2: float


@dataclass(frozen=True, eq=False)
class PeriodResult:
    """Window splits, explanations and importances for one regime period."""

    feature_names: tuple[str, ...]
    windows: tuple[WindowResult, ...]

    @property
    def degenerate_windows(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.windows) if w.importance.degenerate)


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


def make_windows(n_rows: int, n_windows: int, window_fraction: float) -> list[range]:
    """Evenly spaced overlapping windows of floor(window_fraction * n_rows)
    rows each; the first starts at row 0 and the last ends at row n_rows."""
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    width = int(window_fraction * n_rows)
    if width < 1 or n_rows < n_windows:
        raise TimeSeriesError(f"period too short: {n_rows} rows for {n_windows} windows")
    span = n_rows - width
    offsets = [round(i * span / max(n_windows - 1, 1)) for i in range(n_windows)]
    return [range(off, off + width) for off in offsets]


def split_blocks(
    window: range,
    block_days: int,
    test_fraction: float,
    seed: int,
    rows_per_day: int,
) -> SplitPlan:
    """Partition a window into consecutive blocks of block_days and pick
    round(test_fraction * n_blocks) of them, uniformly without replacement,
    as the test set. A trailing partial block goes to the training set."""
    rows = np.arange(window.start, window.stop, dtype=np.intp)
    rows_per_block = int(block_days) * int(rows_per_day)
    if rows_per_block < 1:
        raise ValueError("block must cover at least one row")
    n_blocks = len(rows) // rows_per_block
    if n_blocks < 5:
        raise TimeSeriesError(
            f"window of {len(rows)} rows spans only {n_blocks} blocks of "
            f"{rows_per_block} rows; need at least 5"
        )
    n_test = int(np.clip(round(test_fraction * n_blocks), 1, n_blocks - 1))
    rng = np.random.default_rng(seed)
    test_blocks = np.sort(rng.choice(n_blocks, size=n_test, replace=False))

    test_mask = np.zeros(len(rows), dtype=bool)
    for b in test_blocks:
        test_mask[b * rows_per_block : (b + 1) * rows_per_block] = True
    return SplitPlan(train_indices=rows[~test_mask], test_indices=rows[test_mask])


def run_period(
    data: FeatureMatrix,
    period: PeriodSpec,
    model: ModelConfig,
    windows: WindowConfig,
    shap: ShapConfig,
    seed: int,
) -> PeriodResult:
    """Fit, explain and score one model per sliding window of the period.

    data holds the period's rows only; a row outside period is an error.
    Tree models are explained with the tree engine, nets with the kernel
    engine, both against a background subsampled from the window's training
    rows. A model with a non-finite test prediction fails before it is
    explained. Failures are re-raised annotated with the period name and the
    window index; a period too short for the protocol is a TimeSeriesError.
    """
    if len(data) == 0:
        raise ValueError(f"no rows fall inside period {period.name!r}")
    ts = data.timestamps
    outside = np.flatnonzero((ts < period.start) | (ts >= period.end))
    if outside.size:
        raise ValueError(f"row at {format_timestamp(ts[outside[0]])} lies outside period {period.name!r}")
    if len(ts) < 2:
        raise TimeSeriesError(f"{period.name}: need at least two rows to infer the resolution")
    # the smallest step is the resolution: rows dropped by the join leave wider ones
    per_day = rows_per_day(int(np.diff(ts).min()))

    # The one branch on the model kind. The functions are looked up here, at
    # call time, so a profiler that rebinds these module names sees each call.
    if model.kind == "gbt":
        def fit(train: FeatureMatrix, fit_seed: int):
            return fit_gbt(train, model.gbt)

        predict, method = predict_gbt, "tree"
    else:
        def fit(train: FeatureMatrix, fit_seed: int):
            return fit_mlp(train, model.mlp, fit_seed)

        predict, method = partial(predict_mlp, work={}), "kernel"

    try:
        spans = make_windows(len(data), windows.n_windows, windows.window_fraction)
    except TimeSeriesError as exc:
        raise TimeSeriesError(f"{period.name}: {exc}") from exc
    results = []
    for w, window in enumerate(spans):
        try:
            plan = split_blocks(
                window,
                block_days=windows.block_days,
                test_fraction=windows.test_fraction,
                seed=derive_seed(seed, w, 0),
                rows_per_day=per_day,
            )
            train = data.take(plan.train_indices)
            test = data.take(plan.test_indices)
            fitted = fit(train, derive_seed(seed, w, 1))
            pred = predict(fitted, test.X)
            if not np.isfinite(pred).all():
                raise ValueError(f"non-finite prediction for test row {int(np.argmin(np.isfinite(pred)))}")

            bg = Background.subsample(train.X, shap.background_size, derive_seed(seed, w, 2))
            explain = test if shap.explain_on == "test" else train
            explanation = explain_dataset(fitted, explain.X, bg, method=method, seed=derive_seed(seed, w, 3))
            importance = feature_importance(explanation)
            if importance.degenerate:
                log.warning("period %s window %d: degenerate importances", period.name, w)

            mse = float(np.mean((pred - test.y) ** 2))
            sst = float(np.sum((test.y - test.y.mean()) ** 2))
            r2 = 1.0 - float(np.sum((pred - test.y) ** 2)) / sst if sst > 0 else float("nan")
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"{period.name}: window {w}: {exc}") from exc

        results.append(
            WindowResult(
                split=plan,
                explanation=explanation,
                explained=explain,
                importance=importance,
                test_mse=mse,
                test_r2=r2,
            )
        )

    return PeriodResult(feature_names=data.feature_names, windows=tuple(results))


def compare_periods(before: PeriodResult, after: PeriodResult) -> RegimeComparison:
    """Per-feature importance mean and spread of each period, their deltas
    and the shift flags.

    A period's mean and spread are the mean and the population standard
    deviation of its window importances. A feature is flagged as shifted when
    |delta| exceeds the sum of the two spreads, i.e. when the error bars of
    the two periods would not overlap.
    """
    if before.feature_names != after.feature_names:
        raise ValueError(
            f"feature lists differ: {before.feature_names} vs {after.feature_names}"
        )
    fi_before = np.vstack([w.importance.fi for w in before.windows])
    fi_after = np.vstack([w.importance.fi for w in after.windows])
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
        flagged=np.abs(delta) > (before_std + after_std),
    )


# ----------------------------------------------------------------- exporters


def write_importance_csv(path, results: dict[str, PeriodResult]) -> None:
    """One row per (period, window, feature): relative SHAP importance."""
    rows = (
        (name, i, feat, fi)
        for name, result in results.items()
        for i, w in enumerate(result.windows)
        for feat, fi in zip(result.feature_names, w.importance.fi.tolist())
    )
    write_csv(path, ["period", "window", "feature", "fi"], rows)


def write_comparison_csv(path, comparison: RegimeComparison) -> None:
    c = comparison
    stats = (c.before_mean, c.before_std, c.after_mean, c.after_std, c.delta)
    flags = ("true" if hit else "false" for hit in c.flagged.tolist())
    header = ["feature", "before_mean", "before_std", "after_mean", "after_std", "delta", "flagged"]
    write_csv(path, header, zip(c.feature_names, *(s.tolist() for s in stats), flags))


def write_dependence_csv(path, results: dict[str, PeriodResult]) -> None:
    """One row per (period, feature, explained row): feature and SHAP value.
    Every feature of a period shares its explained rows, so each timestamp is
    formatted once per period."""

    def rows():
        for name, result in results.items():
            stamps = [[format_timestamp(t) for t in w.explained.timestamps.tolist()] for w in result.windows]
            for j, feat in enumerate(result.feature_names):
                for i, (w, ts) in enumerate(zip(result.windows, stamps)):
                    for t, x, phi in zip(ts, w.explained.X[:, j].tolist(), w.explanation.phi[:, j].tolist()):
                        yield name, i, t, feat, x, phi

    write_csv(path, ["period", "window", "timestamp", "feature", "x_value", "phi_value"], rows())


def window_metrics(result: PeriodResult) -> list[dict]:
    """Per-window fit quality for the run manifest."""
    out = []
    for i, w in enumerate(result.windows):
        out.append(
            {
                "window": i,
                "n_train": int(len(w.split.train_indices)),
                "n_test": int(len(w.split.test_indices)),
                "test_mse": w.test_mse,
                "test_r2": None if np.isnan(w.test_r2) else w.test_r2,
                "degenerate_importance": w.importance.degenerate,
            }
        )
    return out


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
