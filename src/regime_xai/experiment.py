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
from dataclasses import dataclass, field, replace

import numpy as np

from regime_xai.gbt import GbtParams, fit_gbt, predict_gbt
from regime_xai.mlp import MlpParams, fit_mlp, predict_mlp
from regime_xai.seeds import derive_seed
from regime_xai.shap import Background, Explanation, ImportanceVector, explain_dataset, feature_importance
from regime_xai.timeseries import FeatureMatrix, format_timestamp, rows_per_day, write_csv

log = logging.getLogger(__name__)

MODEL_KINDS = ("gbt", "mlp")


@dataclass(frozen=True)
class PeriodSpec:
    """Named half-open interval [start, end) of UTC epoch seconds."""

    name: str
    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"period {self.name!r}: start must precede end")


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
class ExperimentConfig:
    n_windows: int = 6
    window_fraction: float = 0.5
    block_days: int = 4
    test_fraction: float = 0.2
    background_size: int = 100
    n_coalitions: int | None = None
    explain_on: str = "test"
    gbt: GbtParams = field(default_factory=GbtParams)
    mlp: MlpParams = field(default_factory=MlpParams)

    def __post_init__(self):
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if not 0 < self.window_fraction <= 1:
            raise ValueError("window_fraction must be in (0, 1]")
        if self.block_days < 1:
            raise ValueError("block_days must be >= 1")
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.background_size < 1:
            raise ValueError("background_size must be >= 1")
        if self.n_coalitions is not None and self.n_coalitions < 2:
            raise ValueError(f"n_coalitions must be None or >= 2, got {self.n_coalitions}")
        if self.explain_on not in ("test", "train"):
            raise ValueError(f"explain_on must be 'test' or 'train', got {self.explain_on!r}")


@dataclass(frozen=True, eq=False)
class WindowResult:
    window_index: int
    split: SplitPlan
    explanation: Explanation
    explained_X: np.ndarray
    explained_timestamps: np.ndarray
    importance: ImportanceVector
    test_mse: float
    test_r2: float


@dataclass(frozen=True, eq=False)
class PeriodResult:
    """Window splits, explanations and importances for one regime period."""

    period: PeriodSpec
    feature_names: tuple[str, ...]
    windows: tuple[WindowResult, ...]
    fi_mean: np.ndarray
    fi_std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def degenerate_windows(self) -> tuple[int, ...]:
        return tuple(w.window_index for w in self.windows if w.importance.degenerate)


@dataclass(frozen=True, eq=False)
class RegimeComparison:
    """Per-feature importance statistics for two periods plus deltas.

    A feature is flagged as shifted when |delta| exceeds the sum of the two
    window standard deviations, i.e. when the error bars of the two periods
    would not overlap. Ranks are 1-based, 1 = most important.
    """

    feature_names: tuple[str, ...]
    before_mean: np.ndarray
    before_std: np.ndarray
    after_mean: np.ndarray
    after_std: np.ndarray
    delta: np.ndarray
    before_rank: np.ndarray
    after_rank: np.ndarray
    flagged: np.ndarray


def make_windows(n_rows: int, n_windows: int, window_fraction: float) -> list[range]:
    """Evenly spaced overlapping windows of floor(window_fraction * n_rows)
    rows each; the first starts at row 0 and the last ends at row n_rows."""
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    width = int(window_fraction * n_rows)
    if width < 1 or n_rows < n_windows:
        raise ValueError(f"period too short: {n_rows} rows for {n_windows} windows")
    span = n_rows - width
    if n_windows == 1:
        offsets = [0]
    else:
        offsets = [round(i * span / (n_windows - 1)) for i in range(n_windows)]
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
        raise ValueError(
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
    model_kind: str,
    config: ExperimentConfig | None = None,
    seed: int = 0,
) -> PeriodResult:
    """Fit, explain and score one model per sliding window of the period.

    data holds the period's rows only; a row outside period is an error.
    Tree models are explained with the tree engine, nets with the kernel
    engine, both against a background subsampled from the window's training
    rows. A model with a non-finite test prediction fails before it is
    explained. Fit/explain failures are re-raised annotated with the window
    index.
    """
    config = config or ExperimentConfig()
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {model_kind!r}")

    if len(data) == 0:
        raise ValueError(f"no rows fall inside period {period.name!r}")
    ts = data.timestamps
    outside = np.flatnonzero((ts < period.start) | (ts >= period.end))
    if outside.size:
        raise ValueError(f"row at {format_timestamp(ts[outside[0]])} lies outside period {period.name!r}")
    if len(ts) < 2:
        raise ValueError("need at least two rows to infer the resolution")
    # the smallest step is the resolution: rows dropped by the join leave wider ones
    per_day = rows_per_day(int(np.diff(ts).min()))

    # The one branch on the model kind. The functions are looked up here, at
    # call time, so a profiler that rebinds these module names sees each call.
    if model_kind == "gbt":
        def fit(train: FeatureMatrix, fit_seed: int):
            return fit_gbt(train, config.gbt)

        predict, method = predict_gbt, "tree"
    else:
        def fit(train: FeatureMatrix, fit_seed: int):
            return fit_mlp(train, replace(config.mlp, seed=fit_seed))

        predict, method = predict_mlp, "kernel"

    windows = make_windows(len(data), config.n_windows, config.window_fraction)
    results = []
    for w, window in enumerate(windows):
        try:
            plan = split_blocks(
                window,
                block_days=config.block_days,
                test_fraction=config.test_fraction,
                seed=derive_seed(seed, w, 0),
                rows_per_day=per_day,
            )
            train = data.take(plan.train_indices)
            test = data.take(plan.test_indices)
            model = fit(train, derive_seed(seed, w, 1))
            pred = predict(model, test.X)
            if not np.isfinite(pred).all():
                raise ValueError(f"non-finite prediction for test row {int(np.argmin(np.isfinite(pred)))}")

            bg = Background.subsample(train.X, config.background_size, derive_seed(seed, w, 2))
            explain = test if config.explain_on == "test" else train
            explanation = explain_dataset(
                model,
                explain.X,
                bg,
                method=method,
                seed=derive_seed(seed, w, 3),
                n_coalitions=config.n_coalitions,
            )
            importance = feature_importance(explanation)
            if importance.degenerate:
                log.warning("period %s window %d: degenerate importances", period.name, w)

            mse = float(np.mean((pred - test.y) ** 2))
            sst = float(np.sum((test.y - test.y.mean()) ** 2))
            r2 = 1.0 - float(np.sum((pred - test.y) ** 2)) / sst if sst > 0 else float("nan")
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"window {w}: {exc}") from exc

        results.append(
            WindowResult(
                window_index=w,
                split=plan,
                explanation=explanation,
                explained_X=explain.X,
                explained_timestamps=explain.timestamps,
                importance=importance,
                test_mse=mse,
                test_r2=r2,
            )
        )

    fi = np.vstack([r.importance.fi for r in results])
    return PeriodResult(
        period=period,
        feature_names=data.feature_names,
        windows=tuple(results),
        fi_mean=fi.mean(axis=0),
        fi_std=fi.std(axis=0),
    )


def _ranks(mean_fi: np.ndarray) -> np.ndarray:
    """1-based ranks by descending importance; stable for ties."""
    order = np.argsort(-mean_fi, kind="stable")
    ranks = np.empty(len(mean_fi), dtype=np.intp)
    ranks[order] = np.arange(1, len(mean_fi) + 1)
    return ranks


def compare_periods(before: PeriodResult, after: PeriodResult) -> RegimeComparison:
    """Per-feature deltas, ranks and shift flags between two periods."""
    if before.feature_names != after.feature_names:
        raise ValueError(
            f"feature lists differ: {before.feature_names} vs {after.feature_names}"
        )
    delta = after.fi_mean - before.fi_mean
    flagged = np.abs(delta) > (before.fi_std + after.fi_std)
    return RegimeComparison(
        feature_names=before.feature_names,
        before_mean=before.fi_mean,
        before_std=before.fi_std,
        after_mean=after.fi_mean,
        after_std=after.fi_std,
        delta=delta,
        before_rank=_ranks(before.fi_mean),
        after_rank=_ranks(after.fi_mean),
        flagged=flagged,
    )


def dependence_data(result: PeriodResult, feature: str) -> dict[str, np.ndarray]:
    """Plot-ready (feature value, SHAP value) pairs over every window's
    explained rows, tagged by window; no binning or smoothing."""
    if feature not in result.feature_names:
        raise ValueError(f"unknown feature {feature!r}; have {result.feature_names}")
    j = result.feature_names.index(feature)
    window_tags, timestamps, x_values, phi_values = [], [], [], []
    for w in result.windows:
        k = len(w.explanation)
        window_tags.append(np.full(k, w.window_index, dtype=np.intp))
        timestamps.append(w.explained_timestamps)
        x_values.append(w.explained_X[:, j])
        phi_values.append(w.explanation.phi[:, j])
    return {
        "window": np.concatenate(window_tags),
        "timestamp": np.concatenate(timestamps),
        "x_value": np.concatenate(x_values),
        "phi_value": np.concatenate(phi_values),
    }


# ----------------------------------------------------------------- exporters


def write_importance_csv(path, results: dict[str, PeriodResult]) -> None:
    """One row per (period, window, feature): relative SHAP importance."""
    rows = (
        (name, w.window_index, feat, fi)
        for name, result in results.items()
        for w in result.windows
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
            stamps = [format_timestamp(t) for w in result.windows for t in w.explained_timestamps.tolist()]
            for feat in result.feature_names:
                data = dependence_data(result, feat)
                for w, t, x, phi in zip(data["window"].tolist(), stamps, data["x_value"].tolist(),
                                        data["phi_value"].tolist()):
                    yield name, w, t, feat, x, phi

    write_csv(path, ["period", "window", "timestamp", "feature", "x_value", "phi_value"], rows())


def window_metrics(result: PeriodResult) -> list[dict]:
    """Per-window fit quality for the run manifest."""
    out = []
    for w in result.windows:
        out.append(
            {
                "window": w.window_index,
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
