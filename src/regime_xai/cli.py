"""Command-line front end: `regime-xai features|run|synth`.

`features` builds per-period model matrices from CSV inputs, `run` executes
the full fit/explain/compare pipeline, and `synth` emits a synthetic
two-regime dataset plus a ready-to-run config for demos and end-to-end tests.

Logs go to stderr, data to files. Exit codes: 0 ok, 1 invalid config or
inputs, 2 runtime failure. Failures also emit a one-line JSON error record
on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import regime_xai
from regime_xai.config import PERIODS, ConfigError, FeatureConfig, InputSpec, PeriodSpec, RunConfig, config_record, load_config
from regime_xai.experiment import (
    BLOCK_DAYS,
    MIN_BLOCKS,
    ModelConfig,
    ShapConfig,
    compare_periods,
    run_period,
    window_metrics,
    write_comparison_csv,
    write_dependence_csv,
    write_importance_csv,
    write_manifest,
)
from regime_xai.gbt import GbtParams
from regime_xai.mlp import MlpParams
from regime_xai.seeds import derive_seed
from regime_xai.timeseries import (
    FeatureMatrix,
    TimeSeriesError,
    align_join,
    format_timestamps,
    load_table,
    mixed_price,
    owning_table,
    resample_mean,
    residual_load,
    rows_per_day,
    synth_regime,
    with_column,
    write_csv,
)

log = logging.getLogger("regime_xai")


# ------------------------------------------------------------ feature builds


def _derive_column(tables: list, name: str, sources: list[str], formula) -> None:
    """Add column name, formula(step_seconds, *source columns), to the one
    table that holds every source; a name any table already holds (an input
    or an earlier derived column) is an error, not replaced."""
    i = owning_table(tables, sources)
    if any(name in t.columns for t in tables):
        raise TimeSeriesError(f"derived column {name!r} would replace an existing column of that name")
    t = tables[i]
    tables[i] = with_column(t, name, formula(t.step_seconds, *(t.columns[s] for s in sources)))


def build_features(config: RunConfig) -> tuple[dict[str, FeatureMatrix], dict]:
    """Load, resample and feature-engineer the inputs into per-period matrices.

    Returns the matrices keyed by period name plus a report with row and
    drop counts. Derived columns are computed at the model resolution.
    """
    tables = [load_table(spec.path, round(spec.resolution_hours * 3600)) for spec in config.inputs]
    if config.features.resample_hours is not None:
        block = round(config.features.resample_hours * 3600)
        # inputs already at the block step fix where every input's blocks start
        phases = {t.start % block: spec.path for spec, t in zip(config.inputs, tables) if t.step_seconds == block}
        if len(phases) > 1:
            listed = ", ".join(f"{path} +{phase / 3600:g}h" for phase, path in phases.items())
            raise TimeSeriesError(f"inputs at the {block / 3600:g}h block step start off the UTC clock by different offsets: {listed}")
        origin = next(iter(phases), 0)
        tables = [resample_mean(t, block, origin) for t in tables]

    for spec in config.features.residual_loads:
        _derive_column(tables, spec.name, [spec.load, spec.wind, spec.solar, spec.ror], lambda step, *series: (
            residual_load(*series, ror_lag_days=spec.ror_lag_days, samples_per_day=rows_per_day(step))))
    for spec in config.features.mixed_prices:
        _derive_column(tables, spec.name, [spec.capacity, spec.energy],
                       lambda step, capacity, energy: mixed_price(capacity, energy, spec.alpha))

    frames: dict[str, FeatureMatrix] = {}
    report = {"periods": {}, "columns": list(config.features.columns)}
    for name in PERIODS:
        period = config.periods[name]
        target_col = config.features.target[name]
        frames[name] = align_join(tables, list(config.features.columns), target_col, period.start, period.end)
        report["periods"][name] = {
            "target": target_col,
            "rows": len(frames[name]),
            "rows_dropped_in_join": frames[name].n_dropped,
        }
        if len(frames[name]) == 0:
            raise TimeSeriesError(f"period {name!r} contains no usable rows")
    return frames, report


def write_feature_csv(path, fm: FeatureMatrix, target_name: str) -> None:
    header = ["timestamp", *fm.feature_names, target_name]
    write_csv(path, header, [(format_timestamps(fm.timestamps), *fm.X.T, fm.y)])


# ------------------------------------------------------------------ commands


def _output_dir(path, key: str) -> Path:
    """path, made with its parents; a path that cannot be made is a fault of key."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{key}: cannot create directory {path} ({exc.strerror})") from None
    return Path(path)


def cmd_features(config: RunConfig) -> dict:
    out_dir = _output_dir(config.output_dir, "output_dir")
    frames, report = build_features(config)
    for name, fm in frames.items():
        path = out_dir / f"features_{name}.csv"
        write_feature_csv(path, fm, config.features.target[name])
        log.info("wrote %s (%d rows)", path, len(fm))
    report_path = out_dir / "features_report.json"
    write_manifest(report_path, report)
    log.info("wrote %s", report_path)
    return report


def cmd_run(config: RunConfig) -> dict:
    out_dir = _output_dir(config.output_dir, "output_dir")
    frames, feature_report = build_features(config)

    results = {}
    period_seeds = {}
    for index, name in enumerate(PERIODS):
        period_seeds[name] = derive_seed(config.seed, index)
        log.info("fitting %s models for period %s", config.model.kind, name)
        try:
            results[name] = run_period(frames[name], config.model, config.windows, config.shap, period_seeds[name])
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        if results[name].degenerate_windows:
            log.warning("period %s: degenerate importances in windows %s", name, list(results[name].degenerate_windows))
    comparison = compare_periods(results["before"], results["after"])

    outputs = {
        "importance": "importance.csv",
        "comparison": "comparison.csv",
        "dependence": "dependence.csv",
        "manifest": "manifest.json",
    }
    write_importance_csv(out_dir / outputs["importance"], results)
    write_comparison_csv(out_dir / outputs["comparison"], comparison)
    write_dependence_csv(out_dir / outputs["dependence"], results)

    manifest = {
        "toolkit_version": regime_xai.__version__,
        "config": config_record(config),
        "period_seeds": period_seeds,
        "features": feature_report,
        "metrics": {name: window_metrics(results[name]) for name in PERIODS},
        "flagged_features": [
            feat for feat, hit in zip(comparison.feature_names, comparison.flagged) if hit
        ],
        "outputs": outputs,
    }
    write_manifest(out_dir / outputs["manifest"], manifest)
    for key in ("importance", "comparison", "dependence", "manifest"):
        log.info("wrote %s", out_dir / outputs[key])
    return manifest


def cmd_synth(out_dir, seed: int) -> Path:
    """Write a two-regime synthetic dataset, one period after the other, and
    a matching config that lists every setting. The data and the config are
    made first, so a failing command leaves no directory behind. Each period
    holds the fewest hourly rows `run` accepts: each half-period window spans
    MIN_BLOCKS whole blocks of BLOCK_DAYS days."""
    period_a, period_b = synth_regime(2 * MIN_BLOCKS * BLOCK_DAYS * rows_per_day(3600), seed=seed)
    boundary = int(period_b.timestamps[0])
    config = RunConfig(
        inputs=(InputSpec(path="synth_data.csv", resolution_hours=1.0),),
        features=FeatureConfig(columns=period_a.feature_names, target=dict.fromkeys(PERIODS, "y")),
        periods={
            "before": PeriodSpec(start=int(period_a.timestamps[0]), end=boundary),
            "after": PeriodSpec(start=boundary, end=int(period_b.timestamps[-1]) + 3600),
        },
        model=ModelConfig(kind="gbt", gbt=GbtParams(n_trees=60, max_depth=3),
                          mlp=MlpParams(hidden_sizes=(32, 32), max_epochs=150)),
        shap=ShapConfig(background_size=50),
        seed=seed,
        output_dir="run_output",
    )
    out_dir = _output_dir(out_dir, "--out")

    data_path = out_dir / "synth_data.csv"
    header = ["timestamp", *period_a.feature_names, "y"]
    write_csv(data_path, header, [(format_timestamps(p.timestamps), *p.X.T, p.y) for p in (period_a, period_b)])
    config_path = out_dir / "synth_config.json"
    write_manifest(config_path, config_record(config))
    log.info("wrote %s and %s", data_path, config_path)
    return config_path


# ---------------------------------------------------------------- entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regime-xai",
        description="Explain how price-driver importances shift across a regulatory change date.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("features", "build per-period feature matrices from the configured inputs"),
        ("run", "run the full fit/explain/compare pipeline"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value (dotted path, JSON value)")
        p.add_argument("--out", help="override the configured output directory")

    p = sub.add_parser("synth", help="emit a synthetic two-regime dataset and config")
    p.add_argument("--out", default=".", help="directory for the dataset and config")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            cmd_synth(args.out, seed=args.seed)
            return 0

        overrides = list(args.overrides)
        if args.out:
            overrides.append(f"output_dir={Path(args.out).resolve()}")
        config = load_config(args.config, overrides)
        if args.command == "features":
            cmd_features(config)
        else:
            cmd_run(config)
        return 0
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        log.error("%s", exc)
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, TimeSeriesError)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
