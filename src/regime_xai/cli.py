"""Command-line front end: `regime-xai features|run|verify|synth`.

`features` builds per-period model matrices from CSV inputs, `run` executes
the full fit/explain/compare pipeline, `verify` runs reduced self-checks of
the explanation engines, and `synth` emits a synthetic two-regime dataset
plus a ready-to-run config for demos and end-to-end tests.

Logs go to stderr, data to files. Exit codes: 0 ok, 1 invalid config or
inputs, 2 runtime failure. Failures also emit a one-line JSON error record
on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from functools import partial
from pathlib import Path

import numpy as np

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
from regime_xai.gbt import GbtParams, fit_gbt, predict_gbt
from regime_xai.mlp import MlpParams, fit_mlp, grad_check, initial_net, predict_mlp
from regime_xai.seeds import derive_seed
from regime_xai.shap import Background, exact_shap, explain_dataset
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


def cmd_synth(out_dir, n_rows: int, seed: int) -> Path:
    """Write a two-regime synthetic dataset, one period after the other, and
    a matching config that lists every setting. The data and the config are
    made first, so a failing command leaves no directory behind. n_rows must
    give each half-period window MIN_BLOCKS whole blocks of hourly rows, or
    `run` would refuse the config `synth` wrote."""
    min_rows = 2 * MIN_BLOCKS * BLOCK_DAYS * rows_per_day(3600)
    if n_rows < min_rows:
        raise ConfigError(
            f"--rows must be >= {min_rows}, so each half-period window spans {MIN_BLOCKS} blocks of {BLOCK_DAYS} days, got {n_rows}"
        )
    period_a, period_b = synth_regime(n_rows, seed=seed)
    boundary = int(period_b.timestamps[0])
    config = RunConfig(
        inputs=(InputSpec(path="synth_data.csv", resolution_hours=1.0),),
        features=FeatureConfig(columns=period_a.feature_names, target=dict.fromkeys(PERIODS, "y")),
        periods={
            "before": PeriodSpec(start=int(period_a.timestamps[0]), end=boundary),
            "after": PeriodSpec(start=boundary, end=int(period_b.timestamps[-1]) + 3600),
        },
        model=ModelConfig(kind="gbt", gbt=GbtParams(n_trees=60, max_depth=3, min_samples_leaf=20, learning_rate=0.1),
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


# ---------------------------------------------------------------- self-tests


def _matrix(X, y) -> FeatureMatrix:
    """The matrix of rows X and target y, features f0, f1, ... and stamps 0, 1, ..."""
    return FeatureMatrix(tuple(f"f{i}" for i in range(X.shape[1])), X, y, np.arange(len(y)))


def _exact(predict, rows, bg):
    """phi (rows x features) and phi0 (one per row) of rows, by the brute-force enumeration."""
    phi, phi0 = zip(*(exact_shap(predict, x, bg) for x in rows))
    return np.array(phi), np.array(phi0)


def _check_tree_oracle():
    """Compare tree explanations against the brute-force enumeration."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        fm = _matrix(rng.uniform(-1, 1, size=(60, 6)), rng.standard_normal(60))
        model = fit_gbt(fm, GbtParams(n_trees=5, max_depth=3, min_samples_leaf=5, learning_rate=0.3))
        bg = Background(rng.uniform(-1, 1, size=(5, 6)))
        rows = rng.uniform(-1, 1, size=(10, 6))
        e = explain_dataset(model, rows, bg, method="tree")
        phi_e, phi0_e = _exact(partial(predict_gbt, model), rows, bg)
        worst = max(worst, float(np.abs(e.phi - phi_e).max()), float(np.abs(e.phi0 - phi0_e).max()))
    return worst < 1e-9, f"max deviation {worst:.2e} (tolerance 1e-9)"


def _check_kernel_sampled():
    """Compare kernel explanations in sampled mode (12 features), made by the
    call run makes, with the brute-force enumeration. The error of a row is
    the L1 gap over sum |phi_exact|; this setup measures a median of 0.77 %
    and a max of 1.46 %, and 1.85 % and 4.83 % without complement pairing."""
    rng = np.random.default_rng(107)
    X = rng.standard_normal((200, 12))
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * X[:, 3:].sum(axis=1) + 0.1 * rng.standard_normal(200)
    net = fit_mlp(_matrix(X, y), MlpParams(hidden_sizes=(16, 16), max_epochs=30), seed=0)
    bg, rows = Background(X[:5]), X[5:25]
    e = explain_dataset(net, rows, bg, method="kernel")
    phi_e, _ = _exact(partial(predict_mlp, net, work={}), rows, bg)
    errors = np.abs(e.phi - phi_e).sum(axis=1) / np.abs(phi_e).sum(axis=1)
    median, worst = float(np.median(errors)), float(errors.max())
    return median < 0.0125 and worst < 0.03, (
        f"L1 error over sum |phi_exact|, median {median:.2%}, max {worst:.2%} on 20 rows "
        f"(tolerance 1.25%, 3%)"
    )


def _check_gradients():
    rng = np.random.default_rng(103)
    worst = 0.0
    for seed in range(5):
        X = rng.standard_normal((64, 3))
        y = rng.standard_normal(64)
        net = initial_net(_matrix(X, y), MlpParams(hidden_sizes=(6, 5)), seed)
        worst = max(worst, grad_check(net, rng.standard_normal((8, 3)), y[:8]))
    return worst < 1e-4, f"max relative error {worst:.2e} (tolerance 1e-4)"


def _check_local_accuracy():
    rng = np.random.default_rng(104)
    X = rng.uniform(-1, 1, size=(150, 5))
    y = X @ rng.normal(size=5) + 0.1 * rng.standard_normal(150)
    fm = _matrix(X, y)
    bg = Background(rng.uniform(-1, 1, size=(10, 5)))

    model = fit_gbt(fm, GbtParams(n_trees=20, max_depth=3, min_samples_leaf=10))
    e_tree = explain_dataset(model, X[:100], bg, method="tree")

    net = initial_net(fm, MlpParams(hidden_sizes=(8,)), seed=0)
    e_kernel = explain_dataset(net, X[:50], bg, method="kernel", seed=0)

    worst = max(e_tree.max_residual, e_kernel.max_residual)
    return worst < 1e-6, f"max |phi0 + sum(phi) - f(x)| = {worst:.2e} (tolerance 1e-6)"


VERIFY_CHECKS = (
    ("tree-oracle equivalence", _check_tree_oracle),
    ("kernel-oracle error (sampled mode)", _check_kernel_sampled),
    ("mlp gradient check", _check_gradients),
    ("local accuracy", _check_local_accuracy),
)


def cmd_verify() -> int:
    """Run the engine checks; print one line per check.
    A check that raises fails with the exception, and the rest still run."""
    failures = 0
    for name, check in VERIFY_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - a broken engine is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(VERIFY_CHECKS) - failures}/{len(VERIFY_CHECKS)} checks passed")
    return 0 if failures == 0 else 2


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

    sub.add_parser("verify", help="run the engine checks")

    p = sub.add_parser("synth", help="emit a synthetic two-regime dataset and config")
    p.add_argument("--out", default=".", help="directory for the dataset and config")
    p.add_argument("--rows", type=int, default=960, help="rows per period")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify()
        if args.command == "synth":
            cmd_synth(args.out, n_rows=args.rows, seed=args.seed)
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
