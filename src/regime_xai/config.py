"""Run configuration: a single JSON file plus --set overrides.

Unknown keys anywhere in the file are hard errors so typos never silently
fall back to defaults. Relative input paths and the output directory are
resolved against the directory containing the config file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from regime_xai.experiment import MODEL_KINDS, ExperimentConfig, PeriodSpec
from regime_xai.gbt import GbtParams
from regime_xai.mlp import MlpParams
from regime_xai.timeseries import TIMESTAMP_FORMAT


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


@dataclass(frozen=True)
class InputSpec:
    path: str
    resolution_hours: float


@dataclass(frozen=True)
class ResidualLoadSpec:
    name: str
    load: str
    wind: str
    solar: str
    ror: str
    ror_lag_days: int = 7


@dataclass(frozen=True)
class MixedPriceSpec:
    name: str
    capacity: str
    energy: str
    alpha: float = 0.0


@dataclass(frozen=True)
class FeatureConfig:
    columns: tuple[str, ...]
    target: dict[str, str]  # per-period target column
    resample_hours: float | None = None
    residual_loads: tuple[ResidualLoadSpec, ...] = ()
    mixed_prices: tuple[MixedPriceSpec, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    inputs: tuple[InputSpec, ...]
    features: FeatureConfig
    periods: dict[str, PeriodSpec]
    model_kind: str
    experiment: ExperimentConfig
    seed: int
    output_dir: str
    echo: dict
    overrides: tuple[str, ...] = ()


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required key missing" if path else f"{key}: required key missing")
    return obj[key]


def _check_keys(obj, allowed, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or '<root>'}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{path or '<root>'}: unknown key(s) {sorted(unknown)}")


def _integer(obj: dict, key: str, default, path: str):
    """obj[key] as a JSON integer, or default when the key is absent; null is
    accepted only where the default is None."""
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        field = f"{path}.{key}" if path else key
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return value


def _parse_instant(text, path: str) -> datetime:
    try:
        return datetime.strptime(text, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected UTC instant like 2018-10-01T00:00:00Z, got {text!r}") from None


def _dataclass_from(obj: dict, cls, path: str, banned=()):
    names = [f.name for f in fields(cls) if f.name not in banned]
    _check_keys(obj, names, path)
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_periods(obj, path: str) -> dict[str, PeriodSpec]:
    _check_keys(obj, ("before", "after"), path)
    periods = {}
    for name in ("before", "after"):
        section = _require(obj, name, path)
        _check_keys(section, ("start", "end"), f"{path}.{name}")
        start = _parse_instant(_require(section, "start", f"{path}.{name}"), f"{path}.{name}.start")
        end = _parse_instant(_require(section, "end", f"{path}.{name}"), f"{path}.{name}.end")
        try:
            periods[name] = PeriodSpec(name, start, end)
        except ValueError as exc:
            raise ConfigError(f"{path}.{name}: {exc}") from None
    if periods["before"].end > periods["after"].start:
        raise ConfigError(f"{path}: periods overlap; before.end must not exceed after.start")
    return periods


def _parse_features(obj, path: str) -> FeatureConfig:
    _check_keys(obj, ("columns", "target", "resample_hours", "residual_loads", "mixed_prices"), path)
    columns = _require(obj, "columns", path)
    if not isinstance(columns, list) or not columns or not all(isinstance(c, str) for c in columns):
        raise ConfigError(f"{path}.columns: expected a non-empty list of column names")
    target = _require(obj, "target", path)
    if isinstance(target, str):
        target = {"before": target, "after": target}
    elif isinstance(target, dict):
        _check_keys(target, ("before", "after"), f"{path}.target")
        if set(target) != {"before", "after"}:
            raise ConfigError(f"{path}.target: needs both 'before' and 'after'")
    else:
        raise ConfigError(f"{path}.target: expected a column name or per-period mapping")

    residual = tuple(
        _dataclass_from(spec, ResidualLoadSpec, f"{path}.residual_loads[{i}]")
        for i, spec in enumerate(obj.get("residual_loads", []))
    )
    mixed = tuple(
        _dataclass_from(spec, MixedPriceSpec, f"{path}.mixed_prices[{i}]")
        for i, spec in enumerate(obj.get("mixed_prices", []))
    )
    resample = obj.get("resample_hours")
    if resample is not None and (not isinstance(resample, (int, float)) or resample <= 0):
        raise ConfigError(f"{path}.resample_hours: expected a positive number")
    return FeatureConfig(tuple(columns), target, resample, residual, mixed)


def _parse_model(obj, path: str):
    _check_keys(obj, ("kind", "gbt", "mlp"), path)
    kind = _require(obj, "kind", path)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"{path}.kind: expected one of {list(MODEL_KINDS)}, got {kind!r}")
    gbt = _dataclass_from(obj.get("gbt", {}), GbtParams, f"{path}.gbt")
    mlp = _dataclass_from(obj.get("mlp", {}), MlpParams, f"{path}.mlp", banned=("seed",))
    return kind, gbt, mlp


def apply_override(raw: dict, assignment: str) -> None:
    """Apply a --set dotted.path=value override onto the raw config dict.

    Values parse as JSON when possible (numbers, booleans, lists), otherwise
    they are taken as strings. Intermediate objects are created as needed.
    """
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    dotted, text = assignment.split("=", 1)
    keys = [k for k in dotted.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"--set expects a dotted key, got {assignment!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {dotted}: {key} is not an object")
    node[keys[-1]] = value


def parse_config(raw: dict, base_dir: Path | None = None, overrides=()) -> RunConfig:
    _check_keys(
        raw,
        ("inputs", "features", "periods", "model", "shap", "windows", "seed", "output_dir"),
        "",
    )

    echo = json.loads(json.dumps(raw))  # deep copy; resolved paths recorded below

    inputs_raw = _require(raw, "inputs", "")
    if not isinstance(inputs_raw, list) or not inputs_raw:
        raise ConfigError("inputs: expected a non-empty list")
    inputs = []
    for i, spec in enumerate(inputs_raw):
        _check_keys(spec, ("path", "resolution_hours"), f"inputs[{i}]")
        path = _require(spec, "path", f"inputs[{i}]")
        res = _require(spec, "resolution_hours", f"inputs[{i}]")
        if base_dir is not None and not Path(path).is_absolute():
            path = str(base_dir / path)
        echo["inputs"][i]["path"] = path
        if not isinstance(res, (int, float)) or not 0 < res < math.inf:
            raise ConfigError(f"inputs[{i}].resolution_hours: expected a positive number, got {res!r}")
        inputs.append(InputSpec(path, float(res)))

    features = _parse_features(_require(raw, "features", ""), "features")
    periods = _parse_periods(_require(raw, "periods", ""), "periods")
    kind, gbt_params, mlp_params = _parse_model(_require(raw, "model", ""), "model")

    shap_raw = raw.get("shap", {})
    _check_keys(shap_raw, ("background_size", "n_coalitions", "explain_on"), "shap")
    windows_raw = raw.get("windows", {})
    _check_keys(windows_raw, ("n_windows", "window_fraction", "block_days", "test_fraction"), "windows")
    try:
        experiment = ExperimentConfig(
            n_windows=_integer(windows_raw, "n_windows", 6, "windows"),
            window_fraction=float(windows_raw.get("window_fraction", 0.5)),
            block_days=_integer(windows_raw, "block_days", 4, "windows"),
            test_fraction=float(windows_raw.get("test_fraction", 0.2)),
            background_size=_integer(shap_raw, "background_size", 100, "shap"),
            n_coalitions=_integer(shap_raw, "n_coalitions", None, "shap"),
            explain_on=shap_raw.get("explain_on", "test"),
            gbt=gbt_params,
            mlp=mlp_params,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    seed = _integer(raw, "seed", 0, "")
    output_dir = raw.get("output_dir", "out")
    if base_dir is not None and not Path(output_dir).is_absolute():
        output_dir = str(base_dir / output_dir)
    echo["output_dir"] = output_dir

    return RunConfig(
        inputs=tuple(inputs),
        features=features,
        periods=periods,
        model_kind=kind,
        experiment=experiment,
        seed=seed,
        output_dir=output_dir,
        echo=echo,
        overrides=tuple(overrides),
    )


def load_config(path, overrides=()) -> RunConfig:
    """Load a JSON config file and apply --set overrides in order."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for assignment in overrides:
        apply_override(raw, assignment)
    return parse_config(raw, base_dir=path.resolve().parent, overrides=overrides)
