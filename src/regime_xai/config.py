"""Run configuration: a single JSON file plus --set overrides.

Unknown and repeated keys anywhere in the file are hard errors so typos never
silently fall back to defaults, and every value is checked once, at load,
against the type its dataclass field declares. Relative input paths and the
output directory are resolved against the directory containing the config
file.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from regime_xai.experiment import ModelConfig, PeriodSpec, ShapConfig, WindowConfig
from regime_xai.timeseries import parse_timestamp

PERIODS = ("before", "after")  # the two periods a run compares, in time order


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


@dataclass(frozen=True)
class InputSpec:
    path: str
    resolution_hours: float

    def __post_init__(self):
        seconds = self.resolution_hours * 3600
        if math.isinf(seconds):
            raise ValueError(f"resolution_hours must be a finite number of seconds, got {self.resolution_hours!r}")
        if round(seconds) < 1:  # the grid step is a whole number of seconds
            raise ValueError(f"resolution_hours must be at least one second, got {self.resolution_hours!r}")


@dataclass(frozen=True)
class ResidualLoadSpec:
    name: str
    load: str
    wind: str
    solar: str
    ror: str
    ror_lag_days: int = 7

    def __post_init__(self):
        if self.ror_lag_days < 1:
            raise ValueError("ror_lag_days must be >= 1")


@dataclass(frozen=True)
class MixedPriceSpec:
    name: str
    capacity: str
    energy: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.alpha > 0.1:
            warnings.warn(
                f"mixed price {self.name!r}: alpha={self.alpha:g} exceeds 0.1; the auction "
                "weighting factor is normally a few percent",
                RuntimeWarning,
                stacklevel=3,
            )


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
    model: ModelConfig
    windows: WindowConfig
    shap: ShapConfig
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


_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}


def _typed(value, hint, field: str):
    """value checked against a dataclass field's type hint: int takes a JSON
    integer, float a finite JSON number (an integer is converted), str a
    string, tuple[X, ...] a list of X (a bare value is one item), X | None
    also null, a dataclass an object of its fields. A boolean is never a
    number."""
    if is_dataclass(hint):
        return _dataclass_from(value, hint, field)
    args = get_args(hint)
    if get_origin(hint) is tuple:
        items = value if isinstance(value, list) else [value]
        return tuple(_typed(item, args[0], field) for item in items)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = set(args) - {type(None)}
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int and number and isinstance(value, int):
        return value
    if hint is float and number and abs(value) <= sys.float_info.max:  # not inf, nan, or an int beyond float range
        return float(value)
    if hint is str and isinstance(value, str):
        return value
    raise ConfigError(f"{field}: expected {_EXPECTED[hint]}, got {value!r}")


def _dataclass_from(obj, cls, path: str):
    """cls(**obj), each key a field of cls, each value checked against its
    field's type hint and each field without a default required. A range
    error reads path.message, as each message begins with its field's name."""
    _check_keys(obj, [f.name for f in fields(cls)], path)
    hints = get_type_hints(cls)
    given = {key: _typed(value, hints[key], f"{path}.{key}") for key, value in obj.items()}
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            _require(obj, f.name, path)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _parse_instant(text, path: str) -> int:
    try:
        return parse_timestamp(text)
    except ValueError:
        raise ConfigError(f"{path}: expected UTC instant like 2018-10-01T00:00:00Z, got {text!r}") from None


def _parse_periods(obj, path: str) -> dict[str, PeriodSpec]:
    _check_keys(obj, PERIODS, path)
    periods = {}
    for name in PERIODS:
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
    _check_keys(obj, [f.name for f in fields(FeatureConfig)], path)
    columns = _require(obj, "columns", path)
    if not isinstance(columns, list) or not columns or not all(isinstance(c, str) for c in columns):
        raise ConfigError(f"{path}.columns: expected a non-empty list of column names")
    for i, name in enumerate(columns):
        if name in columns[:i]:
            raise ConfigError(f"{path}.columns: duplicate column {name!r}")
    target = _require(obj, "target", path)
    if isinstance(target, dict):
        _check_keys(target, PERIODS, f"{path}.target")
        target = {
            name: _typed(_require(target, name, f"{path}.target"), str, f"{path}.target.{name}")
            for name in PERIODS
        }
    else:
        target = dict.fromkeys(PERIODS, _typed(target, str, f"{path}.target"))
    for name in target.values():
        if name in columns:
            raise ConfigError(f"{path}.columns: target column {name!r} is also a feature")

    derived = {}
    for key, cls in (("residual_loads", ResidualLoadSpec), ("mixed_prices", MixedPriceSpec)):
        specs = obj.get(key, [])
        if not isinstance(specs, list):
            raise ConfigError(f"{path}.{key}: expected a list")
        derived[key] = tuple(_dataclass_from(spec, cls, f"{path}.{key}[{i}]") for i, spec in enumerate(specs))
    resample = _typed(obj.get("resample_hours"), float | None, f"{path}.resample_hours")
    if resample is not None and math.isinf(resample * 3600):
        raise ConfigError(f"{path}.resample_hours: expected a finite number of seconds, got {resample!r}")
    if resample is not None and round(resample * 3600) < 1:
        raise ConfigError(f"{path}.resample_hours: expected at least one second, got {resample!r}")
    return FeatureConfig(tuple(columns), target, resample, **derived)


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


def parse_config(raw: dict, base_dir: Path, overrides) -> RunConfig:
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
        spec = _dataclass_from(spec, InputSpec, f"inputs[{i}]")
        if not Path(spec.path).is_absolute():
            spec = replace(spec, path=str(base_dir / spec.path))
        echo["inputs"][i]["path"] = spec.path
        inputs.append(spec)

    features = _parse_features(_require(raw, "features", ""), "features")
    periods = _parse_periods(_require(raw, "periods", ""), "periods")
    model = _dataclass_from(_require(raw, "model", ""), ModelConfig, "model")
    windows = _dataclass_from(raw.get("windows", {}), WindowConfig, "windows")
    shap = _dataclass_from(raw.get("shap", {}), ShapConfig, "shap")

    seed = _typed(raw.get("seed", 0), int, "seed")
    output_dir = _typed(raw.get("output_dir", "out"), str, "output_dir")
    if not Path(output_dir).is_absolute():
        output_dir = str(base_dir / output_dir)
    echo["output_dir"] = output_dir

    return RunConfig(
        inputs=tuple(inputs),
        features=features,
        periods=periods,
        model=model,
        windows=windows,
        shap=shap,
        seed=seed,
        output_dir=output_dir,
        echo=echo,
        overrides=tuple(overrides),
    )


def load_config(path, overrides=()) -> RunConfig:
    """Load a JSON config file and apply --set overrides in order."""
    path = Path(path)

    def unique(pairs):  # a key given twice would silently keep its last value
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            twice = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise ConfigError(f"{path}: key {twice!r} given twice")
        return obj

    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"), object_pairs_hook=unique)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for assignment in overrides:
        apply_override(raw, assignment)
    return parse_config(raw, base_dir=path.resolve().parent, overrides=overrides)
