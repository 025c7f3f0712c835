"""Run configuration: a single JSON file plus --set overrides.

Unknown keys anywhere in the file are hard errors so typos never silently
fall back to defaults, and every value is checked once, at load, against the
type its dataclass field declares. Relative input paths and the output
directory are resolved against the directory containing the config file.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from regime_xai.experiment import MODEL_KINDS, ExperimentConfig, PeriodSpec
from regime_xai.gbt import GbtParams
from regime_xai.mlp import MlpParams
from regime_xai.timeseries import parse_timestamp


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


@dataclass(frozen=True)
class InputSpec:
    path: str
    resolution_hours: float

    def __post_init__(self):
        if round(self.resolution_hours * 3600) < 1:  # the grid step is a whole number of seconds
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


_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}


def _typed(value, hint, field: str):
    """value checked against a dataclass field's type hint: int takes a JSON
    integer, float a finite JSON number (an integer is converted), str a
    string, tuple[X, ...] a list of X (a bare value is one item), X | None
    also null. A boolean is never a number."""
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
    if hint is float and number and math.isfinite(value):
        return float(value)
    if hint is str and isinstance(value, str):
        return value
    raise ConfigError(f"{field}: expected {_EXPECTED[hint]}, got {value!r}")


def _typed_fields(obj, cls, path: str, names) -> dict:
    """obj's keys, each one of names, with values checked against cls's hints."""
    _check_keys(obj, names, path)
    hints = get_type_hints(cls)
    return {key: _typed(value, hints[key], f"{path}.{key}") for key, value in obj.items()}


def _dataclass_from(obj, cls, path: str, banned=()):
    """cls(**obj), each value checked against its field's type hint and each
    field without a default required; range errors name the path."""
    given = _typed_fields(obj, cls, path, [f.name for f in fields(cls) if f.name not in banned])
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            _require(obj, f.name, path)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_instant(text, path: str) -> int:
    try:
        return parse_timestamp(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected UTC instant like 2018-10-01T00:00:00Z, got {text!r}") from None


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
    if isinstance(target, dict):
        _check_keys(target, ("before", "after"), f"{path}.target")
        target = {
            name: _typed(_require(target, name, f"{path}.target"), str, f"{path}.target.{name}")
            for name in ("before", "after")
        }
    else:
        target = dict.fromkeys(("before", "after"), _typed(target, str, f"{path}.target"))

    residual = tuple(
        _dataclass_from(spec, ResidualLoadSpec, f"{path}.residual_loads[{i}]")
        for i, spec in enumerate(obj.get("residual_loads", []))
    )
    mixed = tuple(
        _dataclass_from(spec, MixedPriceSpec, f"{path}.mixed_prices[{i}]")
        for i, spec in enumerate(obj.get("mixed_prices", []))
    )
    resample = _typed(obj.get("resample_hours"), float | None, f"{path}.resample_hours")
    if resample is not None and round(resample * 3600) < 1:
        raise ConfigError(f"{path}.resample_hours: expected at least one second, got {resample!r}")
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
        spec = _dataclass_from(spec, InputSpec, f"inputs[{i}]")
        if base_dir is not None and not Path(spec.path).is_absolute():
            spec = replace(spec, path=str(base_dir / spec.path))
        echo["inputs"][i]["path"] = spec.path
        inputs.append(spec)

    features = _parse_features(_require(raw, "features", ""), "features")
    periods = _parse_periods(_require(raw, "periods", ""), "periods")
    kind, gbt_params, mlp_params = _parse_model(_require(raw, "model", ""), "model")

    given, section_of = {}, {}
    for section, names in (
        ("windows", ("n_windows", "window_fraction", "block_days", "test_fraction")),
        ("shap", ("background_size", "n_coalitions", "explain_on")),
    ):
        given |= _typed_fields(raw.get(section, {}), ExperimentConfig, section, names)
        section_of |= dict.fromkeys(names, section)
    try:
        experiment = ExperimentConfig(**given, gbt=gbt_params, mlp=mlp_params)
    except ValueError as exc:
        # each range message begins with its field name
        raise ConfigError(f"{section_of[str(exc).split()[0]]}.{exc}") from None

    seed = _typed(raw.get("seed", 0), int, "seed")
    output_dir = _typed(raw.get("output_dir", "out"), str, "output_dir")
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
