"""Run configuration: a single JSON file plus --set overrides.

The whole file is read by one function, _dataclass_from, which builds
RunConfig and, through the type hints of its fields, every section and
period: each value is checked once, at load, against the type its dataclass
field declares, and each range rule lives in its dataclass's __post_init__.
A period is a PeriodSpec, whose bounds only the feature join reads; the
experiment takes the rows the join kept.
Unknown and repeated keys anywhere in the file are hard errors so typos never
silently fall back to defaults. Relative input paths and the output directory
are resolved against the directory containing the config file.
config_record writes a RunConfig back as the object of a config file, every
field with its value, so a run's manifest records the config that ran.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from regime_xai.experiment import ModelConfig, ShapConfig, WindowConfig
from regime_xai.timeseries import Instant, format_timestamp, parse_timestamp

PERIODS = ("before", "after")  # the two periods a run compares, in time order


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _check_grid_step(field: str, hours: float) -> None:
    """The rule for a grid step given in hours: a finite number of seconds, at
    least one, as the step is rounded to whole seconds, that divides a day, as
    test blocks are whole days counted in rows."""
    if math.isinf(hours * 3600):
        raise ValueError(f"{field} must be a finite number of seconds, got {hours:g}")
    if round(hours * 3600) < 1:
        raise ValueError(f"{field} must be at least one second, got {hours:g}")
    if 86400 % round(hours * 3600):
        raise ValueError(f"{field} must divide a day, got {hours:g}")


@dataclass(frozen=True)
class InputSpec:
    path: str
    resolution_hours: float

    def __post_init__(self):
        _check_grid_step("resolution_hours", self.resolution_hours)


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

    def __post_init__(self):
        if not self.columns:
            raise ValueError("columns: expected a non-empty list of column names")
        for i, name in enumerate(self.columns):
            if name in self.columns[:i]:
                raise ValueError(f"columns: duplicate column {name!r}")
        for name in self.target.values():
            if name in self.columns:
                raise ValueError(f"columns: target column {name!r} is also a feature")
        if self.resample_hours is not None:
            _check_grid_step("resample_hours", self.resample_hours)


@dataclass(frozen=True)
class PeriodSpec:
    """Half-open interval [start, end) of UTC epoch seconds; the run config
    keys each period by its name, and the join that builds the period's
    feature matrix keeps the rows inside it."""

    start: Instant
    end: Instant

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"end must be after start {format_timestamp(self.start)}, got {format_timestamp(self.end)}")


@dataclass(frozen=True)
class RunConfig:
    """The run a config file describes; each field is a key of the file."""

    inputs: tuple[InputSpec, ...]
    features: FeatureConfig
    periods: dict[str, PeriodSpec]
    model: ModelConfig
    windows: WindowConfig = WindowConfig()
    shap: ShapConfig = ShapConfig()
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        if not self.inputs:
            raise ValueError("inputs: expected a non-empty list")
        # the grids must join: one step, or a block every step divides
        first, block = self.inputs[0].resolution_hours, self.features.resample_hours
        for i, spec in enumerate(self.inputs):
            step = round(spec.resolution_hours * 3600)
            if block is None and step != round(first * 3600):
                raise ValueError(
                    f"inputs[{i}].resolution_hours must equal inputs[0]'s {first:g} when "
                    f"features.resample_hours is null, got {spec.resolution_hours:g}"
                )
            if block is not None and round(block * 3600) % step:
                raise ValueError(
                    f"features.resample_hours must be a multiple of inputs[{i}].resolution_hours "
                    f"{spec.resolution_hours:g}, got {block:g}"
                )
        before, after = self.periods["before"], self.periods["after"]
        if before.end > after.start:
            raise ValueError(
                f"periods.after.start must not precede before.end {format_timestamp(before.end)}, as periods may not overlap"
            )


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


_EXPECTED = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    Instant: "UTC instant like 2018-10-01T00:00:00Z",
}


def _typed(value, hint, field: str):
    """value checked against a dataclass field's type hint: int takes a JSON
    integer, float a finite JSON number (an integer is converted), str a
    string, Instant a timestamp string (read by parse_timestamp), tuple[X, ...]
    a list of X, entry i named field[i] (a bare value is one item), dict[str, X]
    an object of one X per period (a bare value is both periods'), X | None
    also null, a dataclass an object of its fields. A boolean is never a
    number."""
    if is_dataclass(hint):
        return _dataclass_from(value, hint, field)
    if hint is Instant:
        with suppress(ValueError):
            return parse_timestamp(value)
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            return (_typed(value, args[0], field),)
        return tuple(_typed(item, args[0], f"{field}[{i}]") for i, item in enumerate(value))
    if get_origin(hint) is dict:
        if not isinstance(value, dict):
            return dict.fromkeys(PERIODS, _typed(value, args[1], field))
        _check_keys(value, PERIODS, field)
        return {name: _typed(_require(value, name, field), args[1], f"{field}.{name}") for name in PERIODS}
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
    """cls(**obj), each key of obj a field of cls, each value checked against
    its field's type hint and each field without a default required. A range
    error reads path.message, as each message begins with its field's name;
    at the root, where path is "", it reads message."""
    prefix = f"{path}." if path else ""
    _check_keys(obj, [f.name for f in fields(cls)], path)
    hints = get_type_hints(cls)
    given = {key: _typed(value, hints[key], prefix + key) for key, value in obj.items()}
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            _require(obj, f.name, path)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


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


def parse_config(raw: dict, base_dir: Path) -> RunConfig:
    """The RunConfig raw describes, its input paths and output directory
    resolved against base_dir (an absolute path stays as it is)."""
    config = _dataclass_from(raw, RunConfig, "")
    inputs = tuple(replace(spec, path=str(base_dir / spec.path)) for spec in config.inputs)
    return replace(config, inputs=inputs, output_dir=str(base_dir / config.output_dir))


def config_record(config: RunConfig) -> dict:
    """config as the JSON object of a config file, which _dataclass_from reads
    back to an equal RunConfig: every field, defaults included, each period
    bound as its UTC stamp."""
    record = asdict(config)
    for period in record["periods"].values():
        period.update({bound: format_timestamp(t) for bound, t in period.items()})
    return record


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
    return parse_config(raw, base_dir=path.resolve().parent)
